package program

import (
	"fmt"

	"hprefetch/internal/isa"
)

// A run reaches a small prefix of a program's function IDs. The
// generator numbers the request loop, its stages and handler trees, the
// cold trees and the library pool first and the orphans last, and every
// call edge goes to a larger ID, so the functions a run can enter all
// sit below the orphans, which make up most of a large program. Prune
// keeps that prefix. It renumbers nothing, so event Func fields, seeds,
// body items' call indices and traces are the same over the pruned
// program as over the whole one.

// reachLimit returns one more than the highest function ID a run can
// reach from Entry: through direct calls that can execute (Prob > 0)
// and through every target of an indirect call's set. An execution
// engine over the program never enters a function at or above it.
func (p *Program) reachLimit() int {
	if len(p.Funcs) == 0 {
		return 0
	}
	seen := make([]bool, len(p.Funcs))
	seen[p.Entry] = true
	stack := []isa.FuncID{p.Entry}
	limit := int(p.Entry) + 1
	visit := func(id isa.FuncID) {
		if !seen[id] {
			seen[id] = true
			stack = append(stack, id)
			limit = max(limit, int(id)+1)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range p.CallsOf(id) {
			switch {
			case c.Indirect():
				for _, t := range p.TargetSets[c.Targets].Funcs {
					visit(t)
				}
			case c.Prob > 0:
				visit(c.Callee)
			}
		}
	}
	return limit
}

// Prune cuts the program down to the functions up to the highest one a
// run can reach and their call sites, copied into arrays of exact length
// so the dropped records' storage can be freed. A linked program keeps
// its text map (4 bytes a function), so TextFuncs and InFunc keep
// answering for the whole text, and TextSize is unchanged; FuncAt,
// StaticText and NumFuncs see only the kept functions. A linked layout
// must be the linker's, which has a text map: functions packed in
// address order, each start aligned to FuncAlign.
func (p *Program) Prune() error {
	if p.Linked() && p.textEnds == nil {
		return fmt.Errorf("program %s: functions are not packed at %d-byte alignment; cannot prune", p.Name, FuncAlign)
	}
	n := p.reachLimit()
	funcs := make([]Function, n)
	copy(funcs, p.Funcs)
	var nc uint32
	for i := range funcs {
		nc = max(nc, funcs[i].FirstCall+funcs[i].NumCalls)
	}
	calls := make([]Call, nc)
	copy(calls, p.Calls)
	index := make([]isa.FuncID, 0, n)
	for _, id := range p.addrIndex {
		if int(id) < n {
			index = append(index, id)
		}
	}
	p.Funcs, p.Calls, p.addrIndex = funcs, calls, index
	return nil
}

// alignFunc rounds a text offset up to FuncAlign.
func alignFunc(off uint64) uint64 { return (off + FuncAlign - 1) &^ (FuncAlign - 1) }

// TextFuncs returns how many functions the linked text holds: NumFuncs,
// or for a pruned program the count before the cut.
func (p *Program) TextFuncs() int {
	if p.textEnds != nil {
		return len(p.textEnds)
	}
	return len(p.Funcs)
}

// InFunc reports whether addr lies inside a function of the linked
// text, including the functions a pruned program no longer keeps; the
// padding between functions lies inside none. It reads the text map,
// which every layout packed at FuncAlign has, the linker's among them;
// any other layout answers from FuncAt.
func (p *Program) InFunc(addr isa.Addr) bool {
	if p.textEnds == nil {
		_, ok := p.FuncAt(addr)
		return ok
	}
	if addr < p.TextBase {
		return false
	}
	off := uint64(addr - p.TextBase)
	// Binary search for the first function ending after off.
	lo, hi := 0, len(p.textEnds)
	for lo < hi {
		mid := (lo + hi) / 2
		if uint64(p.textEnds[mid]) <= off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(p.textEnds) {
		return false
	}
	var start uint64
	if lo > 0 {
		start = alignFunc(uint64(p.textEnds[lo-1]))
	}
	return off >= start
}
