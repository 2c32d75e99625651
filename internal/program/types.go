// Package program models the synthetic server applications that stand in
// for the paper's 11 real server workloads (§6.2). A Program is a static
// artifact: a set of functions with code sizes and call sites arranged in
// the layered shape the paper's motivation describes (Figure 1) — a request
// loop calling a pipeline of stages, stages dispatching by request type to
// per-type handler subtrees, everything leaning on a shared library pool,
// plus large amounts of statically-reachable-but-cold code (error paths,
// unused library surface) that inflates static reachable sizes exactly the
// way real binaries do (the paper notes dynamic footprints are 3-10x
// smaller than the 200KB static bundle threshold).
//
// The static side (sizes and call edges) is materialised eagerly so the
// linker can build the call graph; the fine-grained intra-function control
// flow (filler branches and loops between call sites) is derived lazily and
// deterministically from per-function seeds by the body builder.
//
// A program stores that static side compactly, because the cold and
// orphan code that gives the linker realistic sizes is most of it: only
// 2,532 of tidb-tpcc's 434,708 functions can be reached from its request
// loop. Each Function is a 24-byte record without pointers: address,
// size, stage, kind and a range of call sites. Every call site of the
// program lives in one array, Program.Calls, in function-ID order, so a
// function's sites are a contiguous run of it (Program.CallsOf). A
// function's seed is not stored: it is derived from the program seed
// and the function ID (Program.FuncSeed), as the generator has always
// derived it, and an image whose records disagree is rejected. A
// program that only runs read can go further: Prune drops every record
// above the highest function a run can reach.
package program

import (
	"fmt"
	"sort"
	"sync/atomic"

	"hprefetch/internal/isa"
	"hprefetch/internal/xrand"
)

// FuncKind describes a function's structural role in the synthetic
// application. It drives name synthesis and body-generation style only;
// the simulator and analyses treat all functions uniformly.
type FuncKind uint8

const (
	// KindRoot is the request loop (program entry).
	KindRoot FuncKind = iota
	// KindStage is a pipeline-stage function (Read, Dispatch, ...).
	KindStage
	// KindHandler is a per-request-type handler root inside a stage.
	KindHandler
	// KindHelper is an internal node of a handler subtree.
	KindHelper
	// KindLib is a shared library routine (allocator, codec, lock, ...).
	KindLib
	// KindCold is statically reachable code that never executes
	// (error paths, unused features).
	KindCold
)

func (k FuncKind) String() string {
	switch k {
	case KindRoot:
		return "root"
	case KindStage:
		return "stage"
	case KindHandler:
		return "handler"
	case KindHelper:
		return "helper"
	case KindLib:
		return "lib"
	case KindCold:
		return "cold"
	default:
		return fmt.Sprintf("FuncKind(%d)", uint8(k))
	}
}

// NoStage marks functions that do not belong to a pipeline stage.
const NoStage = int16(-1)

// probScale is the fixed-point denominator for Call.Prob and branch biases.
const probScale = 65535

// Call is a static call site within a function.
type Call struct {
	// Off is the byte offset of the call instruction from the function
	// start. Call sites are stored in increasing offset order.
	Off uint32
	// Callee is the direct callee, or isa.NoFunc for an indirect call.
	Callee isa.FuncID
	// Targets indexes Program.TargetSets for indirect calls.
	Targets uint32
	// Prob is the per-invocation execution probability of the call in
	// fixed point (0..probScale). Cold edges carry Prob 0: statically
	// present, never executed.
	Prob uint16
	// Repeat is the loop trip count when the call sits inside a small
	// callee-invoking loop (1 = straight-line call).
	Repeat uint8
}

// Probability returns the call's execution probability in [0,1].
func (c *Call) Probability() float64 { return float64(c.Prob) / probScale }

// Indirect reports whether the call dispatches through a target set.
func (c *Call) Indirect() bool { return c.Callee == isa.NoFunc }

// TargetSet is the set of possible targets of an indirect call site.
type TargetSet struct {
	// ByType selects Funcs[requestType % len(Funcs)] when true (a
	// request-type dispatch table); otherwise the executor picks a
	// target pseudo-randomly with strong locality.
	ByType bool
	// Funcs are the possible targets.
	Funcs []isa.FuncID
}

// Function is one function of the synthetic program. Addr is zero until
// the linker assigns the final layout. The record holds no pointer, so
// the garbage collector never scans a program's function table.
type Function struct {
	// Addr is the linked base address (0 before linking).
	Addr isa.Addr
	// Size is the code size in bytes (multiple of isa.InstrSize; at
	// least MinFuncSize).
	Size uint32
	// FirstCall and NumCalls locate the function's static call sites,
	// in offset order, in Program.Calls.
	FirstCall, NumCalls uint32
	// Stage is the pipeline stage this function belongs to, or NoStage.
	Stage int16
	// Kind is the structural role.
	Kind FuncKind
}

// RetOff returns the offset of the function's return instruction (the
// last instruction slot of the function).
func (f *Function) RetOff() uint32 { return f.Size - isa.InstrSize }

// MinFuncSize is the smallest generated function size in bytes: room for
// at least a couple of instructions plus the return.
const MinFuncSize = 4 * isa.InstrSize

// FuncAlign aligns the start of every linked function; real linkers
// align to 16 bytes.
const FuncAlign = 16

// Stage describes one pipeline stage of the application.
type Stage struct {
	// Name is the stage label (e.g. "Exec").
	Name string
	// Func is the stage's top-level function.
	Func isa.FuncID
	// Diverges reports whether the stage dispatches to per-request-type
	// handlers (a coarse divergence point in the paper's terms).
	Diverges bool
	// Handlers lists the per-type handler roots (empty if !Diverges).
	Handlers []isa.FuncID
}

// Program is a complete synthetic server application before or after
// linking.
type Program struct {
	// Name labels the workload this program models.
	Name string
	// Seed is the master generation seed.
	Seed uint64
	// Funcs holds every function, indexed by isa.FuncID.
	Funcs []Function
	// Calls holds every static call site, function by function in ID
	// order; Function.FirstCall and NumCalls index it.
	Calls []Call
	// Entry is the request-loop root function.
	Entry isa.FuncID
	// Stages is the request pipeline in execution order.
	Stages []Stage
	// TargetSets holds the indirect-call dispatch tables.
	TargetSets []TargetSet
	// RequestTypes is the number of distinct request types.
	RequestTypes int
	// TypeWeights holds the request mix (len == RequestTypes, sums to 1).
	TypeWeights []float64
	// TextSize is the total linked code size in bytes (0 before linking).
	TextSize uint64
	// TextBase is the linked base address (0 before linking).
	TextBase isa.Addr

	// addrIndex holds function IDs sorted by linked address; the linker
	// shuffles layout, so ID order is not address order.
	addrIndex []isa.FuncID

	// textEnds holds the end offset from TextBase of every function the
	// text holds, in address order, for a layout packed at FuncAlign;
	// Prune keeps it whole (see InFunc).
	textEnds []uint32

	// bodies holds the function bodies expanded so far (see Body); nil
	// until the first call.
	bodies atomic.Pointer[bodyTable]
}

// NumFuncs returns the number of function records: every function, or
// for a pruned program the ones kept (see TextFuncs).
func (p *Program) NumFuncs() int { return len(p.Funcs) }

// Func returns the function with the given ID.
func (p *Program) Func(id isa.FuncID) *Function { return &p.Funcs[id] }

// CallsOf returns the static call sites of function id in offset order.
// The slice aliases Program.Calls; its capacity ends with the function,
// so appending to it cannot overwrite the next function's sites.
func (p *Program) CallsOf(id isa.FuncID) []Call {
	f := &p.Funcs[id]
	end := f.FirstCall + f.NumCalls
	return p.Calls[f.FirstCall:end:end]
}

// FuncSeed returns the seed that drives function id's call-site
// placement and body expansion: a pure function of the program seed and
// the ID, so no record stores it.
func (p *Program) FuncSeed(id isa.FuncID) uint64 {
	return xrand.Mix(p.Seed, uint64(id), 0xB0D7)
}

// FuncName synthesises a stable human-readable name for a function.
// Names are derived rather than stored: with hundreds of thousands of
// functions per program, storing strings would dominate memory.
func (p *Program) FuncName(id isa.FuncID) string {
	f := p.Func(id)
	switch f.Kind {
	case KindRoot:
		return "serve_loop"
	case KindStage:
		if int(f.Stage) < len(p.Stages) {
			return "stage_" + p.Stages[f.Stage].Name
		}
		return fmt.Sprintf("stage_%d", f.Stage)
	case KindHandler:
		if int(f.Stage) < len(p.Stages) {
			return fmt.Sprintf("%s_handler_%d", p.Stages[f.Stage].Name, id)
		}
		return fmt.Sprintf("handler_%d", id)
	case KindHelper:
		return fmt.Sprintf("helper_%d", id)
	case KindLib:
		return fmt.Sprintf("lib_%d", id)
	case KindCold:
		return fmt.Sprintf("cold_%d", id)
	default:
		return fmt.Sprintf("func_%d", id)
	}
}

// Linked reports whether the program has been laid out by the linker.
func (p *Program) Linked() bool { return p.TextSize != 0 }

// SetAddrIndex installs order, every function ID in the order the
// layout placed them, as the address index used by FuncAt, and ends,
// each one's end offset from TextBase, as the text map InFunc reads. The
// linker packs functions in ascending address order, each start aligned
// to FuncAlign, so its order and ends are the index and the map already;
// any other layout falls back to BuildAddrIndex. The program retains
// both slices, so the caller must not modify them afterwards.
func (p *Program) SetAddrIndex(order []isa.FuncID, ends []uint32) {
	if len(order) != len(p.Funcs) || len(ends) != len(order) || !p.packed(order, ends) {
		p.BuildAddrIndex()
		return
	}
	p.addrIndex, p.textEnds = order, ends
}

// BuildAddrIndex (re)builds the address-sorted function index used by
// FuncAt by sorting every function ID by address, and the text map of a
// layout packed at FuncAlign. Image decoding calls it for linked images.
func (p *Program) BuildAddrIndex() {
	p.addrIndex = make([]isa.FuncID, len(p.Funcs))
	for i := range p.addrIndex {
		p.addrIndex[i] = isa.FuncID(i)
	}
	sort.Slice(p.addrIndex, func(a, b int) bool {
		return p.Funcs[p.addrIndex[a]].Addr < p.Funcs[p.addrIndex[b]].Addr
	})
	p.textEnds = make([]uint32, len(p.addrIndex))
	for k, id := range p.addrIndex {
		f := &p.Funcs[id]
		p.textEnds[k] = uint32(uint64(f.Addr-p.TextBase) + uint64(f.Size))
	}
	if !p.packed(p.addrIndex, p.textEnds) {
		p.textEnds = nil
	}
}

// packed reports whether order and ends describe this program's layout
// as the linker makes it: each function in order is nonempty, starts
// where the one before it ends, rounded up to FuncAlign, and ends where
// ends says, all within 4 GB of TextBase.
func (p *Program) packed(order []isa.FuncID, ends []uint32) bool {
	var prev uint64
	for k, id := range order {
		f := &p.Funcs[id]
		start := alignFunc(prev)
		if f.Size == 0 || f.Addr < p.TextBase || uint64(f.Addr-p.TextBase) != start ||
			uint64(ends[k]) != start+uint64(f.Size) {
			return false
		}
		prev = uint64(ends[k])
	}
	return true
}

// FuncAt returns the function containing addr, or (NoFunc, false) when
// addr is outside any function's linked range. Requires a linked program
// with a built address index.
func (p *Program) FuncAt(addr isa.Addr) (isa.FuncID, bool) {
	if !p.Linked() || len(p.addrIndex) == 0 {
		return isa.NoFunc, false
	}
	// Binary search for the last function starting at or before addr.
	lo, hi := 0, len(p.addrIndex)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.Funcs[p.addrIndex[mid]].Addr <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return isa.NoFunc, false
	}
	id := p.addrIndex[lo-1]
	f := &p.Funcs[id]
	if addr >= f.Addr+isa.Addr(f.Size) {
		return isa.NoFunc, false
	}
	return id, true
}

// StaticText returns the sum of all function sizes in bytes.
func (p *Program) StaticText() uint64 {
	var total uint64
	for i := range p.Funcs {
		total += uint64(p.Funcs[i].Size)
	}
	return total
}
