// Package callgraph implements the paper's software-side analysis (§5.1,
// Algorithm 1): building the static call graph of a binary, computing
// per-function reachable sizes, and identifying Bundle entry points.
//
// Reachable size is defined by the paper as the total code size of a
// function and everything reachable from it (a set-union size, so shared
// callees count once). Computing it exactly for every node of a
// half-million-function graph is quadratic, so this package computes it
// with a saturating search: sizes are exact until they exceed a cap (a
// small multiple of the Bundle threshold, default 4x), beyond which the
// node is marked saturated. Saturated father/child comparisons fall back
// to an exclusion search that measures how much code the father reaches
// without descending into the child — which is precisely the "divergence"
// Algorithm 1 is probing for. On graphs small enough to stay below the
// cap, the analysis is bit-for-bit the paper's Algorithm 1; tests verify
// this against a brute-force reference.
//
// The searches run on the condensation of the graph (one node per
// strongly connected component) and reuse sealed subtrees. A component
// is sealed when each of its callees has exactly one caller and is
// itself sealed — the shape of the generator's cold trees and of most of
// every orphan tree. A sealed component's reach is its own size plus its
// callees' reaches, computed once, and a search that reaches a sealed
// component adds that reach instead of walking the subtree again. This
// is exact, not an approximation. Everything a sealed component s
// reaches, apart from s itself, is called only from inside that set, so
// any search starting outside it enters it through s and nowhere else.
// Two such sets are therefore either nested or disjoint: a search that
// stops at s never counts any of its code twice, and the callees of a
// sealed component own disjoint sets, so their sum counts nothing twice
// either. Saturation flags, every unsaturated reachable size and the
// entry set are the same as with one full capped search per component.
package callgraph

import (
	"fmt"

	"hprefetch/internal/isa"
	"hprefetch/internal/program"
)

// Graph is a static call graph in compressed sparse row form.
type Graph struct {
	n         int
	size      []uint32 // code bytes per function
	edgeStart []int32  // CSR offsets, len n+1
	edges     []int32  // distinct callees
	predStart []int32
	preds     []int32
}

// NumNodes returns the function count.
func (g *Graph) NumNodes() int { return g.n }

// Size returns the code size of function v.
func (g *Graph) Size(v isa.FuncID) uint32 { return g.size[v] }

// Callees returns the distinct static callees of v. The slice aliases
// internal storage and must not be modified.
func (g *Graph) Callees(v isa.FuncID) []int32 {
	return g.edges[g.edgeStart[v]:g.edgeStart[v+1]]
}

// Callers returns the distinct static callers of v. The slice aliases
// internal storage and must not be modified.
func (g *Graph) Callers(v isa.FuncID) []int32 {
	return g.preds[g.predStart[v]:g.predStart[v+1]]
}

// FromProgram builds the call graph of a program: every direct callee and
// every possible indirect target contributes an edge, including
// probability-zero (cold) edges — the static graph overestimates the
// dynamic one, as the paper notes real static call graphs do.
func FromProgram(p *program.Program) *Graph {
	n := p.NumFuncs()
	g := &Graph{n: n, size: make([]uint32, n)}

	// First pass: count edges per node (with dedup via a scratch set
	// keyed by epoch to avoid per-node allocations).
	mark := make([]int32, n)
	for i := range mark {
		mark[i] = -1
	}
	counts := make([]int32, n+1)
	dedupCallees := func(v int, emit func(int32)) {
		calls := p.CallsOf(isa.FuncID(v))
		for ci := range calls {
			c := &calls[ci]
			if c.Indirect() {
				for _, t := range p.TargetSets[c.Targets].Funcs {
					if int(t) != v && mark[t] != int32(v) {
						mark[t] = int32(v)
						emit(int32(t))
					}
				}
			} else if int(c.Callee) != v && mark[c.Callee] != int32(v) {
				mark[c.Callee] = int32(v)
				emit(int32(c.Callee))
			}
		}
	}
	for v := 0; v < n; v++ {
		g.size[v] = p.Funcs[v].Size
		dedupCallees(v, func(int32) { counts[v+1]++ })
	}
	g.edgeStart = make([]int32, n+1)
	for v := 0; v < n; v++ {
		g.edgeStart[v+1] = g.edgeStart[v] + counts[v+1]
	}
	g.edges = make([]int32, g.edgeStart[n])
	for i := range mark {
		mark[i] = -1
	}
	cursor := make([]int32, n)
	copy(cursor, g.edgeStart[:n])
	for v := 0; v < n; v++ {
		dedupCallees(v, func(t int32) {
			g.edges[cursor[v]] = t
			cursor[v]++
		})
	}
	g.buildPreds()
	return g
}

// buildPreds fills the reverse CSR from the forward one.
func (g *Graph) buildPreds() {
	n := g.n
	counts := make([]int32, n+1)
	for _, t := range g.edges {
		counts[t+1]++
	}
	g.predStart = make([]int32, n+1)
	for v := 0; v < n; v++ {
		g.predStart[v+1] = g.predStart[v] + counts[v+1]
	}
	g.preds = make([]int32, len(g.edges))
	cursor := make([]int32, n)
	copy(cursor, g.predStart[:n])
	for v := 0; v < n; v++ {
		for _, t := range g.Callees(isa.FuncID(v)) {
			g.preds[cursor[t]] = int32(v)
			cursor[t]++
		}
	}
}

// Options configures the analysis.
type Options struct {
	// Threshold is the Bundle divergence threshold in bytes (paper
	// default: 200KB).
	Threshold uint64
	// Cap is the saturation bound for reachable-size computation.
	// Zero means 4*Threshold. Graphs whose largest reachable size
	// stays below Cap are analysed exactly.
	Cap uint64
}

// DefaultThreshold is the paper's 200KB divergence threshold.
const DefaultThreshold = 200 << 10

// Analysis is the result of running Algorithm 1 over a graph.
type Analysis struct {
	// Reach holds per-function reachable sizes in bytes. Values of
	// saturated functions are only a lower bound, at least Cap; which
	// bound depends on the search order (see Saturated).
	Reach []uint64
	// Saturated marks functions whose reachable size hit the cap.
	Saturated []bool
	// Entries lists Bundle entry functions in ascending ID order.
	Entries []isa.FuncID
	// Threshold echoes the threshold used.
	Threshold uint64
	// Cap echoes the saturation cap used.
	Cap uint64
}

// IsEntry reports whether v was identified as a Bundle entry point.
func (a *Analysis) IsEntry(v isa.FuncID) bool {
	lo, hi := 0, len(a.Entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if a.Entries[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(a.Entries) && a.Entries[lo] == v
}

// Analyze runs reachable-size computation and Bundle entry identification
// (Algorithm 1) over the graph.
func Analyze(g *Graph, opt Options) (*Analysis, error) {
	return analyze(g, opt, (*condensation).reachable)
}

// analyze is Analyze with the reachable-size computation as a parameter,
// so tests can run Algorithm 1 over a reference search.
func analyze(g *Graph, opt Options, reachable func(*condensation, uint64) ([]uint64, []bool)) (*Analysis, error) {
	if opt.Threshold == 0 {
		return nil, fmt.Errorf("callgraph: zero threshold")
	}
	cap := opt.Cap
	if cap == 0 {
		cap = 4 * opt.Threshold
	}
	if cap < opt.Threshold {
		return nil, fmt.Errorf("callgraph: cap %d below threshold %d", cap, opt.Threshold)
	}
	comp, compOf := scc(g)
	reachC, satC := reachable(comp, cap)

	a := &Analysis{
		Reach:     make([]uint64, g.n),
		Saturated: make([]bool, g.n),
		Threshold: opt.Threshold,
		Cap:       cap,
	}
	for v := 0; v < g.n; v++ {
		a.Reach[v] = reachC[compOf[v]]
		a.Saturated[v] = satC[compOf[v]]
	}

	excl := newExcluder(comp)
	for v := 0; v < g.n; v++ {
		if a.Reach[v] < opt.Threshold {
			continue // Algorithm 1 line 5: below threshold
		}
		callers := g.Callers(isa.FuncID(v))
		if len(callers) == 0 {
			// Root-node rule: roots meeting the size requirement are
			// Bundles in their own right.
			a.Entries = append(a.Entries, isa.FuncID(v))
			continue
		}
		for _, u := range callers {
			if compOf[u] == compOf[v] {
				continue // recursion: father reaches exactly what child does
			}
			var diverges bool
			if !satC[compOf[u]] {
				// Exact sizes on both sides: the literal Algorithm 1
				// test (child is never saturated when father is not,
				// since reach(father) >= reach(child)).
				diverges = a.Reach[u]-a.Reach[v] > opt.Threshold
			} else {
				// Saturated father: measure the code the father
				// reaches without descending into the child at all.
				diverges = excl.exceeds(compOf[u], compOf[v], opt.Threshold)
			}
			if diverges {
				a.Entries = append(a.Entries, isa.FuncID(v))
				break
			}
		}
	}
	return a, nil
}

// condensation is the SCC-condensed DAG of a call graph.
type condensation struct {
	n         int      // component count
	size      []uint64 // summed code size per component
	edgeStart []int32
	edges     []int32 // distinct inter-component edges
}

// scc computes strongly connected components with an iterative Tarjan
// walk and returns the condensation plus the node->component map.
// Component IDs are assigned in reverse topological order: every edge of
// the condensation goes from a higher ID to a lower one.
func scc(g *Graph) (*condensation, []int32) {
	n := g.n
	const unvisited = int32(-1)
	index := make([]int32, n)
	low := make([]int32, n)
	compOf := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
		compOf[i] = -1
	}
	var (
		counter int32
		ncomp   int32
		stack   []int32 // Tarjan stack
	)
	type frame struct {
		v  int32
		ei int32 // next edge index to explore
	}
	var frames []frame
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], frame{v: int32(root)})
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, int32(root))
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			es, ee := g.edgeStart[v], g.edgeStart[v+1]
			advanced := false
			for f.ei < ee-es {
				w := g.edges[es+f.ei]
				f.ei++
				if index[w] == unvisited {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && low[v] > index[w] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// v is finished.
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					compOf[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[p] > low[v] {
					low[p] = low[v]
				}
			}
		}
	}

	// Build the condensation CSR with deduplicated edges.
	c := &condensation{n: int(ncomp), size: make([]uint64, ncomp)}
	for v := 0; v < n; v++ {
		c.size[compOf[v]] += uint64(g.size[v])
	}
	mark := make([]int32, ncomp)
	for i := range mark {
		mark[i] = -1
	}
	counts := make([]int32, ncomp+1)
	for v := 0; v < n; v++ {
		cv := compOf[v]
		for _, w := range g.Callees(isa.FuncID(v)) {
			cw := compOf[w]
			if cw != cv && mark[cw] != cv {
				mark[cw] = cv
				counts[cv+1]++
			}
		}
	}
	c.edgeStart = make([]int32, ncomp+1)
	for i := int32(0); i < ncomp; i++ {
		c.edgeStart[i+1] = c.edgeStart[i] + counts[i+1]
	}
	c.edges = make([]int32, c.edgeStart[ncomp])
	for i := range mark {
		mark[i] = -1
	}
	cursor := make([]int32, ncomp)
	copy(cursor, c.edgeStart[:ncomp])
	// Reset marks per source component: iterate nodes grouped by comp
	// is awkward, so use a second mark array keyed by source comp.
	mark2 := make([]int32, ncomp)
	for i := range mark2 {
		mark2[i] = -1
	}
	for v := 0; v < n; v++ {
		cv := compOf[v]
		for _, w := range g.Callees(isa.FuncID(v)) {
			cw := compOf[w]
			if cw != cv && mark2[cw] != cv {
				mark2[cw] = cv
				c.edges[cursor[cv]] = cw
				cursor[cv]++
			}
		}
	}
	return c, compOf
}

// reachable computes, for every component, the total code size reachable
// from it (itself included), saturating at cap. Component IDs are in
// reverse topological order, so walking them in ascending order visits
// every callee before its callers. A component is sealed when each of
// its callees has exactly one caller and is itself sealed; its reach is
// then its own size plus its callees' reaches, exactly. Every other
// component runs its own capped depth-first search (an epoch array
// avoids reallocation) that adds a sealed component's reach when it pops
// one and never descends into it.
func (c *condensation) reachable(cap uint64) ([]uint64, []bool) {
	reach := make([]uint64, c.n)
	sat := make([]bool, c.n)
	sealed := make([]bool, c.n)
	callers := make([]int32, c.n)
	for _, w := range c.edges {
		callers[w]++
	}
	epoch := make([]int32, c.n)
	for i := range epoch {
		epoch[i] = -1
	}
	var stack []int32
	for v := 0; v < c.n; v++ {
		acc := c.size[v]
		sealed[v] = true
		for _, w := range c.edges[c.edgeStart[v]:c.edgeStart[v+1]] {
			if callers[w] != 1 || !sealed[w] {
				sealed[v] = false
				break
			}
			acc += reach[w]
		}
		if !sealed[v] {
			acc = 0
			stack = append(stack[:0], int32(v))
			epoch[v] = int32(v)
			for len(stack) > 0 && acc < cap {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if sealed[u] {
					acc += reach[u] // u != v: v is not sealed
					continue
				}
				acc += c.size[u]
				for _, w := range c.edges[c.edgeStart[u]:c.edgeStart[u+1]] {
					if epoch[w] != int32(v) {
						epoch[w] = int32(v)
						stack = append(stack, w)
					}
				}
			}
		}
		reach[v] = acc
		sat[v] = acc >= cap
	}
	return reach, sat
}

// excluder answers "does the code reachable from father, never entering
// child, exceed the threshold?" queries on the condensation.
type excluder struct {
	c     *condensation
	epoch []int32
	gen   int32
	stack []int32
}

func newExcluder(c *condensation) *excluder {
	e := &excluder{c: c, epoch: make([]int32, c.n)}
	for i := range e.epoch {
		e.epoch[i] = -1
	}
	return e
}

// exceeds reports whether the bytes reachable from father while skipping
// the child component exceed the threshold. The search stops as soon as
// the threshold is crossed, bounding the work per query.
func (e *excluder) exceeds(father, child int32, threshold uint64) bool {
	e.gen++
	gen := e.gen
	var acc uint64
	e.stack = append(e.stack[:0], father)
	e.epoch[father] = gen
	e.epoch[child] = gen // pre-marked: never entered
	for len(e.stack) > 0 {
		u := e.stack[len(e.stack)-1]
		e.stack = e.stack[:len(e.stack)-1]
		acc += e.c.size[u]
		if acc > threshold {
			return true
		}
		for _, w := range e.c.edges[e.c.edgeStart[u]:e.c.edgeStart[u+1]] {
			if e.epoch[w] != gen {
				e.epoch[w] = gen
				e.stack = append(e.stack, w)
			}
		}
	}
	return false
}
