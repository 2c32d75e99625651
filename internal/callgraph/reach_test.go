package callgraph

import (
	"slices"
	"testing"
	"testing/quick"

	"hprefetch/internal/isa"
	"hprefetch/internal/xrand"
)

// referenceReachable is the plain capped search: one depth-first search
// per component that shares no work with any other. The sealed-subtree
// search must agree with it on every saturation flag, every unsaturated
// size and the entry set.
func referenceReachable(c *condensation, cap uint64) ([]uint64, []bool) {
	reach := make([]uint64, c.n)
	sat := make([]bool, c.n)
	epoch := make([]int32, c.n)
	for i := range epoch {
		epoch[i] = -1
	}
	var stack []int32
	for v := 0; v < c.n; v++ {
		var acc uint64
		stack = append(stack[:0], int32(v))
		epoch[v] = int32(v)
		for len(stack) > 0 && acc < cap {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			acc += c.size[u]
			for _, w := range c.edges[c.edgeStart[u]:c.edgeStart[u+1]] {
				if epoch[w] != int32(v) {
					epoch[w] = int32(v)
					stack = append(stack, w)
				}
			}
		}
		reach[v] = acc
		sat[v] = acc >= cap
	}
	return reach, sat
}

// sharedTreeGraph builds a random call graph in the shape of the
// generator's cold and orphan code: a few trees whose roots many upper
// nodes call, under a layer of upper nodes that call each other, the
// tree roots and now and then a tree interior node (which unseals that
// tree's ancestors). A few back edges fold nodes into cycles, inside
// trees as well as among the upper nodes. It returns the graph and how
// many tree roots have more than one caller.
func sharedTreeGraph(seed uint64) (*Graph, int) {
	rng := xrand.New(seed)
	upper := rng.Range(3, 40)
	var sizes []uint32
	edges := map[int][]int{}
	node := func() int {
		sizes = append(sizes, uint32(rng.Range(1, 64))<<10)
		return len(sizes) - 1
	}
	for i := 0; i < upper; i++ {
		node()
	}
	var roots, interior []int
	for t := rng.Range(1, 6); t > 0; t-- {
		root := node()
		roots = append(roots, root)
		tree := []int{root}
		for n := rng.Range(1, 40); len(tree) < n; {
			parent := tree[rng.IntN(len(tree))]
			child := node()
			edges[parent] = append(edges[parent], child)
			tree = append(tree, child)
			interior = append(interior, child)
			if rng.Bool(0.03) {
				edges[child] = append(edges[child], parent) // recursion
			}
		}
	}
	for v := 0; v < upper; v++ {
		for e := rng.IntN(4); e > 0 && v+1 < upper; e-- {
			edges[v] = append(edges[v], v+1+rng.IntN(upper-v-1))
		}
		for e := rng.IntN(4); e > 0; e-- {
			edges[v] = append(edges[v], roots[rng.IntN(len(roots))])
		}
		if len(interior) > 0 && rng.Bool(0.1) {
			edges[v] = append(edges[v], interior[rng.IntN(len(interior))])
		}
		if v > 0 && rng.Bool(0.05) {
			edges[v] = append(edges[v], rng.IntN(v)) // cycle among upper nodes
		}
	}
	// Deduplicate, as FromProgram does.
	for v, ws := range edges {
		slices.Sort(ws)
		edges[v] = slices.Compact(ws)
	}
	g := graphFromEdges(sizes, edges)
	shared := 0
	for _, r := range roots {
		if len(g.Callers(isa.FuncID(r))) > 1 {
			shared++
		}
	}
	return g, shared
}

func TestReachableMatchesReferenceOnSharedTrees(t *testing.T) {
	var shared, saturated, graphs int
	check := func(seed uint64) bool {
		g, s := sharedTreeGraph(seed)
		graphs++
		shared += s
		exact := bruteReach(g)
		largest := slices.Max(exact)
		rng := xrand.New(seed ^ 0x5EA1)
		threshold := uint64(rng.Range(1, int(largest>>10)+1)) << 10
		// The threshold can round up past the largest reach; a cap never
		// goes below the threshold (Analyze rejects that).
		caps := []uint64{max(largest+1, threshold), max(2*largest, threshold)}
		if largest > threshold {
			caps = append(caps, threshold, threshold+uint64(rng.IntN(int(largest-threshold))))
		}
		for _, cap := range caps {
			opt := Options{Threshold: threshold, Cap: cap}
			got, err := Analyze(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := analyze(g, opt, referenceReachable)
			if err != nil {
				t.Fatal(err)
			}
			for v := range exact {
				if got.Saturated[v] != want.Saturated[v] || got.Saturated[v] != (exact[v] >= cap) {
					t.Logf("seed %d cap %d: node %d saturated %v, reference %v, exact reach %d",
						seed, cap, v, got.Saturated[v], want.Saturated[v], exact[v])
					return false
				}
				if got.Saturated[v] {
					saturated++
					if got.Reach[v] < cap {
						t.Logf("seed %d cap %d: saturated node %d reach %d below the cap", seed, cap, v, got.Reach[v])
						return false
					}
				} else if got.Reach[v] != want.Reach[v] || got.Reach[v] != exact[v] {
					t.Logf("seed %d cap %d: node %d reach %d, reference %d, exact %d",
						seed, cap, v, got.Reach[v], want.Reach[v], exact[v])
					return false
				}
			}
			if !slices.Equal(got.Entries, want.Entries) {
				t.Logf("seed %d cap %d: entries %v, reference %v", seed, cap, got.Entries, want.Entries)
				return false
			}
			if cap > largest && !slices.Equal(got.Entries, bruteEntries(g, threshold)) {
				t.Logf("seed %d cap %d: entries %v, brute force %v", seed, cap, got.Entries, bruteEntries(g, threshold))
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	// The property only bites if the graphs share trees and saturate.
	if shared < graphs || saturated == 0 {
		t.Fatalf("%d graphs: %d shared tree roots, %d saturated nodes", graphs, shared, saturated)
	}
}
