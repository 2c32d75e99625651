package workloads_test

import (
	"testing"

	"hprefetch/internal/isa"
	"hprefetch/internal/loader"
	"hprefetch/internal/workloads"
)

// TestPrunedStreamMatchesFull: for every workload, an engine over
// Build's pruned program emits the same events, with the same request
// and stage attribution, as an engine over Link's whole program for
// 200k instructions. The cut sits exactly one past the highest function
// reachable from the request loop, and the pruned program keeps the
// whole program's text size and function count, and answers InFunc as
// the whole program's layout does at both edges of every function.
func TestPrunedStreamMatchesFull(t *testing.T) {
	const budget = 200_000
	for _, name := range workloads.AllSorted() {
		b, err := workloads.Build(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		l, err := workloads.Link(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pruned, full := b.Loaded.Prog, l.Prog
		limit := 0
		for id, ok := range reachable(full) {
			if ok {
				limit = id + 1
			}
		}
		if pruned.NumFuncs() != limit {
			t.Errorf("%s: pruned program keeps %d functions, want %d (1 + highest reachable ID)", name, pruned.NumFuncs(), limit)
		}
		if pruned.TextFuncs() != full.NumFuncs() || pruned.TextSize != full.TextSize {
			t.Errorf("%s: pruned program reports %d functions in %d bytes, whole program %d in %d",
				name, pruned.TextFuncs(), pruned.TextSize, full.NumFuncs(), full.TextSize)
		}
		for id := range full.Funcs {
			f := &full.Funcs[id]
			end := f.Addr + isa.Addr(f.Size)
			for _, a := range []isa.Addr{f.Addr - 1, f.Addr, end - 1, end} {
				if _, ok := full.FuncAt(a); pruned.InFunc(a) != ok {
					t.Fatalf("%s: InFunc(%v) = %v, whole layout says %v", name, a, !ok, ok)
				}
			}
		}
		got, want := b.NewEngine(), b.EngineOver(loader.LoadSegment(full, l.Segment))
		for i := 0; got.Instructions() < budget; i++ {
			g, w := got.Next(), want.Next()
			if g != w {
				t.Fatalf("%s: event %d differs: pruned %+v, whole %+v", name, i, g, w)
			}
			if got.CurrentRequest() != want.CurrentRequest() || got.Stage() != want.Stage() || got.Depth() != want.Depth() {
				t.Fatalf("%s: event %d: attribution differs", name, i)
			}
		}
		got.Release()
		want.Release()
	}
}
