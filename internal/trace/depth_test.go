package trace

import (
	"testing"

	"hprefetch/internal/isa"
	"hprefetch/internal/loader"
	"hprefetch/internal/program"
)

// recursiveProgram hand-builds a linked two-function program whose
// second function always calls itself: entry → f1 → f1 → ... The hot
// call graph of generated programs is acyclic, so unbounded recursion
// can only come from a hostile or corrupted image — exactly what the
// maxCallDepth safety net exists for.
func recursiveProgram() *program.Program {
	const base = isa.Addr(0x400000)
	p := &program.Program{
		Name:         "recursion",
		Seed:         99,
		Entry:        0,
		TextBase:     base,
		TextSize:     64,
		RequestTypes: 1,
		TypeWeights:  []float64{1},
		Funcs: []program.Function{
			// entry: always calls f1 once, then returns (loops forever).
			{Addr: base, Size: 32, FirstCall: 0, NumCalls: 1, Stage: program.NoStage},
			// f1: always calls itself.
			{Addr: base + 32, Size: 32, FirstCall: 1, NumCalls: 1, Stage: program.NoStage},
		},
		Calls: []program.Call{
			{Off: 8, Callee: 1, Prob: 0xFFFF, Repeat: 1},
			{Off: 4, Callee: 1, Prob: 0xFFFF, Repeat: 1},
		},
	}
	p.BuildAddrIndex()
	return p
}

// TestCallDepthSafetyNet drives unbounded recursion into the engine and
// asserts the safety net holds: depth never exceeds maxCallDepth, the
// cap is actually reached (the test exercises the boundary), and the
// event stream keeps flowing — the recursion unwinds and the request
// loop restarts instead of the engine hanging or overflowing.
func TestCallDepthSafetyNet(t *testing.T) {
	ld := &loader.Loaded{Prog: recursiveProgram(), Tags: loader.NewTagSet(nil)}
	e := New(ld, 7)

	maxSeen := 0
	for i := 0; i < 400_000; i++ {
		ev := e.Next()
		if d := e.Depth(); d > maxSeen {
			maxSeen = d
		}
		if e.Depth() > maxCallDepth {
			t.Fatalf("event %d: depth %d exceeds maxCallDepth %d", i, e.Depth(), maxCallDepth)
		}
		if ev.NumInstr == 0 {
			t.Fatalf("event %d: empty block event", i)
		}
	}
	if maxSeen != maxCallDepth {
		t.Errorf("max depth %d, want the cap %d to be reached", maxSeen, maxCallDepth)
	}
	if e.Requests() < 2 {
		t.Errorf("requests = %d: stream did not continue past the recursion cap", e.Requests())
	}
	if e.Instructions() == 0 {
		t.Error("no instructions emitted")
	}
}
