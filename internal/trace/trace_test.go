package trace

import (
	"testing"

	"hprefetch/internal/isa"
	"hprefetch/internal/linker"
	"hprefetch/internal/loader"
	"hprefetch/internal/program"
)

func loadTest(t *testing.T, seed uint64) *loader.Loaded {
	t.Helper()
	cfg := program.DefaultConfig()
	cfg.Name = "trace-test"
	cfg.Seed = seed
	cfg.OrphanFuncs = 100
	p, err := program.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := linker.Link(p, linker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return loader.LoadLinked(p, l.Image)
}

func TestStreamContiguity(t *testing.T) {
	ld := loadTest(t, 51)
	e := New(ld, 1)
	prev := e.Next()
	for i := 0; i < 200000; i++ {
		ev := e.Next()
		if prev.Target != ev.Addr {
			t.Fatalf("event %d: previous target %v != addr %v", i, prev.Target, ev.Addr)
		}
		if ev.NumInstr == 0 {
			t.Fatalf("event %d: empty region", i)
		}
		if ev.Addr.Block() != (ev.EndAddr() - 1).Block() {
			t.Fatalf("event %d: region %v+%d spans blocks", i, ev.Addr, ev.NumInstr)
		}
		if ev.Branch == isa.BrNone && ev.Target != ev.EndAddr() {
			t.Fatalf("event %d: sequential region with non-sequential target", i)
		}
		if ev.Branch != isa.BrNone && ev.BrPC != ev.EndAddr()-isa.InstrSize {
			t.Fatalf("event %d: branch PC %v not at region end %v", i, ev.BrPC, ev.EndAddr())
		}
		prev = ev
	}
}

func TestEventsStayInsideFunctions(t *testing.T) {
	ld := loadTest(t, 52)
	e := New(ld, 1)
	for i := 0; i < 100000; i++ {
		ev := e.Next()
		id, ok := ld.Prog.FuncAt(ev.Addr)
		if !ok {
			t.Fatalf("event %d at %v outside text", i, ev.Addr)
		}
		if id != ev.Func {
			t.Fatalf("event %d at %v attributed to func %d, layout says %d", i, ev.Addr, ev.Func, id)
		}
		end := ev.EndAddr() - 1
		if id2, ok := ld.Prog.FuncAt(end); !ok || id2 != id {
			t.Fatalf("event %d spans functions", i)
		}
	}
}

func TestTaggedOnlyOnCallRet(t *testing.T) {
	ld := loadTest(t, 53)
	e := New(ld, 1)
	taggedSeen := 0
	for i := 0; i < 300000; i++ {
		ev := e.Next()
		if ev.Tagged {
			taggedSeen++
			if !ev.Branch.IsCall() && ev.Branch != isa.BrRet {
				t.Fatalf("tagged event with branch kind %v", ev.Branch)
			}
			if !ld.Tags.Contains(ev.BrPC) {
				t.Fatalf("event tagged but %v not in tag set", ev.BrPC)
			}
		}
	}
	if taggedSeen == 0 {
		t.Error("no tagged instructions in 300k events; bundle tags never fire")
	}
}

func TestDeterminism(t *testing.T) {
	ld1 := loadTest(t, 54)
	ld2 := loadTest(t, 54)
	a, b := New(ld1, 9), New(ld2, 9)
	for i := 0; i < 100000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("streams diverged at event %d", i)
		}
	}
	// Different dynamic seeds must diverge quickly.
	c := New(ld1, 10)
	d := New(ld1, 11)
	same := 0
	for i := 0; i < 10000; i++ {
		if c.Next() == d.Next() {
			same++
		}
	}
	if same == 10000 {
		t.Error("different seeds produced identical streams")
	}
}

func TestRequestsProgress(t *testing.T) {
	ld := loadTest(t, 55)
	e := New(ld, 1)
	for i := 0; i < 500000; i++ {
		e.Next()
	}
	if e.Requests() < 3 {
		t.Fatalf("only %d requests in 500k events", e.Requests())
	}
	if e.Instructions() == 0 {
		t.Error("instruction counter stuck")
	}
}

func TestRequestTypeMixRoughlyZipf(t *testing.T) {
	ld := loadTest(t, 56)
	e := New(ld, 2)
	counts := make([]int, ld.Prog.RequestTypes)
	lastReq := uint64(0)
	for i := 0; i < 3000000 && e.Requests() < 300; i++ {
		e.Next()
		if e.Requests() != lastReq {
			lastReq = e.Requests()
			counts[e.CurrentType()]++
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total < 100 {
		t.Skipf("only %d requests completed", total)
	}
	// Type 0 has the largest weight; it must be the most frequent.
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[0]*2 {
			t.Errorf("type %d count %d dwarfs type 0 count %d despite Zipf mix",
				i, counts[i], counts[0])
		}
	}
}

func TestColdCodeNeverExecutes(t *testing.T) {
	ld := loadTest(t, 57)
	e := New(ld, 1)
	for i := 0; i < 300000; i++ {
		ev := e.Next()
		if ld.Prog.Func(ev.Func).Kind == program.KindCold {
			t.Fatalf("cold function %d executed", ev.Func)
		}
	}
}

func TestStageTracking(t *testing.T) {
	ld := loadTest(t, 58)
	e := New(ld, 1)
	seen := map[int16]bool{}
	for i := 0; i < 400000; i++ {
		e.Next()
		seen[e.Stage()] = true
	}
	for s := range ld.Prog.Stages {
		if !seen[int16(s)] {
			t.Errorf("stage %d never active in 400k events", s)
		}
	}
}

func TestCallReturnBalance(t *testing.T) {
	ld := loadTest(t, 59)
	e := New(ld, 1)
	depth := 0
	maxDepth := 0
	for i := 0; i < 500000; i++ {
		ev := e.Next()
		switch {
		case ev.Branch.IsCall():
			depth++
			if depth > maxDepth {
				maxDepth = depth
			}
		case ev.Branch == isa.BrRet:
			depth--
			if depth < 0 {
				t.Fatalf("return without call at event %d", i)
			}
		case ev.Branch == isa.BrJump:
			if depth != 0 {
				t.Fatalf("request restart at depth %d", depth)
			}
		}
	}
	if maxDepth < 4 {
		t.Errorf("max call depth only %d; call trees too shallow", maxDepth)
	}
	if maxDepth >= maxCallDepth {
		t.Errorf("call depth hit the safety limit %d", maxDepth)
	}
}

func BenchmarkEngineNext(b *testing.B) {
	cfg := program.DefaultConfig()
	cfg.Name = "trace-bench"
	cfg.Seed = 60
	p, err := program.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	l, err := linker.Link(p, linker.Options{})
	if err != nil {
		b.Fatal(err)
	}
	e := New(loader.LoadLinked(p, l.Image), 1)
	b.ResetTimer()
	var instr uint64
	for i := 0; i < b.N; i++ {
		ev := e.Next()
		instr += uint64(ev.NumInstr)
	}
	b.ReportMetric(float64(instr)/float64(b.N), "instr/event")
}

// TestReleasedBuffersReplayExactly: an engine started on a released
// engine's call stack and event queue emits exactly the stream of one
// that grew its own, and the released stack keeps no body alive.
func TestReleasedBuffersReplayExactly(t *testing.T) {
	ld := loadTest(t, 53)
	want := make([]isa.BlockEvent, 200_000)
	fresh := New(ld, 7)
	for i := range want {
		want[i] = fresh.Next()
	}
	// Release mid-request, with frames on the stack and events queued.
	other := New(ld, 9)
	for range 12_345 {
		other.Next()
	}
	stack := other.stack[:cap(other.stack)]
	other.Release()
	other.Release() // a second release does nothing
	for i := range stack {
		if stack[i].items != nil {
			t.Fatalf("released frame %d still points at a function body", i)
		}
	}
	again := New(ld, 7)
	if &again.stack[:1][0] != &stack[0] {
		t.Fatal("New did not take the released call stack")
	}
	for i, w := range want {
		if got := again.Next(); got != w {
			t.Fatalf("event %d on recycled buffers: %+v, on fresh ones %+v", i, got, w)
		}
	}
}
