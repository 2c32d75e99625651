package trace_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"hprefetch/internal/loader"
	"hprefetch/internal/trace"
	"hprefetch/internal/workloads"
)

// TestEnginesShareBodies: engines over one program share its body
// table, publishing bodies while the others read them. Eight of them
// running at once must each emit exactly the stream of an engine with
// the same seed over a separately loaded copy of the program, whose
// table nobody else touches.
func TestEnginesShareBodies(t *testing.T) {
	built, err := workloads.Build("gin")
	if err != nil {
		t.Fatal(err)
	}
	linked, err := workloads.Link("gin")
	if err != nil {
		t.Fatal(err)
	}
	const engines, events = 8, 100_000
	own := make([]*loader.Loaded, engines)
	for i := range own {
		if own[i], err = loader.Load(linked.Image); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, engines)
	for i := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seed := uint64(i + 1)
			shared, alone := trace.New(built.Loaded, seed), trace.New(own[i], seed)
			for n := range events {
				if a, b := shared.Next(), alone.Next(); a != b {
					errs[i] = fmt.Errorf("seed %d, event %d: shared program emits %+v, own copy %+v", seed, n, a, b)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// BenchmarkEngineFreshRun starts a fresh engine over built gin for each
// iteration and releases it after, as every simulation does, and runs
// it for a short and a perfbench live-run window. Unlike
// BenchmarkEngineNext, which keeps one engine for all of b.N, it sees
// what starting an engine costs.
func BenchmarkEngineFreshRun(b *testing.B) {
	built, err := workloads.Build("gin")
	if err != nil {
		b.Fatal(err)
	}
	for _, window := range []uint64{60_000, 750_000} {
		b.Run(fmt.Sprintf("instr=%d", window), func(b *testing.B) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			var instrs uint64
			b.ResetTimer()
			for range b.N {
				e := built.NewEngine()
				for e.Instructions() < window {
					e.Next()
				}
				instrs += e.Instructions()
				e.Release()
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
			b.ReportMetric(float64(ms.TotalAlloc-before)/float64(instrs), "B/instr")
		})
	}
}
