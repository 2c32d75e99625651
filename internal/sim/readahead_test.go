package sim_test

// Read-ahead tests: sim.ReadAhead must deliver exactly its source's
// stream, wherever its chunk boundaries fall, and its producer must
// never outlive the run. That read-ahead runs measure what direct runs
// measure is checked with the window layouts in window_test.go.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"hprefetch/internal/harness"
	"hprefetch/internal/isa"
	"hprefetch/internal/loader"
	"hprefetch/internal/sim"
	"hprefetch/internal/trace"
	"hprefetch/internal/tracefile"
	"hprefetch/internal/workloads"
)

// TestReadAheadDeliversSourceStream: filled in requests of random
// sizes, a ReadAhead delivers exactly its source's stream, and reports
// the source's Instructions and Requests as of the last delivered
// event, whether the producer still runs or the budget is spent.
func TestReadAheadDeliversSourceStream(t *testing.T) {
	const events = 60_000
	for _, w := range []string{"gin", "chain-burst"} {
		built, err := workloads.Build(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1, 5, sim.DefaultReadAheadChunk} {
			for _, budget := range []uint64{0, 50_000, math.MaxUint64} {
				name := fmt.Sprintf("%s/chunk-%d/budget-%d", w, chunk, budget)
				restore := sim.SetReadAhead(true, chunk)
				ref := built.NewEngine()
				ra := sim.NewReadAhead(built.NewEngine(), budget)
				if ra.Instructions() != ref.Instructions() || ra.Requests() != ref.Requests() {
					t.Fatalf("%s: before any fill Instructions/Requests %d/%d, the source reports %d/%d",
						name, ra.Instructions(), ra.Requests(), ref.Instructions(), ref.Requests())
				}
				rng := rand.New(rand.NewPCG(1, uint64(chunk)))
				got, want := newWindow(600), newWindow(600)
				for n := 0; n < events; {
					k := 1 + rng.IntN(600)
					a := ra.Fill(got.ev[:k], got.req[:k], got.done[:k], got.reqs[:k])
					b := ref.Fill(want.ev[:k], want.req[:k], want.done[:k], want.reqs[:k])
					if a != k || b != k {
						t.Fatalf("%s: filled %d and %d of %d events", name, a, b, k)
					}
					if !got.equal(want, k) {
						t.Fatalf("%s: events %d..%d differ from the source's", name, n, n+k)
					}
					if ra.Instructions() != ref.Instructions() || ra.Requests() != ref.Requests() {
						t.Fatalf("%s: after %d events Instructions/Requests %d/%d, the source reports %d/%d",
							name, n+k, ra.Instructions(), ra.Requests(), ref.Instructions(), ref.Requests())
					}
					n += k
				}
				ra.Close()
				restore()
			}
		}
	}
}

// window is a test-side struct-of-arrays event buffer.
type window struct {
	ev   []isa.BlockEvent
	req  []uint64
	done []bool
	reqs []uint64
}

func newWindow(n int) window {
	return window{make([]isa.BlockEvent, n), make([]uint64, n), make([]bool, n), make([]uint64, n)}
}

func (w window) equal(o window, n int) bool {
	return slices.Equal(w.ev[:n], o.ev[:n]) && slices.Equal(w.req[:n], o.req[:n]) &&
		slices.Equal(w.done[:n], o.done[:n]) && slices.Equal(w.reqs[:n], o.reqs[:n])
}

// TestReadAheadTruncatedStream: a torn trace read ahead fails with the
// error a direct read reports, so Err passes through.
func TestReadAheadTruncatedStream(t *testing.T) {
	path, prefix := tornTrace(t)
	for _, chunk := range []int{7, sim.DefaultReadAheadChunk} {
		restore := sim.SetReadAhead(true, chunk)
		loaded, err := tracefile.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		ra := sim.NewReadAhead(loaded.Replay(), math.MaxUint64)
		m, err := sim.New(sim.DefaultParams(), ra, nil)
		if err != nil {
			t.Fatal(err)
		}
		err = m.Run(1_000_000)
		ra.Close()
		restore()
		if !errors.Is(err, tracefile.ErrTruncated) || !strings.HasPrefix(err.Error(), prefix) {
			t.Errorf("chunk %d: Run error %v, want %q... wrapping ErrTruncated", chunk, err, prefix)
		}
	}
}

// panicAt is the event at which the readahead-panic workload's engine
// panics.
const panicAt = 30_000

// panicEngine is a live engine that panics once asked for event
// panicAt. It records the largest fill it was asked for.
type panicEngine struct {
	workloads.Engine
	events, maxFill int
}

// lastPanicEngine is the engine the readahead-panic workload built last.
var lastPanicEngine *panicEngine

func (p *panicEngine) Fill(ev []isa.BlockEvent, req []uint64, done []bool, reqs []uint64) int {
	p.maxFill = max(p.maxFill, len(ev))
	if p.events+len(ev) > panicAt {
		panic(fmt.Sprintf("engine panic at event %d", panicAt))
	}
	n := p.Engine.Fill(ev, req, done, reqs)
	p.events += n
	return n
}

// panicWorkload registers readahead-panic, gin with a panicEngine.
var panicWorkload = sync.OnceValue(func() string {
	w, err := workloads.Get("gin")
	if err != nil {
		panic(err)
	}
	w.Name = "readahead-panic"
	w.EngineFactory = func(ld *loader.Loaded, seed uint64) workloads.Engine {
		lastPanicEngine = &panicEngine{Engine: trace.New(ld, seed)}
		return lastPanicEngine
	}
	if err := workloads.Register(w); err != nil {
		panic(err)
	}
	return w.Name
})

// settle waits until the process runs no more goroutines than base,
// and fails with a dump of them if that takes too long.
func settle(t *testing.T, what string, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 1) //nolint:errcheck // diagnostics only
			t.Fatalf("after %s: %d goroutines, %d before", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReadAheadProducerExits: a read-ahead run's producer exits however
// the run ends — normally, cancelled before it starts, at a deadline
// mid-run, or by a panic in its engine, which comes back as a transient
// harness error instead of killing the process.
func TestReadAheadProducerExits(t *testing.T) {
	base := runtime.NumGoroutine()

	rc := windowRunConfig()
	if _, err := harness.RunUncached("gin", harness.SchemeFDIP, rc); err != nil {
		t.Fatal(err)
	}
	settle(t, "a normal run", base)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rc.Ctx = ctx
	if _, err := harness.RunUncached("chain-burst", harness.SchemeHier, rc); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: %v, want context.Canceled", err)
	}
	settle(t, "a cancelled run", base)

	ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	rc.Ctx = ctx
	rc.MeasureInstr = 1 << 40
	if _, err := harness.RunUncached("gin", harness.SchemeHier, rc); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run past its deadline: %v, want context.DeadlineExceeded", err)
	}
	settle(t, "a run past its deadline", base)

	_, err := harness.RunUncached(panicWorkload(), harness.SchemeFDIP, windowRunConfig())
	if !harness.IsTransient(err) || !strings.Contains(err.Error(), fmt.Sprintf("panicked: engine panic at event %d", panicAt)) {
		t.Fatalf("run whose engine panics: %v, want a transient error naming the panic", err)
	}
	if got := lastPanicEngine.maxFill; got != sim.DefaultReadAheadChunk {
		t.Errorf("the engine was asked for at most %d events per fill, want whole %d-event chunks: the harness did not read it ahead", got, sim.DefaultReadAheadChunk)
	}
	settle(t, "a run whose engine panicked", base)
}

// TestReadAheadPanicReachesMachine: a panic in the source surfaces on
// the goroutine that runs the machine (recover works there), with the
// source's value.
func TestReadAheadPanicReachesMachine(t *testing.T) {
	built, err := workloads.Build("gin")
	if err != nil {
		t.Fatal(err)
	}
	ra := sim.NewReadAhead(&panicEngine{Engine: built.NewEngine()}, math.MaxUint64)
	defer ra.Close()
	m, err := sim.New(sim.DefaultParams(), ra, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if v := recover(); v != fmt.Sprintf("engine panic at event %d", panicAt) {
			t.Fatalf("recovered %v, want the engine's panic", v)
		}
	}()
	m.Run(1 << 40) //nolint:errcheck // must panic
	t.Fatal("Run returned over a panicking source")
}

// TestReadAheadConcurrentRuns: read-ahead runs started from several
// goroutines at once each measure what a direct run measures. CI runs
// it under -race -count=10.
func TestReadAheadConcurrentRuns(t *testing.T) {
	rc := harness.DefaultRunConfig()
	rc.WarmInstr, rc.MeasureInstr = 50_000, 100_000
	type job struct {
		w string
		s harness.Scheme
	}
	var jobs []job
	for _, w := range []string{"gin", "chain-burst"} {
		for _, s := range []harness.Scheme{harness.SchemeFDIP, harness.SchemeHier} {
			jobs = append(jobs, job{w, s}, job{w, s})
		}
	}
	want := make([]string, len(jobs))
	restore := sim.SetReadAhead(false, sim.DefaultReadAheadChunk)
	for i, j := range jobs {
		res, err := harness.RunUncached(j.w, j.s, rc)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Stats.Digest()
	}
	restore()

	defer sim.SetReadAhead(true, 64)()
	got := make([]string, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := harness.RunUncached(j.w, j.s, rc)
			if err == nil {
				got[i] = res.Stats.Digest()
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, j := range jobs {
		if errs[i] != nil {
			t.Errorf("%s/%s: %v", j.w, j.s, errs[i])
		} else if got[i] != want[i] {
			t.Errorf("%s/%s: digest %s read ahead concurrently, %s direct", j.w, j.s, got[i], want[i])
		}
	}
}
