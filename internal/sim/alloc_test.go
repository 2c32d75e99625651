package sim_test

import (
	"math"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"hprefetch/internal/isa"
	_ "hprefetch/internal/microsvc" // registers chain-burst
	"hprefetch/internal/prefetch"
	"hprefetch/internal/sim"
	"hprefetch/internal/tracefile"
	"hprefetch/internal/workloads"
)

const (
	allocWarm = 2_000_000
	allocRun  = 50_000
	allocRuns = 10
)

// recordReplay records w's stream, long enough for the allocation
// checks, and loads it for replay.
func recordReplay(t *testing.T, w string, built *workloads.Built) *tracefile.Loaded {
	t.Helper()
	path := filepath.Join(t.TempDir(), w+".hpt")
	need := uint64(allocWarm + (allocRuns+1)*allocRun + allocRun)
	meta := tracefile.Meta{Workload: w, Seed: built.Workload.TraceSeed, TargetInstructions: need}
	if _, err := tracefile.Record(path, built.NewEngine(), meta, need, tracefile.TailEvents, tracefile.Options{}); err != nil {
		t.Fatal(err)
	}
	l, err := tracefile.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// steadyAllocs warms a machine over src and returns the allocations of
// one further allocRun-instruction Run, averaged over allocRuns.
func steadyAllocs(t *testing.T, src sim.EventSource, pf func(*sim.Machine) prefetch.Prefetcher) (float64, *sim.Machine) {
	t.Helper()
	m, err := sim.New(sim.DefaultParams(), src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pf != nil {
		m.SetPrefetcher(pf(m))
	}
	if err := m.Run(allocWarm); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(allocRuns, func() {
		if err := m.Run(allocRun); err != nil {
			t.Fatal(err)
		}
	})
	return allocs, m
}

// TestSteadyStateRunAllocatesNothing pins the single event path as
// allocation-free: once warm, a Run over a live engine (refilling the
// machine's window), over a live engine read ahead (recycling chunks
// between two goroutines, or filling inline once the budget is spent)
// or over a replayed trace (one zero-copy window) must not allocate at
// all.
func TestSteadyStateRunAllocatesNothing(t *testing.T) {
	for _, w := range []string{"gin", "chain-burst"} {
		built, err := workloads.Build(w)
		if err != nil {
			t.Fatal(err)
		}
		loaded := recordReplay(t, w, built)
		for _, c := range []struct {
			name string
			src  func() sim.EventSource
		}{
			{"live", func() sim.EventSource { return built.NewEngine() }},
			{"live read-ahead", func() sim.EventSource { return sim.NewReadAhead(built.NewEngine(), math.MaxUint64) }},
			{"live read-ahead past its budget", func() sim.EventSource { return sim.NewReadAhead(built.NewEngine(), allocWarm/2) }},
			{"replay", func() sim.EventSource { return loaded.Replay() }},
		} {
			src := c.src()
			if a, _ := steadyAllocs(t, src, nil); a != 0 {
				t.Errorf("%s/FDIP/%s: %.1f allocations per %d-instruction Run, want 0", w, c.name, a, allocRun)
			}
			if ra, ok := src.(*sim.ReadAhead); ok {
				ra.Close()
			}
		}
	}
}

// TestReadAheadRecyclesChunks: a ReadAhead takes its chunks from the
// ones the last one closed, so starting and closing one allocates a
// small fraction of a chunk set.
func TestReadAheadRecyclesChunks(t *testing.T) {
	built, err := workloads.Build("gin")
	if err != nil {
		t.Fatal(err)
	}
	eng := built.NewEngine()
	ra := sim.NewReadAhead(eng, math.MaxUint64)
	m, err := sim.New(sim.DefaultParams(), ra, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(allocWarm); err != nil {
		t.Fatal(err)
	}
	ra.Close()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	const cycles = 20
	for range cycles {
		// Each producer fills one chunk of the warm engine and stops.
		sim.NewReadAhead(eng, eng.Instructions()+1).Close()
	}
	runtime.ReadMemStats(&ms)
	chunkSet := uint64(3 * sim.DefaultReadAheadChunk * (unsafe.Sizeof(isa.BlockEvent{}) + 8 + 1 + 8))
	if per := (ms.TotalAlloc - before) / cycles; per > chunkSet/16 {
		t.Errorf("a ReadAhead started and closed allocates %d bytes, want at most %d (1/16 of its chunks)", per, chunkSet/16)
	}
}

// flood is a stub prefetcher that, on every retired event, requests
// distinct blocks until the prefetch queue is full and then one more,
// so the queue's ring wraps and every drain and drop path runs.
type flood struct {
	m    *sim.Machine
	next isa.Block
}

func (f *flood) Name() string { return "flood" }
func (f *flood) OnRetire(ev *isa.BlockEvent) {
	for full := false; !full; {
		full = f.m.PrefetchSpace() == 0
		f.next++
		f.m.Prefetch(ev.Block() + 1 + f.next%4096)
	}
}
func (f *flood) OnResteer()                     {}
func (f *flood) OnDemandMiss(isa.Block, uint64) {}
func (f *flood) StorageBits() int               { return 0 }
func (f *flood) Release()                       {}

// TestPrefetchQueueFloodAllocatesNothing floods Prefetch past
// PFQueueEntries on every retired event: the queue is a fixed ring, so
// filling, draining and dropping never allocate.
func TestPrefetchQueueFloodAllocatesNothing(t *testing.T) {
	built, err := workloads.Build("gin")
	if err != nil {
		t.Fatal(err)
	}
	a, m := steadyAllocs(t, built.NewEngine(), func(m *sim.Machine) prefetch.Prefetcher {
		return &flood{m: m}
	})
	if a != 0 {
		t.Errorf("flooded prefetch queue: %.1f allocations per %d-instruction Run, want 0", a, allocRun)
	}
	if m.Stats().PFDropped == 0 {
		t.Fatal("the flood never overflowed the prefetch queue")
	}
}
