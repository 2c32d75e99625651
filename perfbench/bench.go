package main

import (
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hprefetch/internal/harness"
)

// env is what a workload's set-up may use.
type env struct {
	seed  uint64
	rng   *rand.Rand
	nproc int
	// dir holds the run's scratch files.
	dir string
	// maxOps is how many operations the run's per-operation records are
	// allocated for.
	maxOps int
	// speed measures the host between timed sections.
	speed *speedometer
}

// instance is a set-up workload, ready to run timed operations.
type instance interface {
	// clients is the number of closed-loop clients.
	clients() int
	// op runs operation id for a client and returns the simulated
	// instructions it covered. A non-nil error marks it failed. Ids are
	// unique and, for a single client, consecutive.
	op(client int, id int64, sp span) (uint64, error)
	// verify checks outputs too costly to check inside the timed loop,
	// setting err on every record that fails.
	verify(recs []opRecord, sp span)
	// extras are the end-to-end results that apply to this workload only.
	extras() map[string]float64
	// layers are the per-layer metrics this workload's operations measure
	// since the last reset.
	layers() map[string]float64
	reset()
	close()
}

// workloadDef is one benchmark workload; BENCHMARK.json says why it is
// measured.
type workloadDef struct {
	name string
	// limit is the operation latency limit; a failed operation misses it.
	limit time.Duration
	// block is how long the clients run between two measurements of the
	// host's speed; zero measures around every operation.
	block time.Duration
	// parallel marks a workload whose operations keep every processor
	// busy, so the host's speed is measured on all of them at once.
	parallel bool
	// opsPerSec bounds how many operations a second the workload
	// completes, with room for a server several times faster. Per-operation
	// records are allocated for that many before the timed phase, so the
	// live heap does not grow with the operations a run completes.
	opsPerSec int
	setup     func(e *env, sp span) (instance, error)
}

// threads is how many threads the speedometer measures for w.
func (w workloadDef) threads(nproc int) int {
	if w.parallel {
		return nproc
	}
	return 1
}

// allWorkloads are the workloads this program can run, in report order.
// Serve-jobs keeps both processors busy with its clients and workers,
// fleet-sweep with its two backends: over seven interleaved pairs of
// fleet-sweep runs, measuring the host on both processors rather than one
// cut the spread of op_tail_ms from 0.12 to 0.08 of its median and that
// of ops_per_s from 0.08 to 0.04.
var allWorkloads = []workloadDef{
	{"live-run", time.Second, 0, false, 64, setupLiveRun},
	{"replay-sweep", 3 * time.Second, 0, false, 64, setupReplaySweep},
	{"serve-jobs", 250 * time.Millisecond, 250 * time.Millisecond, true, 2048, setupServeJobs},
	{"fleet-sweep", time.Second, 0, true, 64, setupFleetSweep},
}

// workloadByName finds a workload this program can run.
func workloadByName(name string) (workloadDef, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// phaseResult is one timed phase of closed-loop operations.
type phaseResult struct {
	recs []opRecord
	// elapsed is the phase's wall time without calibration; scaled is
	// the same time at the reference speed.
	elapsed, scaled time.Duration
	alloc           uint64
	// peak is the live heap's peak and collections the number of
	// collections it is taken over.
	peak        uint64
	collections int
}

// runPhase runs inst's clients in a closed loop for d: each client starts
// its next operation when the previous one ends. The phase is cut into
// blocks of at least one operation per client and about block long, with
// the clients idle at each cut, where the speedometer measures the host;
// an operation's scale is the mean of the measurements around its block.
// The phase's records are allocated for maxOps operations up front.
func runPhase(inst instance, d, block time.Duration, maxOps int, tr *tracer, nextOp *atomic.Int64, sm *speedometer) phaseResult {
	ph := phaseResult{recs: make([]opRecord, 0, maxOps)}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	stopPeak := watchHeap()

	end := time.Now().Add(d)
	before := sm.scale()
	for time.Now().Before(end) {
		t0 := time.Now()
		recs := runBlock(inst, t0.Add(block), tr, nextOp)
		wall := time.Since(t0)
		after := sm.scale()
		f := (before + after) / 2
		for i := range recs {
			recs[i].scale = f
		}
		ph.recs = append(ph.recs, recs...)
		ph.elapsed += wall
		ph.scaled += time.Duration(float64(wall) * f)
		before = after
	}
	runtime.ReadMemStats(&ms1)
	ph.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	ph.peak, ph.collections = stopPeak()
	return ph
}

// runnerCounts accumulates lookups in the harness Runner.
type runnerCounts struct{ served, calls uint64 }

// add counts st's lookups: hits and shared waits are served from the
// Runner, misses simulate.
func (c *runnerCounts) add(st harness.RunnerStats) {
	c.served += st.Hits + st.SharedWaits
	c.calls += st.Hits + st.SharedWaits + st.Misses
}

// ratio is the share of lookups the Runner served.
func (c runnerCounts) ratio() float64 {
	if c.calls == 0 {
		return 0
	}
	return float64(c.served) / float64(c.calls)
}

// runBlock runs one operation per client, then more until deadline: no
// client starts one after it, and the block ends when the operations in
// flight finish.
func runBlock(inst instance, deadline time.Time, tr *tracer, nextOp *atomic.Int64) []opRecord {
	var mu sync.Mutex
	var recs []opRecord
	var wg sync.WaitGroup
	for c := 0; c < inst.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for first := true; first || time.Now().Before(deadline); first = false {
				id := nextOp.Add(1)
				sp := tr.root("op", id)
				t0 := time.Now()
				instr, err := inst.op(c, id, sp)
				lat := time.Since(t0)
				sp.end()
				mu.Lock()
				recs = append(recs, opRecord{id: id, lat: lat, instr: instr, err: err})
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return recs
}

// The peak heap is read from two runtime metrics: the bytes of heap
// objects the latest garbage collection found live, which unlike the
// heap's total does not depend on when collections happen to run, and
// the count of completed collections.
const (
	liveHeap = "/gc/heap/live:bytes"
	gcCycles = "/gc/cycles/total:gc-cycles"
)

// peakQuantile is the share of the phase's collections whose live heap
// the reported peak covers. The very highest depends on which operations
// happened to be in flight when one collection ran: over ten fleet-sweep
// runs it spread by 0.13 of its median.
const peakQuantile = 0.95

// watchHeap records the live heap after every collection, checking every
// millisecond, until the returned stop function is called; stop waits
// for the sampler to exit and returns the peakQuantile quantile of the
// recorded values and how many there are.
func watchHeap() (stop func() (peak uint64, collections int)) {
	sample := []metrics.Sample{{Name: liveHeap}, {Name: gcCycles}}
	// Allocated up front, like the other per-phase records.
	lives := make([]uint64, 0, 1<<14)
	var last uint64
	read := func() {
		metrics.Read(sample)
		if c := sample[1].Value.Uint64(); c != last || len(lives) == 0 {
			last = c
			lives = append(lives, sample[0].Value.Uint64())
		}
	}
	read()
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return func() (uint64, int) {
		close(done)
		<-exited
		slices.Sort(lives)
		return lives[int(math.Ceil(peakQuantile*float64(len(lives))))-1], len(lives)
	}
}
