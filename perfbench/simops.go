package main

import (
	"fmt"
	"math"
	"path/filepath"

	"hprefetch/internal/harness"
	"hprefetch/internal/workloads"
)

// build builds (or fetches the memoised) workload under a span.
func build(name string, sp span) error {
	s := sp.child("workloads.Build")
	_, err := workloads.Build(name)
	s.end()
	return err
}

// digestKey names one reference result.
func digestKey(workload string, scheme harness.Scheme, variant string) string {
	return workload + "/" + string(scheme) + variant
}

// speedupPct is the mean over workloads of Hierarchical IPC over FDIP
// IPC, in percent.
func speedupPct(ipc map[string]float64, names []string) float64 {
	var sum float64
	for _, w := range names {
		sum += ipc[digestKey(w, harness.SchemeHier, "")]/ipc[digestKey(w, harness.SchemeFDIP, "")] - 1
	}
	return 100 * sum / float64(len(names))
}

// liveRun is the live-run workload: each operation is one hpsim
// single-run process's work on a window 1/16 of hpsim's default (the
// README compares the two), a live Hierarchical run plus its live FDIP
// baseline through harness.RunUncached, cycling over the simulated
// workloads in a seeded order.
type liveRun struct {
	rc      harness.RunConfig
	order   []string
	refs    map[string]string
	speedup float64
}

// liveWorkloads are the simulated workloads of live-run: a small build
// with a hot loop, the largest build and footprint, and the
// microservice interleaver.
var liveWorkloads = []string{"gin", "tidb-tpcc", "chain-burst"}

// setupLiveRun builds the workloads and computes the replay digests every
// live operation must reproduce.
func setupLiveRun(e *env, sp span) (instance, error) {
	workloads.DropCache()
	rc := harness.DefaultRunConfig()
	rc.WarmInstr = 250_000 + 1000*uint64(e.rng.IntN(16))
	rc.MeasureInstr = 500_000
	l := &liveRun{rc: rc, refs: map[string]string{}}
	for _, i := range e.rng.Perm(len(liveWorkloads)) {
		l.order = append(l.order, liveWorkloads[i])
	}
	ipc := map[string]float64{}
	for _, w := range liveWorkloads {
		if err := build(w, sp); err != nil {
			return nil, err
		}
		path := filepath.Join(e.dir, w+harness.TraceExt)
		s := sp.child("harness.RecordTrace")
		_, err := harness.RecordTrace(w, path, rc)
		s.end()
		if err != nil {
			return nil, err
		}
		rcR := rc
		rcR.TracePath = path
		for _, sc := range []harness.Scheme{harness.SchemeHier, harness.SchemeFDIP} {
			s := sp.child("harness.RunUncached")
			res, err := harness.RunUncached(w, sc, rcR)
			s.end()
			if err != nil {
				return nil, err
			}
			l.refs[digestKey(w, sc, "")] = res.Stats.Digest()
			ipc[digestKey(w, sc, "")] = res.Stats.IPC()
		}
		harness.EvictTrace(path)
	}
	l.speedup = speedupPct(ipc, liveWorkloads)
	return l, nil
}

func (l *liveRun) clients() int { return 1 }

func (l *liveRun) op(_ int, id int64, sp span) (uint64, error) {
	w := l.order[id%int64(len(l.order))]
	var instr uint64
	for _, sc := range []harness.Scheme{harness.SchemeHier, harness.SchemeFDIP} {
		s := sp.child("harness.RunUncached")
		res, err := harness.RunUncached(w, sc, l.rc)
		s.end()
		if err != nil {
			return instr, err
		}
		instr += l.rc.WarmInstr + l.rc.MeasureInstr
		key := digestKey(w, sc, "")
		if got := res.Stats.Digest(); got != l.refs[key] {
			return instr, mismatch("live "+key+" vs replay", got, l.refs[key])
		}
	}
	return instr, nil
}

func (l *liveRun) verify([]opRecord, span) {}

func (l *liveRun) extras() map[string]float64 {
	return map[string]float64{"hier_speedup_pct": l.speedup}
}

func (l *liveRun) layers() map[string]float64 { return nil }
func (l *liveRun) reset()                     {}
func (l *liveRun) close()                     {}

// replayWorkloads are the traces replay-sweep replays.
var replayWorkloads = []string{"gin", "tidb-tpcc", "mysql-sysbench"}

// sweepRun is one run of a replay sweep.
type sweepRun struct {
	scheme   harness.Scheme
	governed bool
	sampled  bool
}

func (r sweepRun) variant() string {
	switch {
	case r.governed:
		return "+governed"
	case r.sampled:
		return "+sampled"
	}
	return ""
}

// replayRuns is one trace's share of a sweep: FDIP first, so the other
// schemes' speedups find their baseline in the Runner's memo.
var replayRuns = []sweepRun{
	{scheme: harness.SchemeFDIP},
	{scheme: harness.SchemeEFetch},
	{scheme: harness.SchemeMANA},
	{scheme: harness.SchemeEIP},
	{scheme: harness.SchemeHier},
	{scheme: harness.SchemeGHB, governed: true},
	{scheme: harness.SchemeHier, sampled: true},
}

// replaySweep is the replay-sweep workload: each operation is the work
// of a fresh `hpsim -sweep -tracedir` process over recorded traces.
type replaySweep struct {
	rc         harness.RunConfig
	sampleSeed int64
	paths      map[string]string
	order      []string
	refs       map[string]string
	speedup    float64
	sampleErr  float64
	runner     runnerCounts
}

// setupReplaySweep builds the workloads, records their traces and
// computes the live digests every replayed run must reproduce.
func setupReplaySweep(e *env, sp span) (instance, error) {
	workloads.DropCache()
	rc := harness.DefaultRunConfig()
	rc.WarmInstr = 100_000 + 1000*uint64(e.rng.IntN(16))
	rc.MeasureInstr = 250_000
	r := &replaySweep{rc: rc, paths: map[string]string{}, refs: map[string]string{}}
	for _, i := range e.rng.Perm(len(replayWorkloads)) {
		r.order = append(r.order, replayWorkloads[i])
	}
	r.sampleSeed = int64(e.rng.Uint64() >> 1)
	ipc := map[string]float64{}
	var errSum float64
	for _, w := range replayWorkloads {
		if err := build(w, sp); err != nil {
			return nil, err
		}
		path := filepath.Join(e.dir, w+harness.TraceExt)
		s := sp.child("harness.RecordTrace")
		_, err := harness.RecordTrace(w, path, rc)
		s.end()
		if err != nil {
			return nil, err
		}
		r.paths[w] = path
		for _, run := range replayRuns {
			rcL := r.config(run, "")
			s := sp.child("harness.RunUncached")
			res, err := harness.RunUncached(w, run.scheme, rcL)
			s.end()
			if err != nil {
				return nil, err
			}
			key := digestKey(w, run.scheme, run.variant())
			r.refs[key] = res.Stats.Digest()
			ipc[key] = res.Stats.IPC()
		}
		exact := ipc[digestKey(w, harness.SchemeHier, "")]
		errSum += math.Abs(ipc[digestKey(w, harness.SchemeHier, "+sampled")]-exact) / exact
	}
	r.speedup = speedupPct(ipc, replayWorkloads)
	r.sampleErr = 100 * errSum / float64(len(replayWorkloads))
	return r, nil
}

// config is the run configuration of one sweep run, replaying path
// (live when empty).
func (r *replaySweep) config(run sweepRun, path string) harness.RunConfig {
	rc := r.rc
	rc.TracePath = path
	rc.Governed = run.governed
	if run.sampled {
		rc.Sample = harness.SampleSpec{WarmInstr: 10_000, MeasureInstr: 20_000, SkipInstr: 40_000, Seed: r.sampleSeed}
	}
	return rc
}

func (r *replaySweep) clients() int { return 1 }

func (r *replaySweep) op(_ int, _ int64, sp span) (uint64, error) {
	// A fresh process starts with an empty result memo and trace cache.
	harness.DropCache()
	for _, p := range r.paths {
		harness.EvictTrace(p)
	}
	defer func() { r.runner.add(harness.CacheStats()) }()
	var instr uint64
	for _, w := range r.order {
		for _, run := range replayRuns {
			rc := r.config(run, r.paths[w])
			s := sp.child("harness.Run")
			res, err := harness.Run(w, run.scheme, rc)
			s.end()
			if err != nil {
				return instr, err
			}
			instr += rc.WarmInstr + rc.MeasureInstr
			key := digestKey(w, run.scheme, run.variant())
			if got := res.Stats.Digest(); got != r.refs[key] {
				return instr, mismatch("replay "+key+" vs live", got, r.refs[key])
			}
			if run.scheme != harness.SchemeFDIP && !run.sampled {
				s := sp.child("harness.Speedup")
				_, err := harness.Speedup(w, run.scheme, rc)
				s.end()
				if err != nil {
					return instr, fmt.Errorf("%s speedup: %w", key, err)
				}
			}
		}
	}
	return instr, nil
}

func (r *replaySweep) verify([]opRecord, span) {}

func (r *replaySweep) extras() map[string]float64 {
	return map[string]float64{"hier_speedup_pct": r.speedup, "sample_ipc_err_pct": r.sampleErr}
}

func (r *replaySweep) layers() map[string]float64 {
	return map[string]float64{"harness.cache_hit_ratio": r.runner.ratio()}
}

func (r *replaySweep) reset() { r.runner = runnerCounts{} }

func (r *replaySweep) close() {
	for _, p := range r.paths {
		harness.EvictTrace(p)
	}
}
