// Command hpbench measures the repository's headline performance
// numbers and gates them against a committed baseline.
//
// It runs the same measurements as the root bench suite's
// BenchmarkReplayVsLive and BenchmarkSimulatorThroughput, plus the
// full-sweep sampled-vs-exact comparison and the simulator's
// steady-state allocation rate, in-process (no `go test -bench`
// parsing), and emits them as a small JSON document:
//
//	hpbench -out BENCH_12.json               # write a new baseline
//	hpbench -check BENCH_12.json             # re-measure and gate
//	hpbench -check BENCH_12.json -raw raw.json  # also dump per-iteration times
//
// Wall-time metrics (ns/instr, instr/s, MB) and the speedup ratios
// built from them (replay_speedup, sample_speedup) depend on the host
// and are informational: the committed file records the reference
// machine's GOMAXPROCS and CPU count, and -check reports them without
// judging. The gated metrics are the steady-state heap allocations per
// simulated instruction of live and replayed FDIP runs, which do not
// depend on the host; -check fails when one exceeds its hard ceiling
// (far below one allocation per event) or rises more than -tolerance
// above the committed value. See EXPERIMENTS.md ("The benchmark
// baseline") for the schema.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"hprefetch/internal/harness"
	"hprefetch/internal/sim"
	"hprefetch/internal/tracefile"
	"hprefetch/internal/workloads"
)

// benchSchema identifies the BENCH_*.json format.
const benchSchema = "hpbench/v1"

// ceilings are the hard maximums of the gated metrics, independent of
// any committed baseline. One allocation per simulated event would read
// about 0.1 allocations per instruction, one per window refill about
// 4e-4; both fail.
var ceilings = map[string]float64{
	"live_allocs_per_instr":   1e-4,
	"replay_allocs_per_instr": 1e-4,
}

// BenchFile is the committed baseline document.
type BenchFile struct {
	Schema string `json:"schema"`
	// GoVersion, GoMaxProcs and NumCPU record the reference
	// environment; they are not compared.
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// Metrics holds every measured value by name.
	Metrics map[string]float64 `json:"metrics"`
	// Gated lists the Metrics keys -check enforces (lower is better for
	// all of them).
	Gated []string `json:"gated"`
}

// rawRecord is one measurement's full detail for the -raw artifact.
type rawRecord struct {
	Name    string    `json:"name"`
	Instr   uint64    `json:"instructions"`
	TimesNS []int64   `json:"times_ns"`
	BestNS  int64     `json:"best_ns"`
	Derived []string  `json:"derived,omitempty"`
	When    time.Time `json:"when"`
}

func main() {
	var (
		out       = flag.String("out", "", "write a new baseline to this path")
		check     = flag.String("check", "", "measure and gate against the baseline at this path")
		raw       = flag.String("raw", "", "also write per-iteration raw measurements to this path")
		tolerance = flag.Float64("tolerance", 0.10, "allowed fractional rise of a gated metric above the baseline")
		iters     = flag.Int("iters", 5, "timed iterations per measurement (best-of)")
	)
	flag.Parse()
	if (*out == "") == (*check == "") {
		fmt.Fprintln(os.Stderr, "hpbench: exactly one of -out or -check is required")
		os.Exit(2)
	}

	metrics, raws, err := measure(*iters)
	if err != nil {
		fatal(err)
	}
	if *raw != "" {
		data, _ := json.MarshalIndent(raws, "", "  ")
		if err := os.WriteFile(*raw, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}

	doc := BenchFile{
		Schema:     benchSchema,
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Metrics:    metrics,
		Gated:      []string{"live_allocs_per_instr", "replay_allocs_per_instr"},
	}
	for _, name := range doc.Gated {
		fmt.Printf("%-28s %8.2g (ceiling %g)\n", name, metrics[name], ceilings[name])
	}
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		if _, gated := ceilings[name]; !gated {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-28s %8.2f (informational)\n", name, metrics[name])
	}

	if *out != "" {
		data, _ := json.MarshalIndent(doc, "", "  ")
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *out)
		return
	}

	base, err := readBaseline(*check)
	if err != nil {
		fatal(err)
	}
	failed := false
	for _, name := range base.Gated {
		want, ok := base.Metrics[name]
		if !ok {
			fatal(fmt.Errorf("baseline %s gates %q but has no such metric", *check, name))
		}
		ceiling, ok := ceilings[name]
		if !ok {
			fatal(fmt.Errorf("baseline %s gates %q, which this build does not gate (it gates %v)", *check, name, doc.Gated))
		}
		got := metrics[name]
		switch limit := want * (1 + *tolerance); {
		case got > ceiling:
			fmt.Printf("FAIL %s: measured %.2g above hard ceiling %g\n", name, got, ceiling)
			failed = true
		case got > limit && want > 0:
			fmt.Printf("FAIL %s: measured %.2g, baseline %.2g, limit %.2g (tolerance %.0f%%)\n",
				name, got, want, limit, *tolerance*100)
			failed = true
		default:
			fmt.Printf("ok   %s: measured %.2g vs baseline %.2g (ceiling %g)\n", name, got, want, ceiling)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func readBaseline(path string) (BenchFile, error) {
	var f BenchFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != benchSchema {
		return f, fmt.Errorf("%s: schema %q, this build reads %q", path, f.Schema, benchSchema)
	}
	return f, nil
}

// timeRun measures fn best-of-n after one untimed warm-up (which also
// populates the process-level build and trace caches).
func timeRun(name string, instr uint64, n int, fn func() error) (rawRecord, error) {
	rec := rawRecord{Name: name, Instr: instr, When: time.Now()}
	if err := fn(); err != nil {
		return rec, fmt.Errorf("%s: %w", name, err)
	}
	best := int64(1 << 62)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return rec, fmt.Errorf("%s: %w", name, err)
		}
		d := time.Since(t0).Nanoseconds()
		rec.TimesNS = append(rec.TimesNS, d)
		if d < best {
			best = d
		}
	}
	rec.BestNS = best
	return rec, nil
}

// measure produces every metric of the baseline document.
func measure(iters int) (map[string]float64, []rawRecord, error) {
	metrics := map[string]float64{}
	var raws []rawRecord

	dir, err := os.MkdirTemp("", "hpbench")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	// Replay vs live: the BenchmarkReplayVsLive pair — the same
	// (workload, scheme, window) from the live engine and from a
	// recorded trace replayed from memory.
	rc := harness.DefaultRunConfig()
	rc.Workloads = []string{"gin"}
	rc.WarmInstr = 500_000
	rc.MeasureInstr = 3_500_000
	pairInstr := rc.WarmInstr + rc.MeasureInstr
	path := filepath.Join(dir, "gin"+harness.TraceExt)
	if _, err := harness.RecordTrace("gin", path, rc); err != nil {
		return nil, nil, err
	}
	if st, err := os.Stat(path); err == nil {
		metrics["trace_file_mb"] = float64(st.Size()) / 1e6
	}

	live, err := timeRun("live", pairInstr, iters, func() error {
		_, err := harness.RunUncached("gin", harness.SchemeFDIP, rc)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	raws = append(raws, live)

	rcR := rc
	rcR.TracePath = path
	replay, err := timeRun("replay", pairInstr, iters, func() error {
		_, err := harness.RunUncached("gin", harness.SchemeFDIP, rcR)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	raws = append(raws, replay)
	metrics["live_ns_per_instr"] = float64(live.BestNS) / float64(pairInstr)
	metrics["replay_ns_per_instr"] = float64(replay.BestNS) / float64(pairInstr)
	metrics["replay_speedup"] = float64(live.BestNS) / float64(replay.BestNS)

	// Steady-state allocations of the cycle loop over the same workload,
	// live and replayed from the same trace.
	built, err := workloads.Build("gin")
	if err != nil {
		return nil, nil, err
	}
	loaded, err := tracefile.Load(path)
	if err != nil {
		return nil, nil, err
	}
	for name, src := range map[string]sim.EventSource{
		"live_allocs_per_instr":   built.NewEngine(),
		"replay_allocs_per_instr": loaded.Replay(),
	} {
		if metrics[name], err = steadyAllocs(rc.Params, src); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
	}

	// Simulator throughput: the BenchmarkSimulatorThroughput window —
	// the full stack (engine, front-end, hierarchy, Hierarchical
	// Prefetcher) in simulated instructions per wall second.
	rcT := harness.DefaultRunConfig()
	rcT.Workloads = []string{"gin"}
	rcT.WarmInstr = 500_000
	rcT.MeasureInstr = 2_000_000
	thrInstr := rcT.WarmInstr + rcT.MeasureInstr
	thr, err := timeRun("throughput", thrInstr, iters, func() error {
		_, err := harness.RunUncached("gin", harness.SchemeHier, rcT)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	raws = append(raws, thr)
	metrics["sim_minstr_per_sec"] = float64(thrInstr) / (float64(thr.BestNS) / 1e9) / 1e6

	// Governed-GHB throughput on the same window: the feedback governor
	// samples stats once per interval, so adaptive throttling should cost
	// roughly nothing over a static run. Informational (not gated) — it
	// exists so a regression that makes the governor hot shows up in the
	// bench report before anyone chases it in a profile.
	rcG := rcT
	rcG.Governed = true
	gov, err := timeRun("governed-ghb", thrInstr, iters, func() error {
		_, err := harness.RunUncached("gin", harness.SchemeGHB, rcG)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	raws = append(raws, gov)
	metrics["governed_ghb_minstr_per_sec"] = float64(thrInstr) / (float64(gov.BestNS) / 1e9) / 1e6

	// Sampled vs exact on the full default sweep window (4M warm + 8M
	// measure): the exact protocol a user would otherwise run (live,
	// detailed throughout) against the durable pipeline this PR adds —
	// record once, then interval-sample the replay.
	rcF := harness.DefaultRunConfig()
	rcF.Workloads = []string{"gin"}
	sweepInstr := rcF.WarmInstr + rcF.MeasureInstr
	pathF := filepath.Join(dir, "gin-sweep"+harness.TraceExt)
	if _, err := harness.RecordTrace("gin", pathF, rcF); err != nil {
		return nil, nil, err
	}
	exact, err := timeRun("sweep-exact-live", sweepInstr, iters, func() error {
		_, err := harness.RunUncached("gin", harness.SchemeHier, rcF)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	raws = append(raws, exact)

	rcS := rcF
	rcS.TracePath = pathF
	rcS.Sample = harness.SampleSpec{WarmInstr: 50_000, MeasureInstr: 100_000, SkipInstr: 800_000, Seed: 1}
	sampled, err := timeRun("sweep-sampled-replay", sweepInstr, iters, func() error {
		_, err := harness.RunUncached("gin", harness.SchemeHier, rcS)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	raws = append(raws, sampled)
	metrics["sweep_exact_ns_per_instr"] = float64(exact.BestNS) / float64(sweepInstr)
	metrics["sweep_sampled_ns_per_instr"] = float64(sampled.BestNS) / float64(sweepInstr)
	metrics["sample_speedup"] = float64(exact.BestNS) / float64(sampled.BestNS)

	return metrics, raws, nil
}

// steadyAllocs returns the heap allocations per simulated instruction
// of an FDIP machine over src once warm: allocWarm instructions first,
// then allocMeasure counted, on one P so no other goroutine allocates
// meanwhile.
func steadyAllocs(prm sim.Params, src sim.EventSource) (float64, error) {
	const allocWarm, allocMeasure = 2_000_000, 1_000_000
	m, err := sim.New(prm, src, nil)
	if err != nil {
		return 0, err
	}
	if err := m.Run(allocWarm); err != nil {
		return 0, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	start := m.Stats().Instructions
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = m.Run(allocMeasure)
	runtime.ReadMemStats(&after)
	if err != nil {
		return 0, err
	}
	return float64(after.Mallocs-before.Mallocs) / float64(m.Stats().Instructions-start), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hpbench:", err)
	os.Exit(1)
}
