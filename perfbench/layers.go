package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"hprefetch/internal/harness"
	"hprefetch/internal/linker"
	"hprefetch/internal/loader"
	"hprefetch/internal/program"
	"hprefetch/internal/service"
	"hprefetch/internal/sim"
	"hprefetch/internal/tracefile"
	"hprefetch/internal/workloads"
)

// layerWorkloads are every simulated workload the benchmark's workloads
// use; build-layer and simulated-counter metrics are reported per each.
var layerWorkloads = []string{"gin", "tidb-tpcc", "chain-burst", "mysql-sysbench"}

// prefetchSchemes are the schemes whose cost over FDIP is reported as
// prefetch.<scheme>.ns_per_instr; GHB-governed is GHB under the feedback
// governor.
var prefetchSchemes = []string{"Hierarchical", "MANA", "EIP", "EFetch", "GHB", "GHB-governed"}

// counterSchemes are the schemes whose simulated counters are reported.
var counterSchemes = []harness.Scheme{harness.SchemeFDIP, harness.SchemeHier}

// The probe window is hpbench's replay pair (gin, 500k warm + 3.5M
// measure), so harness.replay_speedup continues BENCH_8.json; the sample
// window is hpbench's full-sweep window with its sampling spec.
const (
	probeWarm, probeMeasure     = 500_000, 3_500_000
	counterWarm, counterMeasure = 1_000_000, 2_000_000
	layerReps                   = 3
)

// probe accumulates repeated timings by name.
type probe struct {
	sp    span
	speed *speedometer
	times map[string][]float64
}

// time runs fn under a span named after the layer call and records its
// duration under key, scaled to the reference speed measured just before.
func (p *probe) time(key, call string, fn func() error) error {
	scale := p.speed.scale()
	s := p.sp.child(call)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	s.end()
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	p.times[key] = append(p.times[key], float64(d.Nanoseconds())*scale)
	return nil
}

// med is the median recorded time of key, in nanoseconds.
func (p *probe) med(key string) float64 { return medianOf(p.times[key]) }

// measureLayers times each layer from outside, by calling its public
// functions on fixed inputs, and derives the per-layer metrics the
// workload phases cannot give. Every timing is the median of layerReps
// repetitions, each scaled to the reference speed.
func measureLayers(dir string, speed *speedometer, sp span) (map[string]float64, error) {
	p := &probe{sp: sp, speed: speed, times: map[string][]float64{}}
	out := map[string]float64{}
	if err := p.buildLayers(out); err != nil {
		return nil, err
	}
	if err := p.simLayers(dir, out); err != nil {
		return nil, err
	}
	if err := p.sampleLayers(dir, out); err != nil {
		return nil, err
	}
	if err := p.counters(out); err != nil {
		return nil, err
	}
	if err := p.journal(dir, out); err != nil {
		return nil, err
	}
	return out, nil
}

// buildLayers times program generation, linking and loading of every
// simulated workload.
func (p *probe) buildLayers(out map[string]float64) error {
	for rep := 0; rep < layerReps; rep++ {
		for _, name := range layerWorkloads {
			w, err := workloads.Get(name)
			if err != nil {
				return err
			}
			gen := w.Generator
			if gen == nil {
				gen = func() (*program.Program, error) { return program.Generate(w.Config) }
			}
			var prog *program.Program
			var l *linker.Linked
			if err := p.time("generate."+name, "program.Generate", func() (err error) {
				prog, err = gen()
				return err
			}); err != nil {
				return err
			}
			if err := p.time("link."+name, "linker.Link", func() (err error) {
				l, err = linker.Link(prog, linker.Options{})
				return err
			}); err != nil {
				return err
			}
			if err := p.time("load."+name, "loader.LoadLinked", func() error {
				loader.LoadLinked(prog, l.Image)
				return nil
			}); err != nil {
				return err
			}
		}
	}
	for _, name := range layerWorkloads {
		out["program.generate_ms."+name] = p.med("generate."+name) / 1e6
		out["linker.link_ms."+name] = p.med("link."+name) / 1e6
		out["loader.load_ms."+name] = p.med("load."+name) / 1e6
	}
	return nil
}

// pull drives an engine for n instructions and returns the events it
// produced.
func pull(eng workloads.Engine, n uint64) int {
	events := 0
	for eng.Instructions() < n {
		eng.Next()
		events++
	}
	return events
}

// runDirect simulates the probe window over src with no harness in
// between.
func runDirect(prm sim.Params, src sim.EventSource) error {
	m, err := sim.New(prm, src, nil)
	if err != nil {
		return err
	}
	if err := m.Run(probeWarm); err != nil {
		return err
	}
	m.ResetStats()
	return m.Run(probeMeasure)
}

// simLayers splits a gin run into engine, trace file, front end, cache
// hierarchy, live-path, prefetcher and harness costs per instruction.
func (p *probe) simLayers(dir string, out map[string]float64) error {
	const n = probeWarm + probeMeasure
	gin, err := workloads.Build("gin")
	if err != nil {
		return err
	}
	chain, err := workloads.Build("chain-burst")
	if err != nil {
		return err
	}
	rc := harness.DefaultRunConfig()
	rc.WarmInstr, rc.MeasureInstr = probeWarm, probeMeasure
	frontPrm := rc.Params
	frontPrm.PerfectL1I = true
	// The harness replays one recording throughout, decoded once into its
	// trace cache before timing; the timed recordings go to a second file.
	path := filepath.Join(dir, "probe-gin"+harness.TraceExt)
	recPath := filepath.Join(dir, "probe-gin-rec"+harness.TraceExt)
	defer os.Remove(recPath)
	defer os.Remove(path)
	defer harness.EvictTrace(path)
	if _, err := harness.RecordTrace("gin", path, rc); err != nil {
		return err
	}
	rcR := rc
	rcR.TracePath = path
	if err := uncached(harness.SchemeFDIP, rcR); err != nil {
		return err
	}

	type step struct {
		key, call string
		fn        func() error
	}
	var events int
	var sum tracefile.Summary
	var loaded *tracefile.Loaded
	for rep := 0; rep < layerReps; rep++ {
		steps := []step{
			{"engine", "trace.Engine.Next", func() error { events = pull(gin.NewEngine(), n); return nil }},
			{"microsvc", "microsvc.Engine.Next", func() error { pull(chain.NewEngine(), n); return nil }},
			{"record", "tracefile.Record", func() (err error) {
				meta := tracefile.Meta{Workload: "gin", Seed: gin.Workload.TraceSeed, TargetInstructions: n}
				sum, err = tracefile.Record(recPath, gin.NewEngine(), meta, n, tracefile.TailEvents, tracefile.Options{})
				return err
			}},
			{"load", "tracefile.Load", func() (err error) { loaded, err = tracefile.Load(recPath); return err }},
			{"frontend", "sim.New+Machine.Run", func() error { return runDirect(frontPrm, loaded.Replay()) }},
			{"replay-fdip", "sim.New+Machine.Run", func() error { return runDirect(rc.Params, loaded.Replay()) }},
			{"live-fdip", "sim.New+Machine.Run", func() error { return runDirect(rc.Params, gin.NewEngine()) }},
			{"skip", "Machine.SkipFunctional", func() error {
				m, err := sim.New(rc.Params, loaded.Replay(), nil)
				if err != nil {
					return err
				}
				return m.SkipFunctional(n)
			}},
			{"h-live-fdip", "harness.RunUncached", func() error { return uncached(harness.SchemeFDIP, rc) }},
			{"h-live-hier", "harness.RunUncached", func() error { return uncached(harness.SchemeHier, rc) }},
		}
		for _, sc := range append([]string{"FDIP"}, prefetchSchemes...) {
			rcS, scheme := rcR, harness.Scheme(sc)
			if sc == "GHB-governed" {
				rcS.Governed, scheme = true, harness.SchemeGHB
			}
			steps = append(steps, step{"h-replay-" + sc, "harness.RunUncached", func() error { return uncached(scheme, rcS) }})
		}
		for _, st := range steps {
			if err := p.time(st.key, st.call, st.fn); err != nil {
				return err
			}
		}
	}

	per := func(key string) float64 { return p.med(key) / n }
	engine := per("engine")
	out["trace.ns_per_instr"] = engine
	out["trace.instr_per_event"] = float64(n) / float64(events)
	out["microsvc.ns_per_instr"] = per("microsvc")
	out["tracefile.record_ns_per_instr"] = p.med("record") / float64(sum.Instructions)
	out["tracefile.load_ns_per_instr"] = p.med("load") / float64(sum.Instructions)
	out["tracefile.bytes_per_instr"] = float64(sum.Bytes) / float64(sum.Instructions)

	layers := map[string]float64{
		"trace.ns_per_instr":                 engine,
		"sim.frontend_ns_per_instr":          per("frontend"),
		"sim.hierarchy_ns_per_instr":         per("replay-fdip") - per("frontend"),
		"sim.live_path_ns_per_instr":         per("live-fdip") - per("replay-fdip") - engine,
		"prefetch.Hierarchical.ns_per_instr": per("h-replay-Hierarchical") - per("h-replay-FDIP"),
		"harness.run_overhead_ns_per_instr":  per("h-replay-FDIP") - per("replay-fdip"),
	}
	for k, v := range layers {
		out[k] = v
	}
	out["sim.skip_ns_per_instr"] = per("skip")
	for _, sc := range prefetchSchemes {
		out["prefetch."+sc+".ns_per_instr"] = per("h-replay-"+sc) - per("h-replay-FDIP")
	}
	// The end-to-end reference is the live Hierarchical run a user's
	// hpsim process performs.
	out["sim.unattributed_ns_per_instr"] = unattributed(per("h-live-hier"), layers)
	out["harness.replay_speedup"] = p.med("h-live-fdip") / p.med("h-replay-FDIP")
	return nil
}

// uncached runs gin under scheme through harness.RunUncached.
func uncached(scheme harness.Scheme, rc harness.RunConfig) error {
	_, err := harness.RunUncached("gin", scheme, rc)
	return err
}

// sampleLayers measures interval-sampled replay against exact live
// simulation on hpbench's full-sweep window.
func (p *probe) sampleLayers(dir string, out map[string]float64) error {
	rc := harness.DefaultRunConfig()
	path := filepath.Join(dir, "probe-gin-sweep"+harness.TraceExt)
	defer os.Remove(path)
	defer harness.EvictTrace(path)
	s := p.sp.child("harness.RecordTrace")
	_, err := harness.RecordTrace("gin", path, rc)
	s.end()
	if err != nil {
		return err
	}
	rcS := rc
	rcS.TracePath = path
	rcS.Sample = harness.SampleSpec{WarmInstr: 50_000, MeasureInstr: 100_000, SkipInstr: 800_000, Seed: 1}
	var exact, sampled *harness.Result
	// The first sampled run loads the trace into the harness trace cache,
	// as hpbench's untimed warm-up does.
	if _, err := harness.RunUncached("gin", harness.SchemeHier, rcS); err != nil {
		return err
	}
	for rep := 0; rep < layerReps; rep++ {
		if err := p.time("exact", "harness.RunUncached", func() (err error) {
			exact, err = harness.RunUncached("gin", harness.SchemeHier, rc)
			return err
		}); err != nil {
			return err
		}
		if err := p.time("sampled", "harness.RunUncached", func() (err error) {
			sampled, err = harness.RunUncached("gin", harness.SchemeHier, rcS)
			return err
		}); err != nil {
			return err
		}
	}
	out["harness.sample_speedup"] = p.med("exact") / p.med("sampled")
	e := exact.Stats.IPC()
	out["harness.sample_ipc_err_pct"] = 100 * math.Abs(sampled.Stats.IPC()-e) / e
	return nil
}

// counters records the simulated counters of FDIP and Hierarchical on
// every simulated workload. They are deterministic, so one run each.
func (p *probe) counters(out map[string]float64) error {
	rc := harness.DefaultRunConfig()
	rc.WarmInstr, rc.MeasureInstr = counterWarm, counterMeasure
	ipc := map[string]float64{}
	for _, w := range layerWorkloads {
		for _, sc := range counterSchemes {
			s := p.sp.child("harness.RunUncached")
			res, err := harness.RunUncached(w, sc, rc)
			s.end()
			if err != nil {
				return err
			}
			st := res.Stats
			suffix := "." + string(sc) + "." + w
			ipc[digestKey(w, sc, "")] = st.IPC()
			out["sim.ipc"+suffix] = st.IPC()
			out["bpu.branch_mpki"+suffix] = st.MPKI()
			out["cache.l1i_mpki"+suffix] = st.L1IMPKI()
			if sc != harness.SchemeFDIP {
				out["prefetch.accuracy"+suffix] = st.PFAccuracy()
				out["prefetch.coverage_l1"+suffix] = st.PFCoverageL1()
				out["prefetch.late_frac"+suffix] = st.PFLateFraction()
			}
		}
	}
	out["harness.hier_speedup_pct"] = speedupPct(ipc, layerWorkloads)
	return nil
}

// journalAppends is how many durable appends the journal probe times.
const journalAppends = 100

// journal times durable appends to hpserved's write-ahead journal, each
// a write and an fsync. Disk latency does not follow the calibration
// kernel, so these are wall times.
func (p *probe) journal(dir string, out map[string]float64) error {
	path := filepath.Join(dir, "probe.wal")
	defer os.Remove(path)
	jl, _, _, err := service.OpenJournal(path)
	if err != nil {
		return err
	}
	defer jl.Close()
	req := service.RunRequest{Workload: "gin", Scheme: "Hierarchical", WarmInstr: 10_000, MeasureInstr: 50_000}
	s := p.sp.child("service.Journal.AppendSubmit")
	defer s.end()
	var times []float64
	for i := 0; i < journalAppends; i++ {
		t0 := time.Now()
		if err := jl.AppendSubmit(fmt.Sprintf("job-%06d", i+1), "run", req); err != nil {
			return err
		}
		times = append(times, ms(time.Since(t0)))
	}
	out["service.journal_append_ms"] = medianOf(times)
	return nil
}
