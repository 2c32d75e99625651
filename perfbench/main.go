// Command perfbench is the repository's benchmark: it runs one workload
// (or all of them) in a closed loop for a fixed time, checks every
// operation's output against references computed in set-up, and prints
// the end-to-end metrics by name and unit. The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics.
//
//	bash perfbench/run.sh --workload live-run --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 1 --profile prof/
//
// With --trace 1 the run instead reports the per-layer metrics: each layer
// is timed alone through its public functions, once per run, and each
// workload runs half its time untraced and half with a span recorded
// around every call into a layer. Spans and full results are written
// under --out. BENCHMARK.json, read from the current directory, declares
// the workloads and metrics; a metric measured but not declared, or
// declared but not measured, fails the run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"time"
)

// options are the command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string
	profile  string
}

// benchmarkFile declares the workloads and metrics; run.sh runs the
// benchmark from the repository root, where it lies.
const benchmarkFile = "BENCHMARK.json"

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 5

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// stamp records where and how a run was measured.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPU        string `json:"cpu"`
}

// reportLine is one printed and saved metric with the samples behind it.
type reportLine struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Note    string  `json:"note,omitempty"`
}

// report is everything one workload run measured; it is saved as JSON
// under --out.
type report struct {
	Stamp     stamp        `json:"stamp"`
	Attempted int          `json:"attempted"`
	Failed    int          `json:"failed"`
	FirstErr  string       `json:"first_error,omitempty"`
	Lines     []reportLine `json:"metrics"`
	// Self holds the traced phase's per-span self times (trace runs).
	Self []spanStat `json:"span_self_times,omitempty"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.IntVar(&o.seconds, "seconds", 10, "seconds of timed operations")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics from a traced run; 0 the end-to-end metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench-out"), "directory for results, spans and scratch files")
	flag.StringVar(&o.profile, "profile", "", "write CPU and heap profiles of the timed phase to this directory")
	flag.Parse()
	o.trace = *trace == 1

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	return names
}

func run(o options) error {
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	decl, err := loadDeclaration(benchmarkFile)
	if err != nil {
		return err
	}
	var selected []workloadDef
	for _, dw := range decl.Workloads {
		if o.workload == dw.Name || o.workload == "all" {
			w, _ := workloadByName(dw.Name)
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q (known: %s, all)", o.workload, strings.Join(workloadNames(), ", "))
	}
	for _, dir := range []string{o.out, o.profile} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
	}

	final := result{Metrics: map[string]metricValue{}}
	defs, phaseDefs := decl.EndToEnd, decl.EndToEnd
	// The probe's layers do not depend on the workload, so a traced run
	// times them once and reports them unprefixed.
	var probe map[string]float64
	if o.trace {
		defs = decl.PerLayer
		if probe, err = runProbe(o, decl.PerLayer); err != nil {
			return fmt.Errorf("layer probe: %w", err)
		}
		phaseDefs = nil
		for _, d := range defs {
			if _, ok := probe[d.Name]; ok {
				final.Metrics[d.Name] = metricValue{probe[d.Name], d.Unit}
			} else {
				phaseDefs = append(phaseDefs, d)
			}
		}
	}
	for _, w := range selected {
		rep, values, err := runWorkload(w, o, phaseDefs)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		merged := map[string]float64{}
		for _, m := range []map[string]float64{probe, values} {
			for k, v := range m {
				merged[k] = v
			}
		}
		if err := checkValues(defs, merged); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printReport(rep)
		if err := saveReport(filepath.Join(o.out, runName(w.name, o)+".json"), rep); err != nil {
			return err
		}
		final.Attempted += rep.Attempted
		final.Failed += rep.Failed
		for _, d := range phaseDefs {
			name := d.Name
			if len(selected) > 1 {
				name = w.name + "/" + name
			}
			final.Metrics[name] = metricValue{values[d.Name], d.Unit}
		}
	}
	final.Correct = final.Failed == 0
	data, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

func saveReport(path string, rep *report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// runProbe times every layer alone through its public functions, under
// spans, and prints and saves the probe's report. It returns the
// per-layer metrics it measured.
func runProbe(o options, defs []metricDef) (map[string]float64, error) {
	name := fmt.Sprintf("probe-seed%d-trace", o.seed)
	dir := filepath.Join(o.out, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	speed, err := newSpeedometer(1)
	if err != nil {
		return nil, err
	}
	defer speed.close()
	tr := newTracer()
	sp := tr.root("layers", 0)
	values, err := measureLayers(dir, speed, sp)
	sp.end()
	if err != nil {
		return nil, err
	}
	rep := &report{Stamp: newStamp("probe", o)}
	for _, d := range defs {
		if v, ok := values[d.Name]; ok {
			rep.Lines = append(rep.Lines, reportLine{Name: d.Name, Value: v, Unit: d.Unit})
		}
	}
	tr.mu.Lock()
	rep.Self = selfTimes(tr.spans)
	tr.mu.Unlock()
	printReport(rep)
	if err := tr.write(filepath.Join(o.out, name+".spans.json")); err != nil {
		return nil, err
	}
	return values, saveReport(filepath.Join(o.out, name+".json"), rep)
}

// runName names a run's output files.
func runName(workload string, o options) string {
	mode := "e2e"
	if o.trace {
		mode = "trace"
	}
	return fmt.Sprintf("%s-seed%d-%s", workload, o.seed, mode)
}

// runWorkload sets the workload up setupReps times, runs its timed phase
// and returns the report and the values of defs, the metrics the
// workload's own run measures.
func runWorkload(w workloadDef, o options, defs []metricDef) (*report, map[string]float64, error) {
	dir := filepath.Join(o.out, runName(w.name, o))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	h := fnv.New64a()
	h.Write([]byte(w.name)) //nolint:errcheck // hash writes cannot fail
	nproc := runtime.GOMAXPROCS(0)
	setupSpeed, err := newSpeedometer(1)
	if err != nil {
		return nil, nil, err
	}
	defer setupSpeed.close()
	// The speed that matters while operations run is that of the threads
	// they keep busy.
	phaseSpeed, err := newSpeedometer(w.threads(nproc))
	if err != nil {
		return nil, nil, err
	}
	defer phaseSpeed.close()
	e := &env{seed: o.seed, nproc: nproc, dir: dir, speed: setupSpeed, maxOps: o.seconds * w.opsPerSec}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	var inst instance
	var setups, rawSetups []float64
	before := e.speed.scale()
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		// Every set-up makes the same inputs from the seed.
		e.rng = rand.New(rand.NewPCG(o.seed, h.Sum64()))
		sp := tr.root("setup", 0)
		t0 := time.Now()
		inst, err = w.setup(e, sp)
		wall := time.Since(t0).Seconds()
		sp.end()
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		after := e.speed.scale()
		setups = append(setups, wall*(before+after)/2)
		rawSetups = append(rawSetups, wall)
		before = after
	}
	defer inst.close()

	if o.profile != "" {
		f, err := os.Create(filepath.Join(o.profile, runName(w.name, o)+".cpu.pprof"))
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, nil, err
		}
	}
	var nextOp atomic.Int64
	d := time.Duration(o.seconds) * time.Second
	var phases []phaseResult
	if o.trace {
		phases = append(phases, runPhase(inst, d/2, w.block, e.maxOps/2, nil, &nextOp, phaseSpeed))
		inst.reset()
		phases = append(phases, runPhase(inst, d/2, w.block, e.maxOps/2, tr, &nextOp, phaseSpeed))
	} else {
		phases = append(phases, runPhase(inst, d, w.block, e.maxOps, nil, &nextOp, phaseSpeed))
	}
	if o.profile != "" {
		pprof.StopCPUProfile()
		if err := writeHeapProfile(filepath.Join(o.profile, runName(w.name, o)+".heap.pprof")); err != nil {
			return nil, nil, err
		}
	}

	var recs []opRecord
	for _, ph := range phases {
		recs = append(recs, ph.recs...)
	}
	vsp := tr.root("verify", 0)
	inst.verify(recs, vsp)
	vsp.end()
	// verify marked records in the combined slice; split them back.
	for i, n := 0, 0; i < len(phases); i++ {
		phases[i].recs = recs[n : n+len(phases[i].recs)]
		n += len(phases[i].recs)
	}
	all := summarize(recs, w.limit)

	rep := &report{
		Stamp:     newStamp(w.name, o),
		Attempted: all.attempted,
		Failed:    all.failed,
	}
	if all.firstErr != nil {
		rep.FirstErr = all.firstErr.Error()
	}
	var values map[string]float64
	if o.trace {
		var note string
		values, note = traceValues(w, inst, phases, defs)
		for _, def := range defs {
			l := reportLine{Name: def.Name, Value: values[def.Name], Unit: def.Unit}
			if def.Name == "bench.tracing_overhead_pct" {
				l.Note = note
			}
			rep.Lines = append(rep.Lines, l)
		}
		tr.mu.Lock()
		rep.Self = selfTimes(tr.spans)
		tr.mu.Unlock()
		if err := tr.write(filepath.Join(o.out, runName(w.name, o)+".spans.json")); err != nil {
			return nil, nil, err
		}
	} else {
		values, rep.Lines = endToEnd(w, defs, phases[0], all, setups, rawSetups, e.maxOps, inst.extras())
	}
	return rep, values, nil
}

// endToEnd derives the end-to-end metrics of an untraced phase, plus the
// report-only lines: error rate and the workload's simulated results.
// Times are scaled to the reference speed; the notes give wall times.
func endToEnd(w workloadDef, defs []metricDef, ph phaseResult, s opSummary, setups, rawSetups []float64, maxOps int, extras map[string]float64) (map[string]float64, []reportLine) {
	secs, wall := ph.scaled.Seconds(), ph.elapsed.Seconds()
	ok := s.attempted - s.failed
	values := map[string]float64{
		"setup_s":               medianOf(setups),
		"minstr_per_s":          float64(s.instr) / secs / 1e6,
		"ops_per_s":             float64(ok) / secs,
		"op_p50_ms":             s.p50MS,
		"op_tail_ms":            s.tailMS,
		"alloc_bytes_per_instr": float64(ph.alloc) / float64(max(1, s.instr)),
		"peak_heap_mb":          float64(ph.peak) / 1e6,
	}
	notes := map[string]reportLine{
		"setup_s":      {Samples: len(setups), Note: fmt.Sprintf("median of the set-ups; wall %.4f s", medianOf(rawSetups))},
		"minstr_per_s": {Samples: ok, Note: fmt.Sprintf("%d simulated instructions; wall %.2f Minstr/s", s.instr, float64(s.instr)/wall/1e6)},
		"ops_per_s":    {Samples: ok, Note: fmt.Sprintf("%d ops completed in %.2f s wall; wall %.2f ops/s", ok, wall, float64(ok)/wall)},
		"op_p50_ms":    {Samples: s.samples, Note: fmt.Sprintf("wall %.3f ms", s.rawP50MS)},
		"op_tail_ms": {Samples: s.samples, Note: fmt.Sprintf("p%.1f, %d samples beyond; wall %.3f ms",
			s.tailPct, s.tailBeyond, s.rawTailMS)},
		"alloc_bytes_per_instr": {Samples: 1, Note: "runtime.MemStats TotalAlloc delta over the timed phase"},
		"peak_heap_mb": {Samples: ph.collections, Note: fmt.Sprintf("p%g of the live heap after each collection; records allocated for %d ops, %d used",
			100*peakQuantile, maxOps, s.attempted)},
	}
	var lines []reportLine
	for _, d := range defs {
		l := notes[d.Name]
		l.Name, l.Value, l.Unit = d.Name, values[d.Name], d.Unit
		lines = append(lines, l)
	}
	lines = append(lines, reportLine{
		Name: "host_speed", Value: secs / wall, Unit: "x", Samples: len(ph.recs),
		Note: "reference-speed time over wall time; the scale applied to the times above",
	})
	lines = append(lines, reportLine{
		Name: "error_rate", Value: s.errorRate(), Unit: "ratio", Samples: s.attempted,
		Note: fmt.Sprintf("%d failed of %d attempted; %d missed the %v wall-time limit", s.failed, s.attempted, s.missedLimit, w.limit),
	})
	for _, name := range []string{"hier_speedup_pct", "sample_ipc_err_pct"} {
		if v, ok := extras[name]; ok {
			lines = append(lines, reportLine{Name: name, Value: v, Unit: "%", Samples: 1, Note: "simulated time, deterministic for the seed"})
		}
	}
	return values, lines
}

// traceValues derives the per-layer metrics in defs from the workload's
// traced phase, and the tracing overhead from its two phases. A layer the
// workload does not reach reads 0.
func traceValues(w workloadDef, inst instance, phases []phaseResult, defs []metricDef) (map[string]float64, string) {
	values := map[string]float64{}
	for _, def := range defs {
		values[def.Name] = 0
	}
	for k, v := range inst.layers() {
		values[k] = v
	}
	untraced := summarize(phases[0].recs, w.limit)
	traced := summarize(phases[1].recs, w.limit)
	values["bench.tracing_overhead_pct"] = 100 * (traced.p50MS/untraced.p50MS - 1)
	note := fmt.Sprintf("op p50 %.3f ms untraced (n=%d), %.3f ms traced (n=%d)",
		untraced.p50MS, untraced.samples, traced.p50MS, traced.samples)
	return values, note
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func newStamp(workload string, o options) stamp {
	return stamp{
		Workload:   workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
	}
}

// cpuModel reads the processor name from /proc/cpuinfo, where the host
// has one.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printReport writes the human-readable report.
func printReport(r *report) {
	s := r.Stamp
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v %s GOMAXPROCS=%d NumCPU=%d cpu=%q\n",
		s.Workload, s.Seed, s.Seconds, s.Trace, s.GoVersion, s.GOMAXPROCS, s.NumCPU, s.CPU)
	for _, l := range r.Lines {
		fmt.Printf("  %-48s %14.4f %-11s", l.Name, l.Value, l.Unit)
		if l.Samples > 0 {
			fmt.Printf(" n=%d", l.Samples)
		}
		if l.Note != "" {
			fmt.Printf("  %s", l.Note)
		}
		fmt.Println()
	}
	if len(r.Self) > 0 {
		fmt.Println("  span self time:")
		for _, st := range r.Self {
			fmt.Printf("    %-40s %8d calls %12.1f ms total %12.1f ms self\n", st.Name, st.Count, st.TotalMS, st.SelfMS)
		}
	}
	if r.FirstErr != "" {
		fmt.Printf("  first failure: %s\n", r.FirstErr)
	}
}
