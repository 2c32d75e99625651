// Package harness regenerates every table and figure of the paper's
// evaluation (§7). Each experiment is a function returning a Table of
// rows matching what the paper plots; the bench suite at the repository
// root invokes one per figure. Results are cached per (workload, scheme,
// parameter) within the process — a size-bounded LRU behind a
// single-flight Runner — so experiments that share runs (most share the
// FDIP baseline) do not repeat them, and concurrent identical requests
// perform exactly one simulation.
package harness

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hprefetch/internal/core"
	"hprefetch/internal/fault"
	"hprefetch/internal/isa"
	"hprefetch/internal/loader"
	"hprefetch/internal/prefetch"
	"hprefetch/internal/prefetch/efetch"
	"hprefetch/internal/prefetch/eip"
	"hprefetch/internal/prefetch/feedback"
	"hprefetch/internal/prefetch/ghb"
	"hprefetch/internal/prefetch/mana"
	"hprefetch/internal/sim"
	"hprefetch/internal/tracefile"
	"hprefetch/internal/workloads"
)

// Scheme names a prefetching configuration under evaluation.
type Scheme string

// The evaluated schemes (§6.3), plus the GHB baselines added alongside
// the throttling subsystem.
const (
	SchemeFDIP    Scheme = "FDIP"
	SchemeEFetch  Scheme = "EFetch"
	SchemeMANA    Scheme = "MANA"
	SchemeEIP     Scheme = "EIP"
	SchemeHier    Scheme = "Hierarchical"
	SchemePerfect Scheme = "PerfectL1I"
	SchemeGHB     Scheme = "GHB"
	SchemeGHBTLB  Scheme = "GHB-TLB"
)

// Schemes returns the figure-order scheme list (FDIP first) — the rows
// the paper's tables compare. The GHB baselines are deliberately not
// here: they would change every figure. Use AllSchemes for the full
// registry.
func Schemes() []Scheme {
	return []Scheme{SchemeFDIP, SchemeEFetch, SchemeMANA, SchemeEIP, SchemeHier}
}

// AllSchemes returns every runnable scheme, sorted by name — the
// registry CLIs list and validation errors cite.
func AllSchemes() []Scheme {
	all := append(Schemes(), SchemePerfect, SchemeGHB, SchemeGHBTLB)
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// SchemeNames renders the sorted registry as a comma-separated string
// for error messages and -list output.
func SchemeNames() string {
	var names []string
	for _, sc := range AllSchemes() {
		names = append(names, string(sc))
	}
	return strings.Join(names, ", ")
}

// RunConfig controls simulation length and machine parameters.
type RunConfig struct {
	// WarmInstr instructions run before statistics reset.
	WarmInstr uint64
	// MeasureInstr instructions measured after warmup.
	MeasureInstr uint64
	// Params is the machine configuration.
	Params sim.Params
	// Workloads restricts the workload set (nil = all eleven). Not part
	// of the memoisation key: it selects runs, it does not shape one.
	Workloads []string `json:"-"`

	// ManaLookahead / EFetchLookahead override the schemes' look-ahead
	// depth (Figure 2 sweeps). Zero keeps defaults.
	ManaLookahead, EFetchLookahead int
	// HierConfig overrides the Hierarchical Prefetcher configuration
	// (Figure 13 sweeps); nil keeps defaults.
	HierConfig *core.Config
	// TrackBundles turns on per-Bundle instrumentation (Table 4).
	TrackBundles bool
	// PFDegree overrides the scheme's static prefetch aggressiveness
	// (throttling sweeps): GHB degree for the GHB schemes, replay burst
	// budget for Hierarchical. Zero keeps defaults; other schemes have
	// their own lookahead knobs above.
	PFDegree int
	// Governed wraps the scheme's prefetcher with the feedback-directed
	// throttling governor (internal/prefetch/feedback): degree and
	// lookahead adapt online from interval accuracy/lateness/pollution.
	// Only prefetch.Tunable schemes (GHB, GHB-TLB, Hierarchical) accept
	// it; other schemes fail loudly.
	Governed bool
	// Fault injects a deterministic fault into the run (degradation
	// experiments); the zero value injects nothing. Faults apply to
	// every scheme — the FDIP baseline of a faulted comparison runs
	// under the same machine-level faults, so speedups stay
	// like-for-like (bundle-channel faults are naturally no-ops for
	// schemes that ignore tags).
	Fault fault.Config

	// TracePath replays the event stream from this recorded trace file
	// instead of interpreting the program live. The trace must have
	// been captured from the same workload and engine seed; a replayed
	// run produces the identical StatsDigest as its live counterpart.
	TracePath string
	// TraceDir enables replay-backed experiments: a workload whose
	// trace exists at <TraceDir>/<workload>.hpt replays from it, the
	// rest run live.
	TraceDir string
	// RecordPath tees the run's event stream to a trace file while
	// simulating live, appending a lookahead tail so the trace can
	// later feed any scheme over the same warm+measure window. Mutually
	// exclusive with replay; incompatible with fault injection (loader
	// faults perturb the stream itself).
	RecordPath string
	// CorpusDir resolves workloads through a content-addressed trace
	// corpus (internal/corpus): a run with no explicit TracePath or
	// TraceDir match replays from the best published object covering
	// its warm+measure window, falling back to live interpretation when
	// none exists. A damaged object self-heals — quarantine, re-record,
	// republish — without changing the run's digest. Ignored for
	// recording and faulted runs (those need the live engine).
	CorpusDir string

	// Sample enables interval-sampled simulation over the same stream
	// extent as an exact run: the warm-up and inter-interval gaps
	// advance functionally and only short intervals are timed. Results
	// are approximate (Result.Sample carries the error bars) but
	// deterministic. The zero value runs the exact protocol.
	Sample SampleSpec

	// Ctx, when non-nil, bounds every run performed under this
	// configuration: cancellation or deadline expiry stops the
	// simulator's cycle loop cooperatively. It rides inside the config
	// (rather than a parameter) so the deadline reaches every
	// harness.Run call an experiment makes without threading a context
	// through each table generator. It is NOT part of the memoisation
	// key.
	Ctx context.Context `json:"-"`
}

// context resolves the configured context.
func (rc *RunConfig) context() context.Context {
	if rc.Ctx != nil {
		return rc.Ctx
	}
	return context.Background()
}

// DefaultRunConfig mirrors the paper's warmup/measure protocol, scaled
// to the simulator: warm up, then measure.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		WarmInstr:    4_000_000,
		MeasureInstr: 8_000_000,
		Params:       sim.DefaultParams(),
	}
}

// QuickRunConfig is a scaled-down configuration for tests.
func QuickRunConfig() RunConfig {
	rc := DefaultRunConfig()
	rc.WarmInstr = 1_500_000
	rc.MeasureInstr = 2_500_000
	rc.Workloads = []string{"gin", "tidb-tpcc"}
	return rc
}

// workloadList resolves the configured workload set.
func (rc *RunConfig) workloadList() []string {
	if len(rc.Workloads) > 0 {
		return rc.Workloads
	}
	return workloads.Names()
}

// Result couples run statistics with optional Bundle instrumentation.
type Result struct {
	Stats  *sim.Stats
	Bundle core.Summary
	// BundleRejects counts malformed Bundle hints the prefetcher
	// ignored (Hierarchical runs only).
	BundleRejects uint64
	// TagDrops counts tagged addresses the loader discarded (faulted
	// runs only).
	TagDrops int
	// Sample holds the interval-sampling report (coverage and IPC error
	// bars) for sampled runs; nil for exact runs.
	Sample *SampleReport
	// TraceSource reports where the run's event stream came from:
	// "live", "replay" (explicit TracePath or TraceDir), "corpus"
	// (resolved through RunConfig.CorpusDir), or "record" (live, teed
	// to RecordPath).
	TraceSource string
	// CorpusHealed reports that the corpus object this run resolved was
	// damaged and the run self-healed: the artifact was quarantined and
	// re-recorded (or the run fell back to live simulation). The
	// statistics are identical either way — this flag is operational
	// visibility, not a caveat.
	CorpusHealed bool
	// Governor holds the throttling governor's end-of-run snapshot
	// (level, transition counters, schedule) for governed runs; nil
	// otherwise.
	Governor *feedback.Summary
}

// key builds the memoisation key for a run: SHA-256 over the JSON of
// workload, scheme and every field of rc not tagged `json:"-"`, so a
// field added to RunConfig is part of the key unless it opts out.
func (rc *RunConfig) key(workload string, scheme Scheme) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, v := range []any{workload, scheme, rc} {
		if err := enc.Encode(v); err != nil {
			// Only a NaN or infinite float fails to encode. %v keeps such
			// configs apart; at worst an identical one misses the cache.
			fmt.Fprintf(h, "%v\n", v)
		}
	}
	return string(h.Sum(nil))
}

// defaultRunner is the process-wide Runner behind the package-level Run:
// a single-flight, LRU-bounded replacement for the old unbounded memo
// map. Experiments, the CLI and the serving layer all share it, so
// identical work is deduplicated across every entry point.
var defaultRunner = NewRunner(DefaultCacheEntries)

// DefaultRunner returns the shared Runner (metrics endpoints read its
// stats; servers tune its bound via SetCacheLimit).
func DefaultRunner() *Runner { return defaultRunner }

// SetCacheLimit re-bounds the shared Runner's result cache (values < 1
// restore DefaultCacheEntries).
func SetCacheLimit(maxEntries int) { defaultRunner.SetLimit(maxEntries) }

// CacheStats snapshots the shared Runner's counters.
func CacheStats() RunnerStats { return defaultRunner.Stats() }

// DropCache clears cached results and counters (tests).
func DropCache() { defaultRunner.Reset() }

// Run simulates one (workload, scheme) pair under rc through the shared
// Runner: results are cached (bounded LRU), concurrent identical calls
// share one simulation, and rc.Ctx cancels cooperatively. Failures —
// including panics escaping the simulation — come back as errors, so one
// bad run cannot take a whole experiment suite down.
func Run(workload string, scheme Scheme, rc RunConfig) (*Result, error) {
	return defaultRunner.Run(workload, scheme, rc)
}

// RunUncached performs one simulation bypassing the shared Runner —
// benchmarks that must time real work and golden tests comparing live
// against replayed runs use it.
func RunUncached(workload string, scheme Scheme, rc RunConfig) (*Result, error) {
	return runOne(rc.context(), workload, scheme, rc)
}

// TraceExt is the conventional extension for recorded traces; TraceDir
// resolution looks for <dir>/<workload> + TraceExt.
const TraceExt = ".hpt"

// tracePathFor resolves the replay trace for workload under dir,
// returning "" (fall back to live) when none has been recorded there.
func tracePathFor(dir, workload string) string {
	p := filepath.Join(dir, workload+TraceExt)
	if st, err := os.Stat(p); err == nil && st.Mode().IsRegular() {
		return p
	}
	return ""
}

// replayTrace opens the trace at path as the event source of workload's
// run, refusing one recorded from another workload or engine seed.
func replayTrace(path, workload string, built *workloads.Built) (*tracefile.MemReader, error) {
	tr, err := loadTrace(path)
	if err != nil {
		return nil, err
	}
	if tm := tr.Meta(); tm.Workload != workload || tm.Seed != built.Workload.TraceSeed {
		return nil, fmt.Errorf("trace %s was recorded from workload %q seed %d, want %q seed %d",
			path, tm.Workload, tm.Seed, workload, built.Workload.TraceSeed)
	}
	return tr.Replay(), nil
}

// sourceErr extracts a finite event source's terminal error, treating a
// clean end of stream (tracefile.ErrExhausted) as success.
func sourceErr(src tracefile.Source) error {
	e, ok := src.(interface{ Err() error })
	if !ok {
		return nil
	}
	if err := e.Err(); err != nil && !errors.Is(err, tracefile.ErrExhausted) {
		return err
	}
	return nil
}

// RecordTrace captures workload's event stream to path without running a
// simulator: the live engine is pulled until rc.WarmInstr+rc.MeasureInstr
// instructions are covered, plus a tail of tracefile.TailEvents so the
// trace can feed any scheme's lookahead over that window. The returned
// summary describes the sealed file.
func RecordTrace(workload, path string, rc RunConfig) (tracefile.Summary, error) {
	if rc.Fault.Enabled() {
		return tracefile.Summary{}, fmt.Errorf("harness: recording %s: traces capture the clean stream; fault injection is not recordable", workload)
	}
	if rc.Sample.Enabled() {
		return tracefile.Summary{}, fmt.Errorf("harness: recording %s: a sampled run covers only part of the stream; record exact, then sample the replay", workload)
	}
	built, err := workloads.Build(workload)
	if err != nil {
		return tracefile.Summary{}, err
	}
	target := rc.WarmInstr + rc.MeasureInstr
	meta := tracefile.Meta{Workload: workload, Seed: built.Workload.TraceSeed, TargetInstructions: target}
	return tracefile.Record(path, built.NewEngine(), meta, target, tracefile.TailEvents, tracefile.Options{})
}

// runOne performs the simulation behind Run. Any panic raised inside
// the stack (loader, engine, simulator, prefetcher) is recovered into a
// wrapped error; only genuinely successful runs are memoised.
func runOne(ctx context.Context, workload string, scheme Scheme, rc RunConfig) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			// A panic is environmental, not structural: the same inputs
			// simulate cleanly elsewhere (fault injection, memory
			// pressure), so mark it retryable.
			err = MarkTransient(fmt.Errorf("harness: %s/%s panicked: %v", workload, scheme, r))
		}
	}()

	built, err := workloads.Build(workload)
	if err != nil {
		return nil, err
	}

	// Event-source selection: explicit replay beats directory-resolved
	// replay beats corpus-resolved replay beats live interpretation.
	// Replay, record and fault injection do not mix — a teed or replayed
	// stream must be the clean one the trace header promises.
	tracePath := rc.TracePath
	if tracePath == "" && rc.TraceDir != "" {
		tracePath = tracePathFor(rc.TraceDir, workload)
	}
	fromCorpus := false
	if tracePath == "" && rc.CorpusDir != "" && rc.RecordPath == "" && !rc.Fault.Enabled() {
		if p := corpusPathFor(rc.CorpusDir, workload, rc.WarmInstr+rc.MeasureInstr); p != "" {
			tracePath, fromCorpus = p, true
		}
	}
	if tracePath != "" && rc.RecordPath != "" {
		return nil, fmt.Errorf("harness: %s/%s: trace replay and recording are mutually exclusive", workload, scheme)
	}
	if rc.RecordPath != "" && rc.Sample.Enabled() {
		return nil, fmt.Errorf("harness: %s/%s: a sampled run covers only part of the stream; record exact, then sample the replay", workload, scheme)
	}
	if (tracePath != "" || rc.RecordPath != "") && rc.Fault.Enabled() {
		return nil, fmt.Errorf("harness: %s/%s: trace replay/recording cannot be combined with fault injection", workload, scheme)
	}

	// Fault wiring: perturb the .bundles segment through the degraded
	// loader path and hand the injector to the machine.
	var inj *fault.Injector
	ld := built.Loaded
	if rc.Fault.Enabled() {
		inj, err = fault.New(rc.Fault)
		if err != nil {
			return nil, err
		}
		ld = loader.LoadLinkedDegraded(built.Loaded.Prog, built.Loaded.Segment(), inj.PerturbBundles)
	}

	var src sim.EventSource
	var rec *tracefile.Recorder
	finished := false
	traceSource := "live"
	corpusHealed := false
	switch {
	case fromCorpus:
		// Corpus objects self-heal on damage instead of failing the run;
		// an explicit TracePath stays fail-stop (below) because the user
		// asked for that exact file.
		src, corpusHealed, err = corpusSource(workload, built, tracePath, rc)
		if err != nil {
			return nil, fmt.Errorf("harness: %s/%s: %w", workload, scheme, err)
		}
		traceSource = "corpus"
	case tracePath != "":
		if src, err = replayTrace(tracePath, workload, built); err != nil {
			return nil, fmt.Errorf("harness: %s/%s: %w", workload, scheme, err)
		}
		traceSource = "replay"
	case rc.RecordPath != "":
		meta := tracefile.Meta{
			Workload:           workload,
			Seed:               built.Workload.TraceSeed,
			TargetInstructions: rc.WarmInstr + rc.MeasureInstr,
		}
		eng := built.EngineOver(ld)
		defer eng.Release()
		rec, err = tracefile.RecordTo(rc.RecordPath, eng, meta, tracefile.Options{})
		if err != nil {
			return nil, fmt.Errorf("harness: %s/%s: %w", workload, scheme, err)
		}
		defer func() {
			if !finished {
				rec.Abort()
			}
		}()
		src = rec
		traceSource = "record"
	default:
		// Interpret the program on a second goroutine while the machine
		// simulates. The tee above stays direct: a Recorder relies on
		// each Fill proving the previous one was consumed.
		eng := built.EngineOver(ld)
		defer eng.Release()
		ra := sim.NewReadAhead(eng, rc.WarmInstr+rc.MeasureInstr)
		defer ra.Close()
		src = ra
	}

	prm := rc.Params
	if scheme == SchemePerfect {
		prm.PerfectL1I = true
	}
	m, err := sim.New(prm, src, nil)
	if err != nil {
		return nil, err
	}
	defer m.Release()
	if inj != nil {
		m.SetFaults(inj)
	}
	if ctx != nil {
		m.SetContext(ctx)
	}
	var hier *core.Hier
	var pf prefetch.Prefetcher
	switch scheme {
	case SchemeFDIP, SchemePerfect:
		// no evaluated prefetcher
	case SchemeEFetch:
		cfg := efetch.DefaultConfig()
		if rc.EFetchLookahead > 0 {
			cfg.Lookahead = rc.EFetchLookahead
		}
		pf = efetch.New(cfg, m)
	case SchemeMANA:
		cfg := mana.DefaultConfig()
		if rc.ManaLookahead > 0 {
			cfg.Lookahead = rc.ManaLookahead
		}
		pf = mana.New(cfg, m)
	case SchemeEIP:
		pf = eip.New(eip.DefaultConfig(), m)
	case SchemeGHB, SchemeGHBTLB:
		cfg := ghb.DefaultConfig()
		cfg.RequireTLB = scheme == SchemeGHBTLB
		if rc.PFDegree > 0 {
			cfg.Degree = rc.PFDegree
		}
		pf = ghb.New(cfg, m)
	case SchemeHier:
		cfg := core.DefaultConfig()
		if rc.HierConfig != nil {
			cfg = *rc.HierConfig
		}
		cfg.TrackStats = cfg.TrackStats || rc.TrackBundles
		if rc.PFDegree > 0 {
			cfg.BurstPrefetches = rc.PFDegree
		}
		hier = core.New(cfg, m)
		// Arm degraded-mode validation: the prefetcher knows the text
		// bounds and refuses hints pointing elsewhere.
		p := ld.Prog
		hier.SetTextBounds(p.TextBase, p.TextBase+isa.Addr(p.TextSize))
		pf = hier
	default:
		return nil, fmt.Errorf("harness: unknown scheme %q (known: %s)", scheme, SchemeNames())
	}
	var gov *feedback.Governor
	if rc.Governed {
		tun, ok := pf.(prefetch.Tunable)
		if !ok {
			return nil, fmt.Errorf("harness: %s/%s: scheme does not support adaptive throttling (not prefetch.Tunable)", workload, scheme)
		}
		gov = feedback.New(feedback.DefaultConfig(), m)
		pf = prefetch.NewGoverned(tun, gov)
	}
	if pf != nil {
		m.SetPrefetcher(pf)
		// Like the machine's, the prefetcher's tables go back to their
		// pool once the results below have been read.
		defer pf.Release()
	}
	res = &Result{TagDrops: ld.TagDrops, TraceSource: traceSource, CorpusHealed: corpusHealed}
	if rc.Sample.Enabled() {
		// Recording was refused above: skipped sections never reach a
		// recorder.
		if res.Stats, res.Sample, err = runSampled(m, rc); err != nil {
			return nil, fmt.Errorf("harness: %s/%s sampled: %w", workload, scheme, err)
		}
	} else {
		if err := m.Run(rc.WarmInstr); err != nil {
			return nil, fmt.Errorf("harness: %s/%s warmup: %w", workload, scheme, err)
		}
		m.ResetStats()
		if err := m.Run(rc.MeasureInstr); err != nil {
			return nil, fmt.Errorf("harness: %s/%s measure: %w", workload, scheme, err)
		}
		if rec != nil {
			// End the trace where the machine's pulled stream ends, plus
			// the lookahead tail past the measure window so it can later
			// feed any scheme's FTQ over the same instructions, then seal
			// index and trailer.
			if _, err := rec.Finish(m.Unpulled(), tracefile.TailEvents); err != nil {
				return nil, fmt.Errorf("harness: %s/%s: sealing trace: %w", workload, scheme, err)
			}
			finished = true
		}
		res.Stats = m.Stats()
	}
	if hier != nil {
		res.Bundle = hier.BundleSummary()
		res.BundleRejects = hier.Counters.BundleRejects
	}
	if gov != nil {
		res.Governor = gov.Summary()
	}
	return res, nil
}

// Speedup returns scheme IPC relative to the FDIP baseline for the same
// workload and configuration.
func Speedup(workload string, scheme Scheme, rc RunConfig) (float64, error) {
	base, err := Run(workload, SchemeFDIP, baselineConfig(rc))
	if err != nil {
		return 0, err
	}
	r, err := Run(workload, scheme, rc)
	if err != nil {
		return 0, err
	}
	return r.Stats.IPC()/base.Stats.IPC() - 1, nil
}

// Table is a printable experiment result (one paper figure or table).
// Its JSON form is the hpserved experiment result's.
type Table struct {
	// ID labels the experiment ("Figure 9", "Table 2", ...).
	ID string `json:"id"`
	// Title describes what the rows show.
	Title string `json:"title"`
	// Header holds column names.
	Header []string `json:"header"`
	// Rows holds formatted cells.
	Rows [][]string `json:"rows"`
	// Notes holds the paper's reference values and free-form caveats
	// appended after the table.
	Notes []string `json:"notes,omitempty"`
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	line(dashes(widths))
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func spd(v float64) string { return fmt.Sprintf("%+.1f%%", v*100) }
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// Digest returns a stable fingerprint of the table's full content (id,
// title, cells, notes). Experiments are deterministic functions of
// their RunConfig, so the same experiment in two processes must yield
// the same digest; CI diffs exactly this.
func (t *Table) Digest() string {
	h := fnv.New64a()
	write := func(s string) { io.WriteString(h, s) } //nolint:errcheck // hash writes cannot fail
	write(t.ID)
	write("\n")
	write(t.Title)
	write("\n")
	write(t.CSV())
	for _, n := range t.Notes {
		write("note:" + n + "\n")
	}
	return fmt.Sprintf("%s:%016x", sim.DigestPrefix, h.Sum64())
}

// CSV renders the table as comma-separated values (header first). Cells
// containing commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
