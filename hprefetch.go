// Package hprefetch is a from-scratch Go reproduction of "Hierarchical
// Prefetching: A Software-Hardware Instruction Prefetcher for Server
// Applications" (ASPLOS 2025). It bundles:
//
//   - the Hierarchical Prefetcher itself (Bundle identification at link
//     time, record-and-replay hardware with a 1.94KB on-chip budget);
//   - the substrates it needs — a synthetic server-application generator,
//     an ELF-like binary format with linker and loader, an execution
//     engine, and a trace-driven decoupled-FDIP front-end simulator with
//     the paper's Table 1 memory hierarchy;
//   - the baselines it is compared against (MANA, EFetch, EIP); and
//   - a harness regenerating every table and figure of the evaluation.
//
// This package is the public facade: simulate a workload under a scheme,
// run a named experiment, or inspect a workload's static Bundle analysis.
// The heavy lifting lives in internal packages; see DESIGN.md for the map.
package hprefetch

import (
	"context"
	"fmt"
	"io"

	"hprefetch/internal/fault"
	"hprefetch/internal/fleet"
	"hprefetch/internal/harness"
	"hprefetch/internal/sim"
	"hprefetch/internal/tracefile"
	"hprefetch/internal/workloads"
)

// Scheme selects the prefetching configuration under evaluation. All
// schemes run on top of the FDIP front-end, as in the paper.
type Scheme string

// The available schemes.
const (
	// FDIP is the fetch-directed-instruction-prefetching baseline.
	FDIP Scheme = "FDIP"
	// EFetch is the caller-callee baseline (PACT 2014).
	EFetch Scheme = "EFetch"
	// MANA is the temporal-streaming baseline (IEEE TC 2022).
	MANA Scheme = "MANA"
	// EIP is the entangling baseline (ISCA 2021, IPC-1 winner).
	EIP Scheme = "EIP"
	// Hierarchical is the paper's contribution.
	Hierarchical Scheme = "Hierarchical"
	// PerfectL1I is the all-hits upper bound.
	PerfectL1I Scheme = "PerfectL1I"
	// GHB is the history-buffer baseline: a classic Global History
	// Buffer instruction prefetcher (discontinuity-trained footprint
	// spray) used as the throttling experiment's tunable substrate.
	GHB Scheme = "GHB"
	// GHBTLB is the TLB-aware GHB variant: candidate prefetches whose
	// page misses the I-TLB are dropped instead of issued, trading
	// coverage for pollution immunity.
	GHBTLB Scheme = "GHB-TLB"
)

// Schemes lists the evaluated schemes in figure order.
func Schemes() []Scheme {
	return []Scheme{FDIP, EFetch, MANA, EIP, Hierarchical}
}

// AllSchemes lists every runnable scheme — the evaluated set plus the
// PerfectL1I bound and the GHB-family baselines — in registry order
// (stable across processes).
func AllSchemes() []Scheme {
	in := harness.AllSchemes()
	out := make([]Scheme, len(in))
	for i, s := range in {
		out[i] = Scheme(s)
	}
	return out
}

// Workloads lists the eleven server workloads of §6.2.
func Workloads() []string { return workloads.Names() }

// AllWorkloads lists every simulatable workload — the paper's eleven
// plus registered extensions such as the microservice chain suite —
// sorted alphabetically (stable across processes).
func AllWorkloads() []string { return workloads.AllSorted() }

// Options tunes a simulation, experiment or sweep. The zero value (or
// nil) uses the paper-faithful defaults. It is harness.RunSpec, the one
// declaration of every run knob: hpserved accepts the same fields as a
// JSON body, and hpsim binds its flags onto them.
type Options = harness.RunSpec

// config resolves opt (nil means defaults) into the harness
// configuration.
func config(opt *Options) (harness.RunConfig, error) {
	if opt == nil {
		return harness.DefaultRunConfig(), nil
	}
	return opt.Config()
}

// parallel resolves the configured sweep width.
func parallel(opt *Options) int {
	if opt == nil || opt.Parallel < 1 {
		return 1
	}
	return opt.Parallel
}

// FaultClasses lists the fault classes Options.Fault accepts.
func FaultClasses() []string {
	cs := fault.Classes()
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = string(c)
	}
	return out
}

// RunStats summarises one simulation.
type RunStats struct {
	// Workload and Scheme echo the run inputs.
	Workload string
	Scheme   Scheme
	// IPC is instructions per cycle.
	IPC float64
	// SpeedupOverFDIP is IPC relative to the FDIP baseline of the same
	// workload and options (0 for the baseline itself).
	SpeedupOverFDIP float64
	// Instructions and Cycles are the measured totals.
	Instructions uint64
	Cycles       float64
	// PrefetchAccuracy, CoverageL1, CoverageL2, LateFraction and
	// AvgPrefetchDistance describe the evaluated prefetcher (zero for
	// FDIP/PerfectL1I).
	PrefetchAccuracy    float64
	CoverageL1          float64
	CoverageL2          float64
	LateFraction        float64
	AvgPrefetchDistance float64
	// BranchMPKI and L1IMPKI are mispredictions and clean L1-I misses
	// per kilo-instruction.
	BranchMPKI float64
	L1IMPKI    float64
	// TagDrops and BundleRejects count Bundle hints discarded by the
	// loader and the prefetcher's degraded-mode validation. Nonzero only
	// under fault injection (Options.Fault).
	TagDrops      int
	BundleRejects uint64
	// StatsDigest is a stable fingerprint of every counter the run
	// produced. Simulations are deterministic: the same workload,
	// scheme and options yield the same digest in any process, so two
	// digests differing means behaviour changed (see EXPERIMENTS.md,
	// "Determinism and digests").
	StatsDigest string
	// SampleIntervals, SampleIPCMean, SampleIPCStdErr and
	// SampleDetailedFrac describe an interval-sampled run
	// (Options.Sample): how many detailed intervals were measured, the
	// unweighted mean and standard error of their per-interval IPCs
	// (the error bar on IPC), and the fraction of simulated
	// instructions that ran in detailed mode. Zero for exact runs.
	SampleIntervals    int
	SampleIPCMean      float64
	SampleIPCStdErr    float64
	SampleDetailedFrac float64
	// TLBMissFraction and TLBDropped describe TLB-aware filtering
	// (GHB-TLB): the fraction of candidate prefetches whose page missed
	// the I-TLB, and how many were dropped for it. Zero elsewhere.
	TLBMissFraction float64
	TLBDropped      uint64
	// GovernorIntervals, GovernorStepUps, GovernorStepDowns,
	// GovernorFinalLevel and GovernorSchedule describe an adaptive run
	// (Options.Governed): how many feedback intervals the governor
	// sampled, how often it raised or lowered aggressiveness, the level
	// it ended at, and the canonical transition schedule (empty when it
	// never moved). Zero/empty for static runs.
	GovernorIntervals  uint64
	GovernorStepUps    uint64
	GovernorStepDowns  uint64
	GovernorFinalLevel string
	GovernorSchedule   string
}

// Simulate runs one workload under one scheme and returns its metrics.
func Simulate(workload string, scheme Scheme, opt *Options) (RunStats, error) {
	rc, err := config(opt)
	if err != nil {
		return RunStats{}, err
	}
	r, err := harness.Run(workload, harness.Scheme(scheme), rc)
	if err != nil {
		return RunStats{}, err
	}
	out := RunStats{
		Workload:            workload,
		Scheme:              scheme,
		IPC:                 r.Stats.IPC(),
		Instructions:        r.Stats.Instructions,
		Cycles:              r.Stats.Cycles(),
		PrefetchAccuracy:    r.Stats.PFAccuracy(),
		CoverageL1:          r.Stats.PFCoverageL1(),
		CoverageL2:          r.Stats.PFCoverageL2(),
		LateFraction:        r.Stats.PFLateFraction(),
		AvgPrefetchDistance: r.Stats.PFAvgDistance(),
		BranchMPKI:          r.Stats.MPKI(),
		L1IMPKI:             r.Stats.L1IMPKI(),
		TagDrops:            r.TagDrops,
		BundleRejects:       r.BundleRejects,
		StatsDigest:         r.Stats.Digest(),
	}
	if r.Sample != nil {
		out.SampleIntervals = r.Sample.Intervals
		out.SampleIPCMean = r.Sample.IPCMean
		out.SampleIPCStdErr = r.Sample.IPCStdErr
		out.SampleDetailedFrac = r.Sample.DetailedFrac
	}
	out.TLBMissFraction = r.Stats.PFTLBMissFraction()
	out.TLBDropped = r.Stats.PFTLBDropped
	if r.Governor != nil {
		out.GovernorIntervals = r.Governor.Intervals
		out.GovernorStepUps = r.Governor.StepUps
		out.GovernorStepDowns = r.Governor.StepDowns
		out.GovernorFinalLevel = r.Governor.Level
		out.GovernorSchedule = r.Governor.Schedule()
	}
	if scheme != FDIP {
		sp, err := harness.Speedup(workload, harness.Scheme(scheme), rc)
		if err != nil {
			return RunStats{}, err
		}
		out.SpeedupOverFDIP = sp
	}
	return out, nil
}

// Table is a rendered experiment result (one paper figure or table).
type Table struct {
	// ID is the paper artifact ("Figure 9", "Table 2", ...).
	ID string
	// Title describes the rows.
	Title string
	// Header and Rows hold the formatted cells.
	Header []string
	Rows   [][]string
	// Notes carries the paper's reference values and any caveats.
	Notes []string
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) { t.internal().Fprint(w) }

// String renders the table to a string.
func (t *Table) String() string { return t.internal().String() }

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string { return t.internal().CSV() }

// Digest returns a stable fingerprint of the table's full content.
// Experiments are deterministic, so the digest is identical across
// processes and machines for the same inputs; `hpsim -digest` prints
// these for reproducibility checks.
func (t *Table) Digest() string { return t.internal().Digest() }

func (t *Table) internal() *harness.Table {
	return &harness.Table{ID: t.ID, Title: t.Title, Header: t.Header, Rows: t.Rows, Notes: t.Notes}
}

func fromInternal(t *harness.Table) *Table {
	return &Table{ID: t.ID, Title: t.Title, Header: t.Header, Rows: t.Rows, Notes: t.Notes}
}

// ExperimentIDs lists the experiments RunExperiment accepts, in paper
// order: fig1, fig2a-c, fig3, fig4, fig9-fig17, table2-table4.
func ExperimentIDs() []string { return harness.ExperimentIDs() }

// RunExperiment regenerates one of the paper's tables or figures. With
// Options.Parallel > 1 the base (workload × scheme) runs the experiment
// shares with the rest of the evaluation are pre-warmed concurrently;
// the experiment's own table assembly stays serial, so its output is
// identical to a serial run.
func RunExperiment(id string, opt *Options) (*Table, error) {
	rc, err := config(opt)
	if err != nil {
		return nil, err
	}
	if p := parallel(opt); p > 1 {
		harness.DefaultRunner().Warm(rc, p)
	}
	tbl, err := harness.Experiment(id, rc)
	if err != nil {
		return nil, err
	}
	return fromInternal(tbl), nil
}

// RunAllExperiments regenerates every experiment in paper order. With
// Options.Parallel > 1 the shared base runs are pre-warmed and the
// experiment generators themselves execute concurrently; tables still
// come back in paper order with byte-identical contents.
func RunAllExperiments(opt *Options) ([]*Table, error) {
	rc, err := config(opt)
	if err != nil {
		return nil, err
	}
	p := parallel(opt)
	if p > 1 {
		harness.DefaultRunner().Warm(rc, p)
	}
	tbls, err := harness.AllExperimentsParallel(rc, p)
	out := make([]*Table, len(tbls))
	for i, t := range tbls {
		out[i] = fromInternal(t)
	}
	return out, err
}

// RunSweep runs a workload × scheme IPC sweep locally, single-node.
// This is the exact computation and table a fleet coordinator
// (`hpserved -coordinator`) shards across backends: determinism makes
// the two byte-identical, so `hpsim -sweep` output diffs cleanly
// against a coordinator's aggregated table — CI uses that diff as a
// fleet integrity check. Workloads come from opt.Workloads (default
// all); schemes default to the evaluated set in figure order. Every
// other knob of opt applies to each run, except TracePath, which a
// sweep rejects.
func RunSweep(schemes []string, opt *Options) (*Table, error) {
	var sp fleet.SweepSpec
	if opt != nil {
		sp = *opt
	}
	sp.Schemes = schemes
	t, err := fleet.RunLocal(context.Background(), sp)
	if err != nil {
		return nil, err
	}
	return fromInternal(t), nil
}

// TraceSummary describes a recorded block-event trace file.
type TraceSummary struct {
	// Workload and Seed identify what the trace was captured from.
	Workload string
	Seed     uint64
	// Frames, Events, Instructions and Requests are stream totals (for
	// a truncated trace: totals of the readable prefix).
	Frames       int
	Events       uint64
	Instructions uint64
	Requests     uint64
	// FileBytes is the on-disk size, header and index included.
	FileBytes int64
	// Complete reports a sealed, seekable trace; Truncated one cut
	// mid-write (still replayable up to its last complete frame).
	Complete  bool
	Truncated bool
}

// RecordTrace captures a workload's retired block-event stream to path,
// covering the configured warm+measure window plus a lookahead tail, so
// any scheme can later be simulated from the file via
// Options.TracePath with a StatsDigest identical to the live run.
func RecordTrace(workload, path string, opt *Options) (TraceSummary, error) {
	rc, err := config(opt)
	if err != nil {
		return TraceSummary{}, err
	}
	if _, err := harness.RecordTrace(workload, path, rc); err != nil {
		return TraceSummary{}, err
	}
	info, err := tracefile.Stat(path)
	if err != nil {
		return TraceSummary{}, err
	}
	return traceSummary(info), nil
}

// TraceInfo inspects an existing trace file without simulating it.
func TraceInfo(path string) (TraceSummary, error) {
	info, err := tracefile.Stat(path)
	if err != nil {
		return TraceSummary{}, err
	}
	return traceSummary(info), nil
}

func traceSummary(info tracefile.Info) TraceSummary {
	return TraceSummary{
		Workload:     info.Meta.Workload,
		Seed:         info.Meta.Seed,
		Frames:       info.Frames,
		Events:       info.Events,
		Instructions: info.Instructions,
		Requests:     info.Requests,
		FileBytes:    info.FileBytes,
		Complete:     info.Indexed,
		Truncated:    info.Truncated,
	}
}

// BundleReport summarises a workload's static Bundle identification —
// the link-time software pass of §5.1-5.2.
type BundleReport struct {
	// Workload names the analysed binary.
	Workload string
	// TotalFunctions is the static function count.
	TotalFunctions int
	// Entries is the number of identified Bundle entry functions.
	Entries int
	// EntryFraction is Entries / TotalFunctions.
	EntryFraction float64
	// TaggedInstructions is how many call/return instructions the
	// loader tags.
	TaggedInstructions int
	// ThresholdBytes is the divergence threshold used (paper: 200KB).
	ThresholdBytes uint64
	// TextBytes is the linked text-segment size.
	TextBytes uint64
}

// AnalyzeWorkload generates, links and statically analyses a workload,
// returning its Bundle identification report.
func AnalyzeWorkload(name string) (BundleReport, error) {
	b, err := workloads.Build(name)
	if err != nil {
		return BundleReport{}, err
	}
	total := b.Loaded.Prog.NumFuncs()
	entries := len(b.Linked.Analysis.Entries)
	return BundleReport{
		Workload:           name,
		TotalFunctions:     total,
		Entries:            entries,
		EntryFraction:      float64(entries) / float64(total),
		TaggedInstructions: b.Loaded.Tags.Len(),
		ThresholdBytes:     b.Loaded.Threshold,
		TextBytes:          b.Loaded.Prog.TextSize,
	}, nil
}

// MachineDescription returns a human-readable summary of the simulated
// core and memory hierarchy (Table 1 of the paper).
func MachineDescription() string {
	p := sim.DefaultParams()
	return fmt.Sprintf(
		"fetch %d-wide, FTQ %d, BTB %d-entry/%d-way, L1-I %dKB/%d-way (%d MSHRs), "+
			"L2 %dKB, LLC %dMB, mem %d cycles, I-TLB %d entries",
		p.FetchWidth, p.FTQEntries, p.BP.BTBEntries, p.BP.BTBWays,
		p.L1ISizeKB(), p.L1IWays, p.MSHRs,
		p.L2Sets*p.L2Ways*64/1024, p.LLCSets*p.LLCWays*64/1024/1024,
		p.MemLatency, p.ITLBEntries)
}
