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

	"hprefetch/internal/fault"
	"hprefetch/internal/fleet"
	"hprefetch/internal/harness"
	"hprefetch/internal/service"
	"hprefetch/internal/sim"
	"hprefetch/internal/tracefile"
	"hprefetch/internal/workloads"
)

// Scheme selects the prefetching configuration under evaluation. All
// schemes run on top of the FDIP front-end, as in the paper.
type Scheme = harness.Scheme

// The available schemes.
const (
	// FDIP is the fetch-directed-instruction-prefetching baseline.
	FDIP = harness.SchemeFDIP
	// EFetch is the caller-callee baseline (PACT 2014).
	EFetch = harness.SchemeEFetch
	// MANA is the temporal-streaming baseline (IEEE TC 2022).
	MANA = harness.SchemeMANA
	// EIP is the entangling baseline (ISCA 2021, IPC-1 winner).
	EIP = harness.SchemeEIP
	// Hierarchical is the paper's contribution.
	Hierarchical = harness.SchemeHier
	// PerfectL1I is the all-hits upper bound.
	PerfectL1I = harness.SchemePerfect
	// GHB is the history-buffer baseline: a classic Global History
	// Buffer instruction prefetcher (discontinuity-trained footprint
	// spray) used as the throttling experiment's tunable substrate.
	GHB = harness.SchemeGHB
	// GHBTLB is the TLB-aware GHB variant: candidate prefetches whose
	// page misses the I-TLB are dropped instead of issued, trading
	// coverage for pollution immunity.
	GHBTLB = harness.SchemeGHBTLB
)

// Schemes lists the evaluated schemes in figure order.
func Schemes() []Scheme { return harness.Schemes() }

// AllSchemes lists every runnable scheme — the evaluated set plus the
// PerfectL1I bound and the GHB-family baselines — in registry order
// (stable across processes).
func AllSchemes() []Scheme { return harness.AllSchemes() }

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

// RunStats summarises one simulation. It is the hpserved run result
// (service.RunResult): the JSON a served run returns and the value
// Simulate returns are one type, computed by one function.
type RunStats = service.RunResult

// Simulate runs one workload under one scheme and returns its metrics.
func Simulate(workload string, scheme Scheme, opt *Options) (RunStats, error) {
	rc, err := config(opt)
	if err != nil {
		return RunStats{}, err
	}
	r, err := service.ComputeRunResult(context.Background(), workload, string(scheme), rc)
	if err != nil {
		return RunStats{}, err
	}
	return *r, nil
}

// Table is a rendered experiment result (one paper figure or table):
// Fprint, String and CSV render it, and Digest fingerprints its full
// content for `hpsim -digest` reproducibility checks.
type Table = harness.Table

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
	return harness.Experiment(id, rc)
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
	return harness.Experiments(harness.PaperExperimentIDs(), rc, p)
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
	return fleet.RunLocal(context.Background(), sp)
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
	total := b.Loaded.Prog.TextFuncs()
	entries := len(b.Loaded.Entries)
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
