package harness

import (
	"fmt"
	"os"

	"hprefetch/internal/fault"
	"hprefetch/internal/tracefile"
	"hprefetch/internal/workloads"
)

// RunSpec is the one declaration of every knob a caller can set on a
// run, an experiment or a sweep. The facade (hprefetch.Options), the
// HTTP API and job journal (service.RunRequest) and the fleet
// (fleet.SweepSpec) are all this type; Config resolves it into the
// RunConfig the harness executes. The JSON tags are the wire and
// journal format. Zero fields are omitted, so a field added later with
// a zero default leaves every older encoding valid.
type RunSpec struct {
	// Workload and Scheme name the pair to simulate (run jobs and fleet
	// sub-jobs only).
	Workload string `json:"workload,omitempty"`
	Scheme   string `json:"scheme,omitempty"`
	// Experiment is the figure/table id (experiment jobs only).
	Experiment string `json:"experiment,omitempty"`
	// WarmInstr runs before measurement begins; MeasureInstr is
	// simulated with statistics on. 0 keeps the default (4M + 8M, or the
	// Quick lengths).
	WarmInstr    uint64 `json:"warm_instr,omitempty"`
	MeasureInstr uint64 `json:"measure_instr,omitempty"`
	// Workloads restricts an experiment's workload set, or names a
	// sweep's workload axis (default: all eleven).
	Workloads []string `json:"workloads,omitempty"`
	// Quick trades precision for speed: QuickRunConfig's shorter runs
	// and, when Workloads is empty, its representative two-workload
	// subset for experiments. Good for smoke tests.
	Quick bool `json:"quick,omitempty"`
	// Fault injects a deterministic fault into every run, specified as
	// "class[:rate[:seed]]" — e.g. "bundle-corrupt", "tag-flip:0.001",
	// "mshr-starve:0.5:7". Empty injects nothing. Incompatible with
	// TracePath.
	Fault string `json:"fault,omitempty"`
	// TimeoutMS bounds a served job's wall-clock execution; 0 uses the
	// server default, and values above the server maximum are clamped.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxRetries overrides a server's transient-failure retry budget
	// for the job: 0 keeps the server default, negative disables
	// retries, positive values are clamped to the server maximum.
	MaxRetries int `json:"max_retries,omitempty"`
	// TracePath replays recorded traces instead of interpreting
	// workloads live: a trace file replays the named workload (it must
	// match workload and seed), and a directory replays every workload
	// with a trace at <dir>/<workload>.hpt, the rest running live. A
	// replayed run produces the identical StatsDigest as its live
	// counterpart. Validated by Config.
	TracePath string `json:"trace_path,omitempty"`
	// Schemes is the scheme axis of a sweep (default: the evaluated
	// set in figure order). A single server takes one Scheme per run.
	Schemes []string `json:"schemes,omitempty"`
	// Sample enables interval sampling instead of exact measurement,
	// specified as "warm,measure,skip[,seed]" in instructions — e.g.
	// "50000,100000,800000". Results are approximate but deterministic
	// and carry per-interval IPC error bars. Incompatible with trace
	// recording. Empty means exact simulation.
	Sample string `json:"sample,omitempty"`
	// NoCorpus skips corpus resolution (CorpusDir, or a server's
	// -corpus) for this run, forcing live interpretation when no
	// explicit TracePath is given. The fleet coordinator sets it when
	// re-dispatching a job whose shard reported a quarantined corpus
	// object.
	NoCorpus bool `json:"no_corpus,omitempty"`
	// PFDegree overrides the evaluated prefetcher's static
	// aggressiveness (GHB issue degree, Hierarchical replay burst
	// budget); 0 keeps the scheme default. Ignored under Governed.
	PFDegree int `json:"pf_degree,omitempty"`
	// Governed attaches the feedback throttling governor: per-interval
	// accuracy/lateness/pollution samples drive the prefetcher between
	// conservative, moderate and aggressive levels. Runs of schemes
	// without a tunable prefetcher (e.g. FDIP) fail.
	Governed bool `json:"governed,omitempty"`

	// Parallel runs experiment sweeps with up to this many simulations
	// in flight at once (<= 1 is serial); tables stay byte-identical to
	// a serial run. In-process only.
	Parallel int `json:"-"`
	// CorpusDir resolves workloads through the content-addressed trace
	// corpus rooted here (see RunConfig.CorpusDir). In-process only: a
	// server names its own store, and a coordinator does not dictate
	// backend paths.
	CorpusDir string `json:"-"`
}

// Config resolves the spec into the harness configuration, validating
// every knob it carries: workload names, the fault and sample specs,
// the prefetch degree and the trace path. Serving policy (TimeoutMS,
// MaxRetries) and the pair or axes to run are the caller's business.
func (sp RunSpec) Config() (RunConfig, error) {
	rc := DefaultRunConfig()
	if sp.Quick {
		rc = QuickRunConfig()
	}
	if sp.WarmInstr > 0 {
		rc.WarmInstr = sp.WarmInstr
	}
	if sp.MeasureInstr > 0 {
		rc.MeasureInstr = sp.MeasureInstr
	}
	if len(sp.Workloads) > 0 {
		for _, w := range sp.Workloads {
			if _, err := workloads.Get(w); err != nil {
				return rc, err
			}
		}
		rc.Workloads = sp.Workloads
	}
	if sp.Fault != "" {
		cfg, err := fault.ParseSpec(sp.Fault)
		if err != nil {
			return rc, err
		}
		rc.Fault = cfg
	}
	if sp.Sample != "" {
		s, err := ParseSampleSpec(sp.Sample)
		if err != nil {
			return rc, fmt.Errorf("sample: %w", err)
		}
		rc.Sample = s
	}
	if sp.PFDegree < 0 {
		return rc, fmt.Errorf("pf_degree must be non-negative, got %d", sp.PFDegree)
	}
	rc.PFDegree = sp.PFDegree
	rc.Governed = sp.Governed
	if sp.TracePath != "" {
		if rc.Fault.Enabled() {
			return rc, fmt.Errorf("trace_path cannot be combined with fault injection")
		}
		st, err := os.Stat(sp.TracePath)
		switch {
		case err != nil:
			return rc, fmt.Errorf("trace_path: %w", err)
		case st.IsDir():
			rc.TraceDir = sp.TracePath
		default:
			// Validate the file up front so a corrupt or foreign trace is
			// rejected before any run starts, not buried in a failed one.
			if _, err := tracefile.Stat(sp.TracePath); err != nil {
				return rc, fmt.Errorf("trace_path: %w", err)
			}
			rc.TracePath = sp.TracePath
		}
	}
	if !sp.NoCorpus {
		rc.CorpusDir = sp.CorpusDir
	}
	return rc, nil
}
