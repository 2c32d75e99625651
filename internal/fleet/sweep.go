package fleet

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"hprefetch/internal/harness"
	"hprefetch/internal/service"
	"hprefetch/internal/workloads"
)

// SweepSpec names the cross product a sweep simulates: every workload
// in Workloads × every scheme in Schemes, one job per pair. Every other
// knob applies to each job. It is harness.RunSpec; a sweep rejects the
// fields that name a single run (workload, scheme, experiment) and
// trace_path, since a coordinator does not dictate backend paths.
type SweepSpec = harness.RunSpec

// withAxes resolves the empty axes.
func withAxes(sp SweepSpec) SweepSpec {
	if len(sp.Workloads) == 0 {
		sp.Workloads = workloads.Names()
	}
	if len(sp.Schemes) == 0 {
		for _, sc := range harness.Schemes() {
			sp.Schemes = append(sp.Schemes, string(sc))
		}
	}
	return sp
}

// resolveSweep fills the spec's empty axes, validates it, and resolves
// the harness configuration every job of the sweep runs under. It
// rejects single-run fields, unknown workloads and schemes, duplicate
// axis entries (a duplicated key would make "every job exactly once"
// ambiguous) and any knob RunSpec.Config refuses.
func resolveSweep(sp SweepSpec) (SweepSpec, harness.RunConfig, error) {
	switch {
	case sp.Workload != "" || sp.Scheme != "":
		return sp, harness.RunConfig{}, fmt.Errorf("a sweep names its pairs through workloads and schemes, not workload/scheme")
	case sp.Experiment != "":
		return sp, harness.RunConfig{}, fmt.Errorf("experiment is not a sweep field")
	case sp.TracePath != "":
		return sp, harness.RunConfig{}, fmt.Errorf("trace_path is not a sweep field: a coordinator does not dictate backend paths")
	}
	sp = withAxes(sp)
	rc, err := sp.Config()
	if err != nil {
		return sp, rc, err
	}
	seenW := map[string]bool{}
	for _, w := range sp.Workloads {
		if seenW[w] {
			return sp, rc, fmt.Errorf("duplicate workload %q in sweep", w)
		}
		seenW[w] = true
	}
	valid := map[string]bool{}
	for _, sc := range harness.AllSchemes() {
		valid[string(sc)] = true
	}
	seenS := map[string]bool{}
	for _, sc := range sp.Schemes {
		if !valid[sc] {
			return sp, rc, fmt.Errorf("unknown scheme %q (known: %s)", sc, harness.SchemeNames())
		}
		if seenS[sc] {
			return sp, rc, fmt.Errorf("duplicate scheme %q in sweep", sc)
		}
		seenS[sc] = true
	}
	return sp, rc, nil
}

// sweepKeys expands the spec into its job keys, workload-major — the
// order rows and columns appear in the aggregated table.
func sweepKeys(sp SweepSpec) []string {
	sp = withAxes(sp)
	out := make([]string, 0, len(sp.Workloads)*len(sp.Schemes))
	for _, w := range sp.Workloads {
		for _, sc := range sp.Schemes {
			out = append(out, JobKey(w, sc))
		}
	}
	return out
}

// subJob is the request a backend receives for one job of the sweep:
// the sweep spec itself with the pair set and the axes cleared, so
// every knob reaches the backend.
func subJob(sp SweepSpec, workload, scheme string) service.RunRequest {
	sp.Workload, sp.Scheme = workload, scheme
	sp.Workloads, sp.Schemes = nil, nil
	return sp
}

// JobKey names one (workload, scheme) job; the inverse is SplitKey.
// The key doubles as the consistent-hash routing input, so the same
// pair always prefers the same backend across sweeps and coordinator
// lives.
func JobKey(workload, scheme string) string { return workload + "/" + scheme }

// SplitKey splits a job key back into its pair.
func SplitKey(key string) (workload, scheme string, err error) {
	i := strings.IndexByte(key, '/')
	if i <= 0 || i == len(key)-1 {
		return "", "", fmt.Errorf("malformed job key %q", key)
	}
	return key[:i], key[i+1:], nil
}

// RunLocal executes the whole sweep in-process through the shared
// harness Runner — the single-node reference a fleet run must match
// byte for byte. Used by hpsim -sweep and by tests cross-checking
// coordinator output.
func RunLocal(ctx context.Context, sp SweepSpec) (*harness.Table, error) {
	sp, rc, err := resolveSweep(sp)
	if err != nil {
		return nil, err
	}
	results := map[string]*service.RunResult{}
	for _, w := range sp.Workloads {
		for _, sc := range sp.Schemes {
			res, err := service.ComputeRunResult(ctx, w, sc, rc)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", JobKey(w, sc), err)
			}
			results[JobKey(w, sc)] = res
		}
	}
	return SweepTable(sp, results)
}

// SweepTable aggregates per-job results into the sweep's table: one row
// per workload, one IPC column per scheme, and a note per job recording
// its stats digest — so byte-comparing two renderings compares every
// digest too. Formatting is fixed here and nowhere else; a table built
// from local results and one built from fleet-returned results are
// byte-identical whenever the underlying runs were (JSON round-trips
// float64 exactly).
func SweepTable(sp SweepSpec, results map[string]*service.RunResult) (*harness.Table, error) {
	sp = withAxes(sp)
	t := &harness.Table{
		ID:     "sweep",
		Title:  "Sweep: IPC by workload and scheme",
		Header: append([]string{"Workload"}, sp.Schemes...),
	}
	for _, w := range sp.Workloads {
		row := []string{w}
		for _, sc := range sp.Schemes {
			key := JobKey(w, sc)
			res, ok := results[key]
			if !ok || res == nil {
				return nil, fmt.Errorf("sweep table: missing result for %s", key)
			}
			row = append(row, fmt.Sprintf("%.4f", res.IPC))
		}
		t.Rows = append(t.Rows, row)
	}
	keys := make([]string, 0, len(results))
	for k := range results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t.Notes = append(t.Notes, fmt.Sprintf("digest %s = %s", k, results[k].StatsDigest))
	}
	return t, nil
}
