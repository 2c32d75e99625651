package hprefetch

import (
	"strings"
	"testing"

	"hprefetch/internal/harness"
)

func quickOpt() *Options {
	return &Options{
		WarmInstr:    800_000,
		MeasureInstr: 1_200_000,
		Workloads:    []string{"gin"},
	}
}

func TestSimulateBaselineAndHier(t *testing.T) {
	base, err := Simulate("gin", FDIP, quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if base.IPC <= 0 || base.SpeedupOverFDIP != 0 {
		t.Errorf("baseline stats wrong: %+v", base)
	}
	hier, err := Simulate("gin", Hierarchical, quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if hier.IPC <= 0 {
		t.Error("zero IPC")
	}
	if hier.AvgPrefetchDistance <= 0 || hier.CoverageL1 <= 0 {
		t.Errorf("prefetch metrics missing: %+v", hier)
	}
	if base.StatsDigest == "" || hier.StatsDigest == "" {
		t.Error("runs carry no stats digest")
	}
	if base.StatsDigest == hier.StatsDigest {
		t.Error("different schemes share a digest; fingerprint too coarse")
	}
	// Determinism at the public API: repeating a run reproduces the
	// digest exactly (the underlying simulation is cached, but the
	// digest is recomputed from its counters either way).
	again, err := Simulate("gin", Hierarchical, quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if again.StatsDigest != hier.StatsDigest {
		t.Errorf("digest drifted across identical Simulate calls: %q vs %q",
			hier.StatsDigest, again.StatsDigest)
	}
}

func TestSimulateUnknownWorkload(t *testing.T) {
	if _, err := Simulate("nope", FDIP, quickOpt()); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestRunExperimentFig1(t *testing.T) {
	tbl, err := RunExperiment("fig1", quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ID != "Figure 1" || len(tbl.Rows) == 0 {
		t.Errorf("bad table: %+v", tbl)
	}
	if !strings.Contains(tbl.String(), "Figure 1") {
		t.Error("rendering broken")
	}
}

func TestExperimentIDsCoverPaper(t *testing.T) {
	ids := ExperimentIDs()
	want := map[string]bool{"fig1": true, "fig9": true, "fig17": true, "table2": true, "table4": true}
	seen := map[string]bool{}
	for _, id := range ids {
		seen[id] = true
	}
	for w := range want {
		if !seen[w] {
			t.Errorf("experiment %s missing", w)
		}
	}
}

func TestAnalyzeWorkload(t *testing.T) {
	r, err := AnalyzeWorkload("gin")
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalFunctions < 10_000 {
		t.Errorf("gin should be a large binary, got %d functions", r.TotalFunctions)
	}
	if r.Entries == 0 || r.EntryFraction <= 0 || r.EntryFraction > 0.2 {
		t.Errorf("entry stats implausible: %+v", r)
	}
	if r.TaggedInstructions < r.Entries {
		t.Error("every entry has at least its return tagged")
	}
	if r.ThresholdBytes != 200<<10 {
		t.Errorf("threshold %d, want the paper's 200KB", r.ThresholdBytes)
	}
}

func TestWorkloadsAndSchemes(t *testing.T) {
	if len(Workloads()) != 11 {
		t.Errorf("paper evaluates 11 workloads, got %d", len(Workloads()))
	}
	if len(Schemes()) != 5 {
		t.Errorf("5 schemes expected, got %d", len(Schemes()))
	}
	if MachineDescription() == "" {
		t.Error("empty machine description")
	}
}

func TestNilOptions(t *testing.T) {
	// nil options must fall back to defaults without panicking; use the
	// cheapest call path (analysis needs no simulation).
	if _, err := AnalyzeWorkload("gorm"); err != nil {
		t.Fatal(err)
	}
	rc, err := config(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rc.MeasureInstr == 0 {
		t.Error("nil options produced empty config")
	}
}

func TestFaultOptionParsing(t *testing.T) {
	o := &Options{Fault: "tag-flip:0.001:7"}
	rc, err := o.Config()
	if err != nil {
		t.Fatal(err)
	}
	if !rc.Fault.Enabled() || rc.Fault.Rate != 0.001 || rc.Fault.Seed != 7 {
		t.Errorf("fault spec misparsed: %+v", rc.Fault)
	}
	bad := &Options{Fault: "no-such-class"}
	if _, err := bad.Config(); err == nil {
		t.Error("invalid fault spec accepted")
	}
	if _, err := Simulate("gin", FDIP, bad); err == nil {
		t.Error("Simulate accepted an invalid fault spec")
	}
}

func TestSimulateUnderFault(t *testing.T) {
	o := quickOpt()
	o.Fault = "bundle-corrupt"
	st, err := Simulate("gin", Hierarchical, o)
	if err != nil {
		t.Fatal(err)
	}
	if st.IPC <= 0 {
		t.Error("zero IPC under injection")
	}
	if st.TagDrops == 0 {
		t.Error("bundle corruption dropped no tags — injection inert?")
	}
}

// TestParallelSweepByteIdentical drives the public -parallel path:
// pre-warmed concurrent sweeps must render exactly the tables a serial
// sweep renders.
func TestParallelSweepByteIdentical(t *testing.T) {
	opt := &Options{
		WarmInstr:    60_000,
		MeasureInstr: 120_000,
		Workloads:    []string{"gin", "tidb-tpcc"},
	}
	ids := []string{"fig9", "table2"}
	render := func(o *Options) string {
		var b strings.Builder
		for _, id := range ids {
			tbl, err := RunExperiment(id, o)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(tbl.String())
		}
		return b.String()
	}

	harness.DropCache()
	serial := render(opt)

	par := *opt
	par.Parallel = 4
	harness.DropCache()
	parallel := render(&par)

	if serial != parallel {
		t.Fatalf("parallel sweep output differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
	}
}

// TestRunSweepForwardsKnobs: a sweep applies every knob of its Options
// to each run, exactly as Simulate does, instead of silently running
// the plain configuration.
func TestRunSweepForwardsKnobs(t *testing.T) {
	plain := &Options{WarmInstr: 100_000, MeasureInstr: 200_000, Workloads: []string{"gin"}}
	governed := *plain
	governed.Governed = true

	p, err := RunSweep([]string{"GHB"}, plain)
	if err != nil {
		t.Fatal(err)
	}
	g, err := RunSweep([]string{"GHB"}, &governed)
	if err != nil {
		t.Fatal(err)
	}
	if p.Digest() == g.Digest() {
		t.Fatal("governed sweep has the plain sweep's digest: Governed was dropped")
	}
	st, err := Simulate("gin", GHB, &governed)
	if err != nil {
		t.Fatal(err)
	}
	if want := "digest gin/GHB = " + st.StatsDigest; len(g.Notes) != 1 || g.Notes[0] != want {
		t.Fatalf("governed sweep notes %q, want [%q]", g.Notes, want)
	}

	_, err = RunSweep([]string{"FDIP"}, &governed)
	if err == nil || !strings.Contains(err.Error(), "does not support adaptive throttling") {
		t.Fatalf("governed FDIP sweep: got %v, want the ungovernable-scheme error", err)
	}
}
