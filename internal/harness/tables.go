package harness

import (
	"fmt"
	"sync"

	"hprefetch/internal/core"
	"hprefetch/internal/workloads"
)

// Table2Summary reproduces Table 2: average prefetch distance, accuracy,
// and L1-I/L2 coverage per scheme across the workloads.
func Table2Summary(rc RunConfig) (*Table, error) {
	t := &Table{
		ID:     "Table 2",
		Title:  "Average prefetch distance, accuracy and coverage",
		Header: []string{"metric", "EFetch", "MANA", "EIP", "Hierarchical"},
	}
	schemes := []Scheme{SchemeEFetch, SchemeMANA, SchemeEIP, SchemeHier}
	var dist, acc, covL1, covL2 []string
	for _, s := range schemes {
		var ds, as, c1s, c2s []float64
		for _, w := range rc.workloadList() {
			r, err := Run(w, s, rc)
			if err != nil {
				return nil, err
			}
			ds = append(ds, r.Stats.PFAvgDistance())
			as = append(as, r.Stats.PFAccuracy())
			c1s = append(c1s, r.Stats.PFCoverageL1())
			c2s = append(c2s, r.Stats.PFCoverageL2())
		}
		dist = append(dist, f1(mean(ds)))
		acc = append(acc, pct(mean(as)))
		covL1 = append(covL1, pct(mean(c1s)))
		covL2 = append(covL2, pct(mean(c2s)))
	}
	t.Rows = append(t.Rows,
		append([]string{"Distance (blocks)"}, dist...),
		append([]string{"Accuracy (L1-I)"}, acc...),
		append([]string{"Coverage (L1-I)"}, covL1...),
		append([]string{"Coverage (L2)"}, covL2...),
	)
	t.Notes = append(t.Notes,
		"paper: distance 3.4/4.3/6.1/90; accuracy 58/55/30/53%; covL1 10/14/48/37%; covL2 8/12/23/54%")
	return t, nil
}

// Table3L1ISweep reproduces Table 3: accuracy, coverage and speedup of
// every prefetcher under varying L1-I capacities.
func Table3L1ISweep(rc RunConfig, sizesKB []int) (*Table, error) {
	if len(sizesKB) == 0 {
		sizesKB = []int{32, 64, 128, 256}
	}
	t := &Table{
		ID:     "Table 3",
		Title:  "Prefetcher accuracy, coverage and speedup across L1-I sizes",
		Header: []string{"scheme", "L1-I", "accuracy", "coverage", "speedup"},
	}
	for _, s := range []Scheme{SchemeEFetch, SchemeMANA, SchemeEIP, SchemeHier} {
		for _, kb := range sizesKB {
			sub := rc
			sub.Params.L1ISets = kb * 1024 / 64 / sub.Params.L1IWays
			accs, covs, spds, _ := collect(sub, s)
			t.Rows = append(t.Rows, []string{
				string(s), fmt.Sprintf("%dKB", kb),
				pct(mean(accs)), pct(mean(covs)), spd(mean(spds)),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper: IPC gains shrink as the L1-I grows; Hierarchical keeps a 5.1% edge even at 256KB")
	return t, nil
}

// Table4BundleStats reproduces Table 4: per-binary static Bundle counts
// and dynamic Bundle behaviour (footprint, execution cycles, Jaccard).
func Table4BundleStats(rc RunConfig) (*Table, error) {
	t := &Table{
		ID:    "Table 4",
		Title: "Bundle statistics (static identification + dynamic behaviour)",
		Header: []string{
			"benchmark", "static bundles", "total funcs", "% bundles",
			"avg footprint (KB)", "avg exe cycles", "avg Jaccard",
		},
	}
	names := rc.Workloads
	if len(names) == 0 {
		names = workloads.Table4Names()
	}
	sub := rc
	sub.TrackBundles = true
	var fps, cycs, jacs, pcts []float64
	var statics, totals float64
	for _, w := range names {
		built, err := workloads.Build(w)
		if err != nil {
			return nil, err
		}
		nStatic := len(built.Loaded.Entries)
		total := built.Loaded.Prog.TextFuncs()
		frac := float64(nStatic) / float64(total)
		r, err := Run(w, SchemeHier, sub)
		if err != nil {
			return nil, err
		}
		b := r.Bundle
		t.Rows = append(t.Rows, []string{
			w, fmt.Sprint(nStatic), fmt.Sprint(total), pct(frac),
			f1(b.AvgFootprintKB), f1(b.AvgExecCycles), f3(b.AvgJaccard),
		})
		statics += float64(nStatic)
		totals += float64(total)
		pcts = append(pcts, frac)
		fps = append(fps, b.AvgFootprintKB)
		cycs = append(cycs, b.AvgExecCycles)
		jacs = append(jacs, b.AvgJaccard)
	}
	t.Rows = append(t.Rows, []string{
		"MEAN", f1(statics / float64(len(names))), f1(totals / float64(len(names))),
		pct(mean(pcts)), f1(mean(fps)), f1(mean(cycs)), f3(mean(jacs)),
	})
	t.Notes = append(t.Notes,
		"paper means: 3861 bundles of 126378 funcs (3.67%), 42.4KB footprint, 63045 cycles, Jaccard 0.881")
	return t, nil
}

// paperIDs are the evaluation's experiments in paper order — the set
// cmd/hpsim's `all` mode regenerates (ablation and degradation are
// extras, run by id only).
var paperIDs = []string{
	"fig1", "fig2a", "fig2b", "fig2c", "fig3", "fig4", "fig9", "fig10",
	"fig11", "fig12", "fig13", "fig14", "fig15a", "fig15b", "fig16",
	"fig17", "table2", "table3", "table4",
}

// AllExperiments runs every figure and table at the given configuration,
// in paper order. It is the engine behind cmd/hpsim's `all` mode.
func AllExperiments(rc RunConfig) ([]*Table, error) {
	return Experiments(paperIDs, rc, 1)
}

// AllExperimentsParallel is AllExperiments with up to parallel
// experiment generators running concurrently.
func AllExperimentsParallel(rc RunConfig, parallel int) ([]*Table, error) {
	return Experiments(paperIDs, rc, parallel)
}

// Experiments runs the named experiments, with up to parallel generators
// in flight at once (parallel <= 1 runs serially). Output is
// deterministic regardless of scheduling: tables come back in ids order,
// each table's rows are produced by its generator's own serial loop, and
// the shared single-flight Runner guarantees concurrent generators that
// need the same (workload, scheme) run share one simulation rather than
// racing. On failure the tables for every id before the first failing
// one are returned alongside the error.
func Experiments(ids []string, rc RunConfig, parallel int) ([]*Table, error) {
	if parallel <= 1 {
		var out []*Table
		for _, id := range ids {
			tbl, err := Experiment(id, rc)
			if err != nil {
				return out, err
			}
			out = append(out, tbl)
		}
		return out, nil
	}
	type slot struct {
		tbl *Table
		err error
	}
	slots := make([]slot, len(ids))
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, id string) {
			defer wg.Done()
			defer func() { <-sem }()
			tbl, err := Experiment(id, rc)
			slots[i] = slot{tbl, err}
		}(i, id)
	}
	wg.Wait()
	var out []*Table
	for i := range slots {
		if slots[i].err != nil {
			return out, slots[i].err
		}
		out = append(out, slots[i].tbl)
	}
	return out, nil
}

// Experiment looks an experiment up by its figure/table identifier
// ("fig9", "table4", ...), for the CLI.
func Experiment(id string, rc RunConfig) (*Table, error) {
	switch id {
	case "fig1":
		return Fig1StageFootprints(rc)
	case "fig2a":
		return Fig2aManaLookahead(rc, nil)
	case "fig2b":
		return Fig2bEFetchLookahead(rc, nil)
	case "fig2c":
		return Fig2cEIPDistance(rc)
	case "fig3":
		return Fig3DistanceAccuracyCoverage(rc)
	case "fig4":
		return Fig4TriggerSimilarity(rc, nil)
	case "fig9":
		return Fig9Speedup(rc)
	case "fig10":
		return Fig10LatePrefetches(rc)
	case "fig11":
		return Fig11MissLatency(rc)
	case "fig12":
		return Fig12LongRange(rc)
	case "fig13":
		return Fig13MetadataSensitivity(rc, nil, nil)
	case "fig14":
		return Fig14InfiniteBTB(rc)
	case "fig15a":
		return Fig15aFTQ(rc, nil)
	case "fig15b":
		return Fig15bITLB(rc, nil)
	case "fig16":
		return Fig16Bandwidth(rc)
	case "fig17":
		return Fig17L2Prefetch(rc)
	case "table2":
		return Table2Summary(rc)
	case "table3":
		return Table3L1ISweep(rc, nil)
	case "table4":
		return Table4BundleStats(rc)
	case "ablation":
		return Ablations(rc)
	case "degradation":
		return DegradationTable(rc)
	case "microservice":
		return MicroserviceTable(rc)
	case "throttling":
		return ThrottlingTable(rc)
	}
	return nil, fmt.Errorf("harness: unknown experiment %q (fig1..fig17, table2..table4, ablation, degradation, microservice, throttling)", id)
}

// ExperimentIDs lists valid Experiment identifiers in paper order.
func ExperimentIDs() []string {
	return append(append([]string{}, paperIDs...), "ablation", "degradation", "microservice", "throttling")
}

// Ablations exercises the Hierarchical Prefetcher's design choices the
// paper argues for: superseding records with the most recent execution
// (vs recording once) and num-insts pacing (vs unpaced streaming).
func Ablations(rc RunConfig) (*Table, error) {
	t := &Table{
		ID:     "Ablation",
		Title:  "Hierarchical design-choice ablations (mean over workloads)",
		Header: []string{"variant", "speedup", "accuracy", "covL1", "covL2"},
	}
	variants := []struct {
		name string
		mut  func(c *core.Config)
	}{
		{"replay-latest + pacing (paper)", func(c *core.Config) {}},
		{"record-once", func(c *core.Config) { c.RecordOnce = true }},
		{"no pacing", func(c *core.Config) { c.DisablePacing = true }},
		{"record-once + no pacing", func(c *core.Config) { c.RecordOnce = true; c.DisablePacing = true }},
	}
	for _, v := range variants {
		cfg := core.DefaultConfig()
		v.mut(&cfg)
		sub := rc
		sub.HierConfig = &cfg
		accs, covs, spds, _ := collect(sub, SchemeHier)
		var cov2s []float64
		for _, w := range sub.workloadList() {
			r, err := Run(w, SchemeHier, sub)
			if err != nil {
				return nil, err
			}
			cov2s = append(cov2s, r.Stats.PFCoverageL2())
		}
		t.Rows = append(t.Rows, []string{
			v.name, spd(mean(spds)), pct(mean(accs)), pct(mean(covs)), pct(mean(cov2s)),
		})
	}
	t.Notes = append(t.Notes,
		"the paper's §5.3.4-5.3.5 rationale: most-recent records unlearn sporadic paths; pacing protects the L1-I")
	return t, nil
}
