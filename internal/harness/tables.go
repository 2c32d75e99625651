package harness

import (
	"fmt"
	"slices"

	"hprefetch/internal/core"
	"hprefetch/internal/workloads"
)

// table2 reproduces Table 2: average prefetch distance, accuracy, and
// L1-I/L2 coverage per scheme across the workloads.
var table2 = &decl{
	id:       "Table 2",
	title:    "Average prefetch distance, accuracy and coverage",
	shape:    bySchemes,
	variants: schemes(SchemeEFetch, SchemeMANA, SchemeEIP, SchemeHier),
	labels:   []string{"metric"},
	metrics: []metric{
		{name: "Distance (blocks)", of: avgDistance, cell: f1, paper: &paperRow{name: "distance", cell: shortest,
			values: []paperValue{{SchemeEFetch, 3.4}, {SchemeMANA, 4.3}, {SchemeEIP, 6.1}, {SchemeHier, 90}}}},
		{name: "Accuracy (L1-I)", of: accuracy, cell: pct, paper: &paperRow{name: "accuracy", unit: "%", cell: pctNum,
			values: []paperValue{{SchemeEFetch, 0.58}, {SchemeMANA, 0.55}, {SchemeEIP, 0.30}, {SchemeHier, 0.53}}}},
		{name: "Coverage (L1-I)", of: coverageL1, cell: pct, paper: &paperRow{name: "covL1", unit: "%", cell: pctNum,
			values: []paperValue{{SchemeEFetch, 0.10}, {SchemeMANA, 0.14}, {SchemeEIP, 0.48}, {SchemeHier, 0.37}}}},
		{name: "Coverage (L2)", of: coverageL2, cell: pct, paper: &paperRow{name: "covL2", unit: "%", cell: pctNum,
			values: []paperValue{{SchemeEFetch, 0.08}, {SchemeMANA, 0.12}, {SchemeEIP, 0.23}, {SchemeHier, 0.54}}}},
	},
}

// table3 reproduces Table 3: accuracy, coverage and speedup of every
// prefetcher under varying L1-I capacities.
var table3 = &decl{
	id:       "Table 3",
	title:    "Prefetcher accuracy, coverage and speedup across L1-I sizes",
	base:     baselineConfig,
	variants: slices.Concat(l1iSizes(SchemeEFetch), l1iSizes(SchemeMANA), l1iSizes(SchemeEIP), l1iSizes(SchemeHier)),
	labels:   []string{"scheme", "L1-I"},
	metrics: []metric{
		{name: "accuracy", of: accuracy, cell: pct},
		{name: "coverage", of: coverageL1, cell: pct},
		{name: "speedup", of: speedup, cell: spd},
	},
	notes: []string{"paper: IPC gains shrink as the L1-I grows; Hierarchical keeps a 5.1% edge even at 256KB"},
}

// l1iSizes declares Table 3's L1-I capacities for one scheme.
func l1iSizes(s Scheme) []variant {
	return values(s, []string{string(s)}, []int{32, 64, 128, 256}, "KB", func(rc *RunConfig, kb int) {
		rc.Params.L1ISets = kb * 1024 / 64 / rc.Params.L1IWays
	})
}

// table4BundleStats reproduces Table 4: per-binary static Bundle counts
// and dynamic Bundle behaviour (footprint, execution cycles, Jaccard).
func table4BundleStats(rc RunConfig) (*Table, error) {
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

// ablation exercises the Hierarchical Prefetcher's design choices the
// paper argues for: superseding records with the most recent execution
// (vs recording once) and num-insts pacing (vs unpaced streaming).
var ablation = &decl{
	id:    "Ablation",
	title: "Hierarchical design-choice ablations (mean over workloads)",
	base:  baselineConfig,
	variants: []variant{
		{[]string{"replay-latest + pacing (paper)"}, SchemeHier, hierConfig(func(c *core.Config) {})},
		{[]string{"record-once"}, SchemeHier, hierConfig(func(c *core.Config) { c.RecordOnce = true })},
		{[]string{"no pacing"}, SchemeHier, hierConfig(func(c *core.Config) { c.DisablePacing = true })},
		{[]string{"record-once + no pacing"}, SchemeHier, hierConfig(func(c *core.Config) { c.RecordOnce, c.DisablePacing = true, true })},
	},
	labels: []string{"variant"},
	metrics: []metric{
		{name: "speedup", of: speedup, cell: spd},
		{name: "accuracy", of: accuracy, cell: pct},
		{name: "covL1", of: coverageL1, cell: pct},
		{name: "covL2", of: coverageL2, cell: pct},
	},
	notes: []string{"the paper's §5.3.4-5.3.5 rationale: most-recent records unlearn sporadic paths; pacing protects the L1-I"},
}
