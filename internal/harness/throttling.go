package harness

import (
	"fmt"

	"hprefetch/internal/sim"
	"hprefetch/internal/workloads"
)

// throttlingDegrees is the static-degree sweep the adaptive governor is
// judged against: GHB issue degree (and Hierarchical burst budget).
var throttlingDegrees = []int{1, 2, 4, 8}

// throttlingWorkloads resolves the experiment's workload set: the
// configured restriction, or the full matrix plus chain-burst (the
// bursty microservice scenario exercises exactly the phase behaviour a
// feedback governor exists for).
func throttlingWorkloads(rc RunConfig) []string {
	if len(rc.Workloads) > 0 {
		return rc.Workloads
	}
	return append(workloads.Names(), "chain-burst")
}

// throttlingRow renders one run of the experiment.
func throttlingRow(workload string, scheme Scheme, mode string, r *Result) []string {
	st := r.Stats
	row := []string{
		workload, string(scheme), mode,
		f3(st.IPC()),
		fmt.Sprintf("%d", st.PFIssued),
		fmt.Sprintf("%d", st.PFUseless),
		pct(st.PFAccuracy()),
		pct(st.PFLateFraction()),
		pct(st.PFTLBMissFraction()),
		fmt.Sprintf("%d", st.PFTLBDropped),
		f2(float64(st.StallScaled) / sim.CycleScale / 1e6),
	}
	if r.Governor != nil {
		row = append(row,
			fmt.Sprintf("%d", r.Governor.StepUps),
			fmt.Sprintf("%d", r.Governor.StepDowns),
			r.Governor.Level)
	} else {
		row = append(row, "-", "-", "-")
	}
	return row
}

// ThrottlingTable compares static prefetch degrees against the adaptive
// feedback governor, per workload: the GHB baseline across the static
// degree sweep and governed, the TLB-aware GHB variant, and the
// Hierarchical prefetcher's bundle-issue policy static and governed. A
// note per workload states whether adaptive beat the best static GHB
// degree — fewer useless prefetches at equal-or-better fetch stall.
func ThrottlingTable(rc RunConfig) (*Table, error) {
	t := &Table{
		ID:    "throttling",
		Title: "Static vs. feedback-directed adaptive prefetch degree",
		Header: []string{
			"Workload", "Scheme", "Mode", "IPC", "PFIssued", "PFUseless",
			"Acc", "Late", "TLBMiss", "TLBDrop", "StallMCyc",
			"GovUp", "GovDown", "GovLevel",
		},
	}
	for _, w := range throttlingWorkloads(rc) {
		statics, best, err := bestStatic(w, rc)
		if err != nil {
			return nil, err
		}
		for i, r := range statics {
			t.Rows = append(t.Rows, throttlingRow(w, SchemeGHB, fmt.Sprintf("static-%d", throttlingDegrees[i]), r))
		}
		gcfg := rc
		gcfg.Governed = true
		adaptive, err := Run(w, SchemeGHB, gcfg)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, throttlingRow(w, SchemeGHB, "adaptive", adaptive))

		tlb, err := Run(w, SchemeGHBTLB, rc)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, throttlingRow(w, SchemeGHBTLB, "static-4", tlb))

		hierStatic, err := Run(w, SchemeHier, rc)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, throttlingRow(w, SchemeHier, "static-8", hierStatic))
		hg := rc
		hg.Governed = true
		hierAdaptive, err := Run(w, SchemeHier, hg)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, throttlingRow(w, SchemeHier, "adaptive", hierAdaptive))

		as, bs := adaptive.Stats, statics[best].Stats
		verdict := "no"
		if adaptiveWins(as, bs) {
			verdict = "WIN"
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%s: GHB adaptive vs best static (degree %d): useless %d vs %d, stall %.2f vs %.2f Mcyc — %s",
			w, throttlingDegrees[best], as.PFUseless, bs.PFUseless,
			float64(as.StallScaled)/sim.CycleScale/1e6,
			float64(bs.StallScaled)/sim.CycleScale/1e6, verdict))
	}
	t.Notes = append(t.Notes,
		"Mode static-N fixes the issue degree (GHB) or replay burst budget (Hierarchical); adaptive lets the feedback governor move degree/lookahead between conservative, moderate and aggressive from interval accuracy/lateness/pollution.",
		"TLBMiss is the share of issued prefetches whose page missed the ITLB at issue; TLBDrop counts prefetches the TLB-aware scheme withheld instead.",
	)
	return t, nil
}

// ThrottlingWins reports, per workload, whether the adaptive GHB run
// beat the best static degree (fewer PFUseless at equal-or-better fetch
// stall). Tests assert at least one win.
func ThrottlingWins(rc RunConfig) (map[string]bool, error) {
	wins := map[string]bool{}
	for _, w := range throttlingWorkloads(rc) {
		statics, best, err := bestStatic(w, rc)
		if err != nil {
			return nil, err
		}
		gcfg := rc
		gcfg.Governed = true
		a, err := Run(w, SchemeGHB, gcfg)
		if err != nil {
			return nil, err
		}
		wins[w] = adaptiveWins(a.Stats, statics[best].Stats)
	}
	return wins, nil
}

// bestStatic runs GHB on workload at every static degree of
// throttlingDegrees, in order, and picks the best: the lowest fetch
// stall, ties broken by fewer useless prefetches.
func bestStatic(workload string, rc RunConfig) (runs []*Result, best int, err error) {
	for i, d := range throttlingDegrees {
		sub := rc
		sub.PFDegree = d
		r, err := Run(workload, SchemeGHB, sub)
		if err != nil {
			return nil, 0, err
		}
		runs = append(runs, r)
		if b := runs[best].Stats; r.Stats.StallScaled < b.StallScaled ||
			(r.Stats.StallScaled == b.StallScaled && r.Stats.PFUseless < b.PFUseless) {
			best = i
		}
	}
	return runs, best, nil
}

// adaptiveWins is the verdict the throttling experiment reads: the
// governed run issued fewer useless prefetches than the best static
// degree at equal-or-better fetch stall.
func adaptiveWins(adaptive, static *sim.Stats) bool {
	return adaptive.PFUseless < static.PFUseless && adaptive.StallScaled <= static.StallScaled
}
