package harness

import (
	"fmt"

	"hprefetch/internal/core"
	"hprefetch/internal/isa"
	"hprefetch/internal/program"
	"hprefetch/internal/sim"
	"hprefetch/internal/tracefile"
	"hprefetch/internal/workloads"
	"hprefetch/internal/xrand"
)

// Fig1StageFootprints reproduces Figure 1: the TiDB request pipeline and
// the average instruction footprint (touched cache blocks) of each stage
// during TPC-C-like execution. Like runOne, it honours rc.TracePath /
// rc.TraceDir: the stage view computed from a recorded trace is
// identical to the live one, because stage attribution rides in the
// trace alongside the events.
func Fig1StageFootprints(rc RunConfig) (*Table, error) {
	name := "tidb-tpcc"
	if len(rc.Workloads) == 1 {
		name = rc.Workloads[0]
	}
	built, err := workloads.Build(name)
	if err != nil {
		return nil, err
	}
	var eng tracefile.Source = built.NewEngine()
	tracePath := rc.TracePath
	if tracePath == "" && rc.TraceDir != "" {
		tracePath = tracePathFor(rc.TraceDir, name)
	}
	if tracePath != "" {
		tr, err := loadTrace(tracePath)
		if err != nil {
			return nil, err
		}
		if tm := tr.Meta(); tm.Workload != name || tm.Seed != built.Workload.TraceSeed {
			return nil, fmt.Errorf("harness: trace %s was recorded from workload %q seed %d, want %q seed %d",
				tracePath, tm.Workload, tm.Seed, name, built.Workload.TraceSeed)
		}
		eng = tr.Replay()
	}
	prog := built.Loaded.Prog
	nStages := len(prog.Stages)
	cur := make([]map[isa.Block]struct{}, nStages)
	sums := make([]uint64, nStages)
	counts := make([]uint64, nStages)
	flush := func() {
		for s := 0; s < nStages; s++ {
			if cur[s] != nil && len(cur[s]) > 0 {
				sums[s] += uint64(len(cur[s]))
				counts[s]++
			}
			cur[s] = nil
		}
	}
	var instr uint64
	budget := rc.MeasureInstr
	if budget == 0 {
		budget = 4_000_000
	}
	for instr < budget {
		ev := eng.Next()
		if ev.NumInstr == 0 {
			// Finite source (a trace) ran out before the budget; a torn
			// tail is an error, a clean end just truncates the view.
			if err := sourceErr(eng); err != nil {
				return nil, fmt.Errorf("harness: figure 1: %w", err)
			}
			break
		}
		instr += uint64(ev.NumInstr)
		if ev.Branch == isa.BrJump && ev.Func == prog.Entry {
			flush() // request boundary
			continue
		}
		s := eng.Stage()
		if s == program.NoStage {
			continue
		}
		if cur[s] == nil {
			cur[s] = make(map[isa.Block]struct{}, 1024)
		}
		cur[s][ev.Block()] = struct{}{}
	}
	flush()
	t := &Table{
		ID:     "Figure 1",
		Title:  name + " stage pipeline and average per-request stage footprints",
		Header: []string{"stage", "avg footprint (KB)", "requests observed"},
	}
	for s := 0; s < nStages; s++ {
		kb := 0.0
		if counts[s] > 0 {
			kb = float64(sums[s]) / float64(counts[s]) * isa.BlockSize / 1024
		}
		t.Rows = append(t.Rows, []string{prog.Stages[s].Name, f1(kb), fmt.Sprint(counts[s])})
	}
	t.Notes = append(t.Notes, "paper reports 40-280KB per stage on real TiDB")
	return t, nil
}

// Fig2aManaLookahead reproduces Figure 2a: MANA accuracy and miss
// reduction as its look-ahead (spatial regions) grows.
func Fig2aManaLookahead(rc RunConfig, lookaheads []int) (*Table, error) {
	if len(lookaheads) == 0 {
		lookaheads = []int{1, 2, 3, 4, 6, 8, 12, 16}
	}
	t := &Table{
		ID:     "Figure 2a",
		Title:  "MANA look-ahead (spatial regions) vs accuracy and covered misses",
		Header: []string{"look-ahead", "accuracy", "coverage", "speedup", "avg distance"},
	}
	for _, la := range lookaheads {
		sub := rc
		sub.ManaLookahead = la
		accs, covs, spds, dists := collect(sub, SchemeMANA)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(la), pct(mean(accs)), pct(mean(covs)), spd(mean(spds)), f1(mean(dists)),
		})
	}
	t.Notes = append(t.Notes, "paper: accuracy declines with look-ahead; coverage saturates past 4 regions")
	return t, nil
}

// Fig2bEFetchLookahead reproduces Figure 2b for EFetch (callee chain
// depth).
func Fig2bEFetchLookahead(rc RunConfig, lookaheads []int) (*Table, error) {
	if len(lookaheads) == 0 {
		lookaheads = []int{1, 2, 3, 5, 7, 10, 16}
	}
	t := &Table{
		ID:     "Figure 2b",
		Title:  "EFetch look-ahead (callees) vs accuracy and covered misses",
		Header: []string{"look-ahead", "accuracy", "coverage", "speedup", "avg distance"},
	}
	for _, la := range lookaheads {
		sub := rc
		sub.EFetchLookahead = la
		accs, covs, spds, dists := collect(sub, SchemeEFetch)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(la), pct(mean(accs)), pct(mean(covs)), spd(mean(spds)), f1(mean(dists)),
		})
	}
	t.Notes = append(t.Notes, "paper: coverage fails to improve past ~7 callees")
	return t, nil
}

// Fig2cEIPDistance reproduces Figure 2c: EIP accuracy bucketed by
// prefetch distance.
func Fig2cEIPDistance(rc RunConfig) (*Table, error) {
	t := &Table{
		ID:     "Figure 2c",
		Title:  "EIP accuracy by prefetch distance (cache blocks)",
		Header: []string{"distance bucket", "uses", "fully timely", "accuracy"},
	}
	hist := make([]uint64, len(sim.DistanceBuckets))
	useful := make([]uint64, len(sim.DistanceBuckets))
	for _, w := range rc.workloadList() {
		r, err := Run(w, SchemeEIP, rc)
		if err != nil {
			return nil, err
		}
		for i := range hist {
			hist[i] += r.Stats.PFDistHist[i]
			useful[i] += r.Stats.PFDistUseful[i]
		}
	}
	lo := uint64(0)
	for i, hi := range sim.DistanceBuckets {
		label := fmt.Sprintf("%d-%d", lo, hi)
		if i == len(sim.DistanceBuckets)-1 {
			label = fmt.Sprintf(">%d", lo)
		}
		acc := 0.0
		if hist[i] > 0 {
			acc = float64(useful[i]) / float64(hist[i])
		}
		t.Rows = append(t.Rows, []string{label, fmt.Sprint(hist[i]), fmt.Sprint(useful[i]), pct(acc)})
		lo = hi
	}
	t.Notes = append(t.Notes, "paper: accuracy declines with distance")
	return t, nil
}

// collect runs a scheme over all configured workloads and gathers
// accuracy, L1 coverage, speedup, and average distance.
func collect(rc RunConfig, s Scheme) (accs, covs, spds, dists []float64) {
	for _, w := range rc.workloadList() {
		r, err := Run(w, s, rc)
		if err != nil {
			continue
		}
		sp, err := Speedup(w, s, rc)
		if err != nil {
			continue
		}
		accs = append(accs, r.Stats.PFAccuracy())
		covs = append(covs, r.Stats.PFCoverageL1())
		spds = append(spds, sp)
		dists = append(dists, r.Stats.PFAvgDistance())
	}
	return
}

// Fig3DistanceAccuracyCoverage reproduces Figure 3: accuracy and
// coverage of the three fine-grained prefetchers against their average
// prefetch distance.
func Fig3DistanceAccuracyCoverage(rc RunConfig) (*Table, error) {
	t := &Table{
		ID:     "Figure 3",
		Title:  "Accuracy and coverage vs average prefetch distance",
		Header: []string{"scheme", "avg distance (blocks)", "accuracy", "coverage"},
	}
	for _, s := range []Scheme{SchemeEFetch, SchemeMANA, SchemeEIP} {
		accs, covs, _, dists := collect(rc, s)
		t.Rows = append(t.Rows, []string{string(s), f1(mean(dists)), pct(mean(accs)), pct(mean(covs))})
	}
	t.Notes = append(t.Notes, "paper: accuracy inversely correlates with distance; coverage grows with it")
	return t, nil
}

// Fig4TriggerSimilarity reproduces Figure 4: the Jaccard similarity of
// instruction footprints following successive occurrences of the same
// trigger, as the footprint window grows — computed directly on the
// retired stream for each trigger style (EIP: block address; MANA:
// spatial-region base; EFetch: call-stack signature) plus, for contrast,
// the paper's Bundle entries.
func Fig4TriggerSimilarity(rc RunConfig, windows []int) (*Table, error) {
	if len(windows) == 0 {
		windows = []int{16, 64, 256, 512}
	}
	names := rc.workloadList()
	kinds := []string{"EIP (block)", "MANA (region)", "EFetch (signature)", "Bundle (tagged entry)"}
	sums := make([][]float64, len(kinds))
	cnts := make([][]int, len(kinds))
	for k := range kinds {
		sums[k] = make([]float64, len(windows))
		cnts[k] = make([]int, len(windows))
	}
	for _, w := range names {
		res, err := triggerSimilarity(w, rc, windows)
		if err != nil {
			return nil, err
		}
		for k := range kinds {
			for wi := range windows {
				if res.counts[k][wi] > 0 {
					sums[k][wi] += res.sims[k][wi]
					cnts[k][wi]++
				}
			}
		}
	}
	t := &Table{
		ID:     "Figure 4",
		Title:  "Footprint similarity (Jaccard) after repeated occurrences of the same trigger",
		Header: append([]string{"trigger"}, mapStrings(windows)...),
	}
	for k, kind := range kinds {
		row := []string{kind}
		for wi := range windows {
			v := 0.0
			if cnts[k][wi] > 0 {
				v = sums[k][wi] / float64(cnts[k][wi])
			}
			row = append(row, f2(v))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "paper: fine-grained triggers drop below 0.5 by 64 blocks; Bundles stay high")
	return t, nil
}

func mapStrings(ws []int) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = fmt.Sprintf("w=%d", w)
	}
	return out
}

type simResult struct {
	sims   [][]float64 // [kind][window] mean Jaccard
	counts [][]int
}

// triggerSimilarity samples, for each trigger kind, footprint windows
// following trigger occurrences and averages the Jaccard index between
// consecutive occurrences of the same trigger.
func triggerSimilarity(workload string, rc RunConfig, windows []int) (*simResult, error) {
	built, err := workloads.Build(workload)
	if err != nil {
		return nil, err
	}
	eng := built.NewEngine()
	maxW := windows[len(windows)-1]
	const kinds = 4
	const maxTriggers = 512 // sampled triggers per kind
	const maxOcc = 6        // occurrences averaged per trigger

	type open struct {
		kind, slot int
		blocks     []isa.Block
	}
	type slotState struct {
		prev [][]isa.Block // per window: previous footprint (sorted)
		sum  []float64
		cnt  []int
	}
	states := make([][]*slotState, kinds)
	keys := make([]map[uint64]int, kinds) // trigger key -> slot
	occs := make([]map[uint64]int, kinds)
	for k := 0; k < kinds; k++ {
		states[k] = nil
		keys[k] = make(map[uint64]int, maxTriggers)
		occs[k] = make(map[uint64]int, maxTriggers)
	}
	var opens []*open
	var sig uint64 // rolling call signature (EFetch-style)
	var stack []isa.Addr

	budget := rc.MeasureInstr
	if budget == 0 {
		budget = 3_000_000
	}
	var instr uint64
	lastBlock := isa.Block(0)
	haveLast := false

	noteTrigger := func(kind int, key uint64) {
		if occs[kind][key] >= maxOcc {
			return
		}
		slot, ok := keys[kind][key]
		if !ok {
			if len(keys[kind]) >= maxTriggers {
				return
			}
			slot = len(states[kind])
			keys[kind][key] = slot
			states[kind] = append(states[kind], &slotState{
				prev: make([][]isa.Block, len(windows)),
				sum:  make([]float64, len(windows)),
				cnt:  make([]int, len(windows)),
			})
		}
		occs[kind][key]++
		opens = append(opens, &open{kind: kind, slot: slot, blocks: make([]isa.Block, 0, maxW)})
	}

	for instr < budget {
		ev := eng.Next()
		instr += uint64(ev.NumInstr)
		b := ev.Block()
		newBlock := !haveLast || b != lastBlock
		lastBlock, haveLast = b, true

		if newBlock {
			// Extend open windows; close the ones that filled up.
			keep := opens[:0]
			for _, o := range opens {
				o.blocks = append(o.blocks, b)
				if len(o.blocks) < maxW {
					keep = append(keep, o)
					continue
				}
				st := states[o.kind][o.slot]
				for wi, wlen := range windows {
					cur := uniqueSorted(o.blocks[:wlen])
					if st.prev[wi] != nil {
						st.sum[wi] += jaccard(st.prev[wi], cur)
						st.cnt[wi]++
					}
					st.prev[wi] = cur
				}
			}
			opens = keep

			// Triggers: every new block (EIP), every new region (MANA).
			noteTrigger(0, uint64(b))
			region := uint64(b) / 8
			noteTrigger(1, region)
		}
		switch {
		case ev.Branch.IsCall():
			stack = append(stack, ev.Target)
			if len(stack) > 48 {
				stack = stack[1:]
			}
			sig = 0x6A09E667F3BCC909
			for i := len(stack) - 1; i >= 0 && i >= len(stack)-3; i-- {
				sig = xrand.Mix(sig, uint64(stack[i]))
			}
			noteTrigger(2, sig)
			if ev.Tagged {
				noteTrigger(3, uint64(ev.Target))
			}
		case ev.Branch == isa.BrRet:
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
			if ev.Tagged {
				noteTrigger(3, uint64(ev.Target))
			}
		}
		if len(opens) > 4096 {
			opens = opens[len(opens)-4096:]
		}
	}

	out := &simResult{
		sims:   make([][]float64, kinds),
		counts: make([][]int, kinds),
	}
	for k := 0; k < kinds; k++ {
		out.sims[k] = make([]float64, len(windows))
		out.counts[k] = make([]int, len(windows))
		for wi := range windows {
			var s float64
			var n int
			for _, st := range states[k] {
				if st.cnt[wi] > 0 {
					s += st.sum[wi] / float64(st.cnt[wi])
					n++
				}
			}
			if n > 0 {
				out.sims[k][wi] = s / float64(n)
				out.counts[k][wi] = n
			}
		}
	}
	return out, nil
}

func uniqueSorted(bs []isa.Block) []isa.Block {
	out := append([]isa.Block(nil), bs...)
	sortBlocks(out)
	j := 0
	for i := 0; i < len(out); i++ {
		if j == 0 || out[i] != out[j-1] {
			out[j] = out[i]
			j++
		}
	}
	return out[:j]
}

func sortBlocks(bs []isa.Block) {
	// Insertion sort is fine for the window sizes used here? Windows go
	// to 512 entries; use a simple quicksort via sort-less shell sort.
	for gap := len(bs) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(bs); i++ {
			for j := i; j >= gap && bs[j] < bs[j-gap]; j -= gap {
				bs[j], bs[j-gap] = bs[j-gap], bs[j]
			}
		}
	}
}

// jaccard computes |A∩B| / |A∪B| over sorted unique slices.
func jaccard(a, b []isa.Block) float64 {
	i, j, inter := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Fig9Speedup reproduces Figure 9: IPC speedup over FDIP per workload
// for every scheme, plus the Perfect-L1I bound.
func Fig9Speedup(rc RunConfig) (*Table, error) {
	schemes := append(Schemes()[1:], SchemePerfect)
	t := &Table{
		ID:     "Figure 9",
		Title:  "IPC speedup over the FDIP baseline",
		Header: append([]string{"workload", "FDIP IPC"}, schemeNames(schemes)...),
	}
	sums := make([]float64, len(schemes))
	names := rc.workloadList()
	for _, w := range names {
		base, err := Run(w, SchemeFDIP, rc)
		if err != nil {
			return nil, err
		}
		row := []string{w, f3(base.Stats.IPC())}
		for i, s := range schemes {
			sp, err := Speedup(w, s, rc)
			if err != nil {
				return nil, err
			}
			sums[i] += sp
			row = append(row, spd(sp))
		}
		t.Rows = append(t.Rows, row)
	}
	meanRow := []string{"MEAN", ""}
	for i := range schemes {
		meanRow = append(meanRow, spd(sums[i]/float64(len(names))))
	}
	t.Rows = append(t.Rows, meanRow)
	t.Notes = append(t.Notes,
		"paper means: EFetch +1.4%, MANA +1.6%, EIP +4.0%, Hierarchical +6.6%, Perfect +16.8%")
	return t, nil
}

// Fig10LatePrefetches reproduces Figure 10: the share of each scheme's
// prefetches that arrive late (demand hits an in-flight fill).
func Fig10LatePrefetches(rc RunConfig) (*Table, error) {
	schemes := Schemes()[1:]
	t := &Table{
		ID:     "Figure 10",
		Title:  "Late prefetches (demand hits in the MSHRs) as a share of useful+late",
		Header: append([]string{"workload"}, schemeNames(schemes)...),
	}
	sums := make([]float64, len(schemes))
	names := rc.workloadList()
	for _, w := range names {
		row := []string{w}
		for i, s := range schemes {
			r, err := Run(w, s, rc)
			if err != nil {
				return nil, err
			}
			v := r.Stats.PFLateFraction()
			sums[i] += v
			row = append(row, pct(v))
		}
		t.Rows = append(t.Rows, row)
	}
	meanRow := []string{"MEAN"}
	for i := range schemes {
		meanRow = append(meanRow, pct(sums[i]/float64(len(names))))
	}
	t.Rows = append(t.Rows, meanRow)
	t.Notes = append(t.Notes, "paper means: EFetch 29%, MANA 13%, EIP 7%, Hierarchical 3%")
	return t, nil
}

// Fig11MissLatency reproduces Figure 11: total demand instruction miss
// latency (clean miss latency plus late-fill residuals) per scheme,
// normalised to FDIP.
func Fig11MissLatency(rc RunConfig) (*Table, error) {
	schemes := Schemes()
	t := &Table{
		ID:     "Figure 11",
		Title:  "Demand instruction miss latency relative to FDIP (late residual + clean miss)",
		Header: append([]string{"workload"}, schemeNames(schemes)...),
	}
	names := rc.workloadList()
	sums := make([]float64, len(schemes))
	for _, w := range names {
		base, err := Run(w, SchemeFDIP, rc)
		if err != nil {
			return nil, err
		}
		baseLat := base.Stats.TotalMissLatencyCycles()
		row := []string{w}
		for i, s := range schemes {
			r, err := Run(w, s, rc)
			if err != nil {
				return nil, err
			}
			rel := 1.0
			if baseLat > 0 {
				rel = r.Stats.TotalMissLatencyCycles() / baseLat
			}
			sums[i] += rel
			row = append(row, pct(rel))
		}
		t.Rows = append(t.Rows, row)
	}
	meanRow := []string{"MEAN"}
	for i := range schemes {
		meanRow = append(meanRow, pct(sums[i]/float64(len(names))))
	}
	t.Rows = append(t.Rows, meanRow)
	t.Notes = append(t.Notes, "paper: Hierarchical reduces total miss latency by 38.7%; best prior 19.7%")
	return t, nil
}

// Fig12LongRange reproduces Figure 12: elimination of long-range misses
// (those served beyond the L2 — the top of the reuse-distance
// distribution) relative to the FDIP baseline.
func Fig12LongRange(rc RunConfig) (*Table, error) {
	schemes := Schemes()[1:]
	t := &Table{
		ID:     "Figure 12",
		Title:  "Long-range (beyond-L2) instruction misses eliminated vs FDIP",
		Header: append([]string{"workload"}, schemeNames(schemes)...),
	}
	longRange := func(st *sim.Stats) float64 {
		return float64(st.LateFDIPByLevel[3] + st.LateFDIPByLevel[4] +
			st.LatePFByLevel[3] + st.LatePFByLevel[4] +
			st.ServedLLC + st.ServedMem)
	}
	names := rc.workloadList()
	sums := make([]float64, len(schemes))
	for _, w := range names {
		base, err := Run(w, SchemeFDIP, rc)
		if err != nil {
			return nil, err
		}
		b := longRange(base.Stats)
		row := []string{w}
		for i, s := range schemes {
			r, err := Run(w, s, rc)
			if err != nil {
				return nil, err
			}
			elim := 0.0
			if b > 0 {
				elim = 1 - longRange(r.Stats)/b
			}
			sums[i] += elim
			row = append(row, pct(elim))
		}
		t.Rows = append(t.Rows, row)
	}
	meanRow := []string{"MEAN"}
	for i := range schemes {
		meanRow = append(meanRow, pct(sums[i]/float64(len(names))))
	}
	t.Rows = append(t.Rows, meanRow)
	t.Notes = append(t.Notes, "paper means: Hierarchical 53%, EIP 21%, MANA 11%, EFetch 7%")
	return t, nil
}

// Fig13MetadataSensitivity reproduces Figure 13: mean speedup under
// varying Metadata Address Table and Metadata Buffer sizes.
func Fig13MetadataSensitivity(rc RunConfig, matSizes []int, bufKBs []int) (*Table, error) {
	if len(matSizes) == 0 {
		matSizes = []int{64, 128, 256, 512, 1024, 4096}
	}
	if len(bufKBs) == 0 {
		bufKBs = []int{64, 128, 256, 512, 1024, 4096}
	}
	t := &Table{
		ID:     "Figure 13",
		Title:  "Hierarchical speedup sensitivity to metadata sizing",
		Header: []string{"parameter", "value", "mean speedup"},
	}
	for _, ms := range matSizes {
		cfg := core.DefaultConfig()
		cfg.MATEntries = ms
		sub := rc
		sub.HierConfig = &cfg
		_, _, spds, _ := collect(sub, SchemeHier)
		t.Rows = append(t.Rows, []string{"MAT entries", fmt.Sprint(ms), spd(mean(spds))})
	}
	for _, kb := range bufKBs {
		cfg := core.DefaultConfig()
		cfg.MetadataKB = kb
		sub := rc
		sub.HierConfig = &cfg
		_, _, spds, _ := collect(sub, SchemeHier)
		t.Rows = append(t.Rows, []string{"Metadata buffer KB", fmt.Sprint(kb), spd(mean(spds))})
	}
	t.Notes = append(t.Notes, "paper: gains saturate at 512 entries / 512KB — the chosen configuration")
	return t, nil
}

// Fig14InfiniteBTB reproduces Figure 14: speedups when FDIP enjoys an
// infinite BTB.
func Fig14InfiniteBTB(rc RunConfig) (*Table, error) {
	rc.Params.BP.BTBInfinite = true
	t, err := Fig9Speedup(rc)
	if err != nil {
		return nil, err
	}
	t.ID = "Figure 14"
	t.Title = "IPC speedup over FDIP with an infinite BTB"
	t.Notes = []string{"paper means: EFetch +0.3%, MANA +0.1%, EIP +0.9%, Hierarchical +4.2%"}
	return t, nil
}

// Fig15aFTQ reproduces Figure 15a: baseline FDIP IPC across FTQ sizes.
func Fig15aFTQ(rc RunConfig, sizes []int) (*Table, error) {
	if len(sizes) == 0 {
		sizes = []int{8, 16, 24, 32, 48, 64}
	}
	t := &Table{
		ID:     "Figure 15a",
		Title:  "FDIP IPC as a function of FTQ size",
		Header: []string{"FTQ entries", "mean IPC"},
	}
	for _, n := range sizes {
		sub := rc
		sub.Params.FTQEntries = n
		var ipcs []float64
		for _, w := range sub.workloadList() {
			r, err := Run(w, SchemeFDIP, sub)
			if err != nil {
				return nil, err
			}
			ipcs = append(ipcs, r.Stats.IPC())
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), f3(mean(ipcs))})
	}
	t.Notes = append(t.Notes, "paper: best at 24 entries, deeper FTQs slightly counter-productive")
	return t, nil
}

// Fig15bITLB reproduces Figure 15b: baseline and Hierarchical IPC across
// I-TLB sizes.
func Fig15bITLB(rc RunConfig, sizes []int) (*Table, error) {
	if len(sizes) == 0 {
		sizes = []int{64, 128, 256, 512, 1024}
	}
	t := &Table{
		ID:     "Figure 15b",
		Title:  "IPC as a function of I-TLB entries",
		Header: []string{"I-TLB entries", "FDIP IPC", "Hierarchical IPC", "speedup"},
	}
	for _, n := range sizes {
		sub := rc
		sub.Params.ITLBEntries = n
		var baseIPC, hierIPC []float64
		for _, w := range sub.workloadList() {
			b, err := Run(w, SchemeFDIP, sub)
			if err != nil {
				return nil, err
			}
			h, err := Run(w, SchemeHier, sub)
			if err != nil {
				return nil, err
			}
			baseIPC = append(baseIPC, b.Stats.IPC())
			hierIPC = append(hierIPC, h.Stats.IPC())
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), f3(mean(baseIPC)), f3(mean(hierIPC)),
			spd(mean(hierIPC)/mean(baseIPC) - 1),
		})
	}
	t.Notes = append(t.Notes, "paper: both improve with I-TLB size; Hierarchical holds its edge throughout")
	return t, nil
}

// Fig16Bandwidth reproduces Figure 16: memory bandwidth relative to the
// baseline, including the data side (modelled as a constant stream) and
// metadata traffic.
func Fig16Bandwidth(rc RunConfig) (*Table, error) {
	t := &Table{
		ID:     "Figure 16",
		Title:  "Memory bandwidth with Hierarchical Prefetching, normalised to FDIP",
		Header: []string{"workload", "relative bandwidth", "overpredict share", "metadata share"},
	}
	// The data side is not simulated; it is charged as a constant
	// per-instruction stream so instruction-side overheads dilute the
	// way the paper's whole-system measurements do.
	const dataBlocksPerKI = 18.0
	names := rc.workloadList()
	var rels []float64
	for _, w := range names {
		base, err := Run(w, SchemeFDIP, rc)
		if err != nil {
			return nil, err
		}
		hp, err := Run(w, SchemeHier, rc)
		if err != nil {
			return nil, err
		}
		data := dataBlocksPerKI * float64(base.Stats.Instructions) / 1000
		baseBlocks := float64(base.Stats.MemBlocksTotal()) + data
		hpBlocks := float64(hp.Stats.MemBlocksTotal()) + data
		rel := hpBlocks / baseBlocks
		rels = append(rels, rel)
		extra := hpBlocks - baseBlocks
		overShare, metaShare := 0.0, 0.0
		if extra > 0 {
			metaShare = float64(hp.Stats.MemBlocksMeta) / extra
			if metaShare > 1 {
				metaShare = 1
			}
			overShare = 1 - metaShare
		}
		t.Rows = append(t.Rows, []string{w, pct(rel), pct(overShare), pct(metaShare)})
	}
	t.Rows = append(t.Rows, []string{"MEAN", pct(mean(rels)), "", ""})
	t.Notes = append(t.Notes, "paper: +4% mean, +10% worst; 40% overprediction / 60% metadata")
	return t, nil
}

// Fig17L2Prefetch reproduces Figure 17: Hierarchical Prefetching aimed
// at the L2 instead of the L1-I.
func Fig17L2Prefetch(rc RunConfig) (*Table, error) {
	t := &Table{
		ID:     "Figure 17",
		Title:  "Speedup when Hierarchical prefetches into the L2",
		Header: []string{"workload", "to L1-I", "to L2"},
	}
	l2rc := rc
	l2rc.Params.PrefetchToL2 = true
	names := rc.workloadList()
	var l1s, l2s []float64
	for _, w := range names {
		s1, err := Speedup(w, SchemeHier, rc)
		if err != nil {
			return nil, err
		}
		s2, err := Speedup(w, SchemeHier, l2rc)
		if err != nil {
			return nil, err
		}
		l1s = append(l1s, s1)
		l2s = append(l2s, s2)
		t.Rows = append(t.Rows, []string{w, spd(s1), spd(s2)})
	}
	t.Rows = append(t.Rows, []string{"MEAN", spd(mean(l1s)), spd(mean(l2s))})
	t.Notes = append(t.Notes, "paper: L2-directed keeps most of the benefit (5.8% vs 6.6%)")
	return t, nil
}

func schemeNames(ss []Scheme) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = string(s)
	}
	return out
}
