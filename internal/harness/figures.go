package harness

import (
	"fmt"
	"slices"

	"hprefetch/internal/core"
	"hprefetch/internal/isa"
	"hprefetch/internal/program"
	"hprefetch/internal/sim"
	"hprefetch/internal/tracefile"
	"hprefetch/internal/workloads"
	"hprefetch/internal/xrand"
)

// fig1StageFootprints reproduces Figure 1: the TiDB request pipeline and
// the average instruction footprint (touched cache blocks) of each stage
// during TPC-C-like execution. Like runOne, it honours rc.TracePath /
// rc.TraceDir: the stage view computed from a recorded trace is
// identical to the live one, because stage attribution rides in the
// trace alongside the events.
func fig1StageFootprints(rc RunConfig) (*Table, error) {
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
		if eng, err = replayTrace(tracePath, name, built); err != nil {
			return nil, fmt.Errorf("harness: figure 1: %w", err)
		}
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

// fig2a reproduces Figure 2a: MANA accuracy and miss reduction as its
// look-ahead (spatial regions) grows.
var fig2a = &decl{
	id:    "Figure 2a",
	title: "MANA look-ahead (spatial regions) vs accuracy and covered misses",
	base:  baselineConfig,
	variants: values(SchemeMANA, nil, []int{1, 2, 3, 4, 6, 8, 12, 16}, "",
		func(rc *RunConfig, la int) { rc.ManaLookahead = la }),
	labels: []string{"look-ahead"},
	metrics: []metric{
		{name: "accuracy", of: accuracy, cell: pct},
		{name: "coverage", of: coverageL1, cell: pct},
		{name: "speedup", of: speedup, cell: spd},
		{name: "avg distance", of: avgDistance, cell: f1},
	},
	notes: []string{"paper: accuracy declines with look-ahead; coverage saturates past 4 regions"},
}

// fig2b reproduces Figure 2b: Figure 2a for EFetch (callee chain depth).
var fig2b = func() *decl {
	d := *fig2a
	d.id, d.title = "Figure 2b", "EFetch look-ahead (callees) vs accuracy and covered misses"
	d.variants = values(SchemeEFetch, nil, []int{1, 2, 3, 5, 7, 10, 16}, "",
		func(rc *RunConfig, la int) { rc.EFetchLookahead = la })
	d.notes = []string{"paper: coverage fails to improve past ~7 callees"}
	return &d
}()

// fig2cEIPDistance reproduces Figure 2c: EIP accuracy bucketed by
// prefetch distance.
func fig2cEIPDistance(rc RunConfig) (*Table, error) {
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

// fig3 reproduces Figure 3: accuracy and coverage of the three
// fine-grained prefetchers against their average prefetch distance.
var fig3 = &decl{
	id:       "Figure 3",
	title:    "Accuracy and coverage vs average prefetch distance",
	variants: schemes(SchemeEFetch, SchemeMANA, SchemeEIP),
	labels:   []string{"scheme"},
	metrics: []metric{
		{name: "avg distance (blocks)", of: avgDistance, cell: f1},
		{name: "accuracy", of: accuracy, cell: pct},
		{name: "coverage", of: coverageL1, cell: pct},
	},
	notes: []string{"paper: accuracy inversely correlates with distance; coverage grows with it"},
}

// fig4TriggerSimilarity reproduces Figure 4: the Jaccard similarity of
// instruction footprints following successive occurrences of the same
// trigger, as the footprint window grows — computed directly on the
// retired stream for each trigger style (EIP: block address; MANA:
// spatial-region base; EFetch: call-stack signature) plus, for contrast,
// the paper's Bundle entries.
func fig4TriggerSimilarity(rc RunConfig) (*Table, error) {
	windows := []int{16, 64, 256, 512}
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
		Header: []string{"trigger"},
	}
	for _, w := range windows {
		t.Header = append(t.Header, fmt.Sprintf("w=%d", w))
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

// uniqueSorted returns the distinct blocks of bs in ascending order.
func uniqueSorted(bs []isa.Block) []isa.Block {
	out := slices.Clone(bs)
	slices.Sort(out)
	return slices.Compact(out)
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

// fig9 reproduces Figure 9: IPC speedup over FDIP per workload for
// every scheme, plus the Perfect-L1I bound.
var fig9 = &decl{
	id:       "Figure 9",
	title:    "IPC speedup over the FDIP baseline",
	shape:    grid,
	base:     baselineConfig,
	variants: schemes(SchemeEFetch, SchemeMANA, SchemeEIP, SchemeHier, SchemePerfect),
	lead:     &metric{name: "FDIP IPC", of: baseIPC, cell: f3},
	metrics: []metric{{of: speedup, cell: spd, paper: &paperRow{cell: spd, values: []paperValue{
		{SchemeEFetch, 0.014}, {SchemeMANA, 0.016}, {SchemeEIP, 0.040}, {SchemeHier, 0.066}, {SchemePerfect, 0.168},
	}}}},
}

// fig14 reproduces Figure 14: Figure 9 when FDIP enjoys an infinite BTB.
var fig14 = func() *decl {
	d := *fig9
	d.id, d.title = "Figure 14", "IPC speedup over FDIP with an infinite BTB"
	d.setup = func(rc *RunConfig) { rc.Params.BP.BTBInfinite = true }
	d.metrics = []metric{{of: speedup, cell: spd, paper: &paperRow{cell: spd, values: []paperValue{
		{SchemeEFetch, 0.003}, {SchemeMANA, 0.001}, {SchemeEIP, 0.009}, {SchemeHier, 0.042},
	}}}}
	return &d
}()

// fig10 reproduces Figure 10: the share of each scheme's prefetches
// that arrive late (demand hits an in-flight fill).
var fig10 = &decl{
	id:       "Figure 10",
	title:    "Late prefetches (demand hits in the MSHRs) as a share of useful+late",
	shape:    grid,
	variants: schemes(SchemeEFetch, SchemeMANA, SchemeEIP, SchemeHier),
	metrics: []metric{{
		of:   func(run, _ *sim.Stats) float64 { return run.PFLateFraction() },
		cell: pct,
		paper: &paperRow{cell: wholePct, values: []paperValue{
			{SchemeEFetch, 0.29}, {SchemeMANA, 0.13}, {SchemeEIP, 0.07}, {SchemeHier, 0.03},
		}},
	}},
}

// fig11 reproduces Figure 11: total demand instruction miss latency
// (clean miss latency plus late-fill residuals) per scheme, normalised
// to FDIP.
var fig11 = &decl{
	id:       "Figure 11",
	title:    "Demand instruction miss latency relative to FDIP (late residual + clean miss)",
	shape:    grid,
	base:     sameConfig,
	variants: schemes(Schemes()...),
	metrics: []metric{{
		of: func(run, base *sim.Stats) float64 {
			if b := base.TotalMissLatencyCycles(); b > 0 {
				return run.TotalMissLatencyCycles() / b
			}
			return 1
		},
		cell: pct,
	}},
	notes: []string{"paper: Hierarchical reduces total miss latency by 38.7%; best prior 19.7%"},
}

// fig12 reproduces Figure 12: elimination of long-range misses (those
// served beyond the L2, the top of the reuse-distance distribution)
// relative to the FDIP baseline.
var fig12 = &decl{
	id:       "Figure 12",
	title:    "Long-range (beyond-L2) instruction misses eliminated vs FDIP",
	shape:    grid,
	base:     sameConfig,
	variants: schemes(SchemeEFetch, SchemeMANA, SchemeEIP, SchemeHier),
	metrics: []metric{{
		of: func(run, base *sim.Stats) float64 {
			if b := longRange(base); b > 0 {
				return 1 - longRange(run)/b
			}
			return 0
		},
		cell: pct,
		paper: &paperRow{cell: wholePct, values: []paperValue{
			{SchemeHier, 0.53}, {SchemeEIP, 0.21}, {SchemeMANA, 0.11}, {SchemeEFetch, 0.07},
		}},
	}},
}

// longRange counts the misses Figure 12 calls long-range: demand and
// late fills served by the LLC or memory.
func longRange(st *sim.Stats) float64 {
	return float64(st.LateFDIPByLevel[3] + st.LateFDIPByLevel[4] +
		st.LatePFByLevel[3] + st.LatePFByLevel[4] +
		st.ServedLLC + st.ServedMem)
}

// fig13 reproduces Figure 13: mean speedup under varying Metadata
// Address Table and Metadata Buffer sizes.
var fig13 = &decl{
	id:    "Figure 13",
	title: "Hierarchical speedup sensitivity to metadata sizing",
	base:  baselineConfig,
	variants: append(
		values(SchemeHier, []string{"MAT entries"}, []int{64, 128, 256, 512, 1024, 4096}, "",
			func(rc *RunConfig, n int) { hierConfig(func(c *core.Config) { c.MATEntries = n })(rc) }),
		values(SchemeHier, []string{"Metadata buffer KB"}, []int{64, 128, 256, 512, 1024, 4096}, "",
			func(rc *RunConfig, kb int) { hierConfig(func(c *core.Config) { c.MetadataKB = kb })(rc) })...),
	labels:  []string{"parameter", "value"},
	metrics: []metric{{name: "mean speedup", of: speedup, cell: spd}},
	notes:   []string{"paper: gains saturate at 512 entries / 512KB — the chosen configuration"},
}

// fig15a reproduces Figure 15a: baseline FDIP IPC across FTQ sizes.
var fig15a = &decl{
	id:    "Figure 15a",
	title: "FDIP IPC as a function of FTQ size",
	variants: values(SchemeFDIP, nil, []int{8, 16, 24, 32, 48, 64}, "",
		func(rc *RunConfig, n int) { rc.Params.FTQEntries = n }),
	labels:  []string{"FTQ entries"},
	metrics: []metric{{name: "mean IPC", of: ipc, cell: f3}},
	notes:   []string{"paper: best at 24 entries, deeper FTQs slightly counter-productive"},
}

// fig15b reproduces Figure 15b: baseline and Hierarchical IPC across
// I-TLB sizes. Its speedup is the ratio of the mean IPCs.
var fig15b = &decl{
	id:    "Figure 15b",
	title: "IPC as a function of I-TLB entries",
	base:  sameConfig,
	variants: values(SchemeHier, nil, []int{64, 128, 256, 512, 1024}, "",
		func(rc *RunConfig, n int) { rc.Params.ITLBEntries = n }),
	labels: []string{"I-TLB entries"},
	metrics: []metric{
		{name: "FDIP IPC", of: baseIPC, cell: f3},
		{name: "Hierarchical IPC", of: ipc, cell: f3},
		{name: "speedup", cell: spd, fold: func(runs, bases []*sim.Stats) float64 {
			fdip, hier := metric{of: baseIPC}, metric{of: ipc}
			return hier.over(runs, bases)/fdip.over(runs, bases) - 1
		}},
	},
	notes: []string{"paper: both improve with I-TLB size; Hierarchical holds its edge throughout"},
}

// fig16Bandwidth reproduces Figure 16: memory bandwidth relative to the
// baseline, including the data side (modelled as a constant stream) and
// metadata traffic.
func fig16Bandwidth(rc RunConfig) (*Table, error) {
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
			metaShare = min(float64(hp.Stats.MemBlocksMeta)/extra, 1)
			overShare = 1 - metaShare
		}
		t.Rows = append(t.Rows, []string{w, pct(rel), pct(overShare), pct(metaShare)})
	}
	t.Rows = append(t.Rows, []string{"MEAN", pct(mean(rels)), "", ""})
	t.Notes = append(t.Notes, "paper: +4% mean, +10% worst; 40% overprediction / 60% metadata")
	return t, nil
}

// fig17 reproduces Figure 17: Hierarchical Prefetching aimed at the L2
// instead of the L1-I.
var fig17 = &decl{
	id:    "Figure 17",
	title: "Speedup when Hierarchical prefetches into the L2",
	shape: grid,
	base:  baselineConfig,
	variants: []variant{
		{label: []string{"to L1-I"}, scheme: SchemeHier},
		{label: []string{"to L2"}, scheme: SchemeHier, set: func(rc *RunConfig) { rc.Params.PrefetchToL2 = true }},
	},
	metrics: []metric{{of: speedup, cell: spd}},
	notes:   []string{"paper: L2-directed keeps most of the benefit (5.8% vs 6.6%)"},
}
