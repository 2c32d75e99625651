package harness

import (
	"fmt"
	"strings"

	"hprefetch/internal/core"
	"hprefetch/internal/sim"
)

// Most of the paper's evaluation is one kind of table: run each scheme
// on each workload, next to an FDIP baseline, reduce every run to a
// number and average over the workloads. Such a table is declared as
// data, a decl, and drawn by decl.table, which makes its rows, its MEAN
// row and its notes, the paper's numbers among them.

// A decl declares one paper table.
type decl struct {
	id, title string
	shape     shape
	// setup changes the RunConfig of the whole table (Fig 14).
	setup func(*RunConfig)
	// base derives the FDIP baseline's config from a run's; nil when no
	// metric reads a baseline.
	base     func(RunConfig) RunConfig
	variants []variant
	// labels heads a sweep's leading columns: the variants' label cells,
	// or "metric" for bySchemes. A grid's is "workload".
	labels []string
	// lead is a grid's extra leading column, read from the first
	// variant's runs ("FDIP IPC").
	lead *metric
	// metrics are a sweep's columns, or a grid's one cell metric.
	metrics []metric
	// notes are the table's qualitative claims, after the paper's numbers.
	notes []string
}

// shape is how a declared table lays out its runs.
type shape int

const (
	// sweep: a row per variant, a column per metric, each cell folded
	// over the workloads.
	sweep shape = iota
	// bySchemes: a sweep drawn with its variants as columns (Table 2).
	bySchemes
	// grid: a row per workload and a MEAN row, a column per variant, and
	// the one metric in every cell.
	grid
)

// A variant is one run a declared table makes on every workload: a
// scheme under a change to the table's RunConfig.
type variant struct {
	// label is a sweep row's leading cells, or a column header.
	label  []string
	scheme Scheme
	// set changes the RunConfig; nil runs the table's own.
	set func(*RunConfig)
}

// A metric reduces one run, and its FDIP baseline when the table has
// one, to a number.
type metric struct {
	name string
	of   func(run, base *sim.Stats) float64
	cell func(float64) string
	// fold combines a variant's runs over the workloads into one number;
	// nil averages of.
	fold func(runs, bases []*sim.Stats) float64
	// paper holds the paper's values of this metric, when it quotes them.
	paper *paperRow
}

// A paperRow is the paper's values of one metric, in the order its text
// lists them. A grid's note reads "paper means: EFetch +1.4%, ...", a
// bySchemes table's "paper: distance 3.4/4.3/6.1/90; ...".
type paperRow struct {
	// name and unit frame the row in a bySchemes note ("accuracy",
	// "58/55/30/53", "%").
	name, unit string
	cell       func(float64) string
	values     []paperValue
}

// A paperValue is one number the paper reports for a scheme.
type paperValue struct {
	scheme Scheme
	v      float64
}

// table runs the declaration under rc and draws it. Any failed run fails
// the table: a mean over the workloads that ran is not the table's mean.
func (d *decl) table(rc RunConfig) (*Table, error) {
	if d.setup != nil {
		d.setup(&rc)
	}
	runs, bases, err := d.run(rc)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: d.id, Title: d.title, Header: append([]string{}, d.labels...)}
	// cell folds metric m over variant i's runs.
	cell := func(m *metric, i int) string { return m.cell(m.over(runs[i], bases[i])) }
	var paper []string
	switch d.shape {
	case sweep:
		for _, m := range d.metrics {
			t.Header = append(t.Header, m.name)
		}
		for i, v := range d.variants {
			row := append([]string{}, v.label...)
			for k := range d.metrics {
				row = append(row, cell(&d.metrics[k], i))
			}
			t.Rows = append(t.Rows, row)
		}
	case bySchemes:
		for _, v := range d.variants {
			t.Header = append(t.Header, v.label[0])
		}
		for k := range d.metrics {
			m := &d.metrics[k]
			row := []string{m.name}
			for i := range d.variants {
				row = append(row, cell(m, i))
			}
			t.Rows = append(t.Rows, row)
			if p := m.paper; p != nil {
				paper = append(paper, p.name+" "+strings.Join(p.cells(false), "/")+p.unit)
			}
		}
		if paper != nil {
			t.Notes = append(t.Notes, "paper: "+strings.Join(paper, "; "))
		}
	case grid:
		m := &d.metrics[0]
		t.Header = []string{"workload"}
		mean := []string{"MEAN"}
		if d.lead != nil {
			t.Header = append(t.Header, d.lead.name)
			mean = append(mean, "")
		}
		for i, v := range d.variants {
			t.Header = append(t.Header, v.label[0])
			mean = append(mean, cell(m, i))
		}
		for j, w := range rc.workloadList() {
			row := []string{w}
			if d.lead != nil {
				row = append(row, d.lead.cell(d.lead.of(runs[0][j], bases[0][j])))
			}
			for i := range d.variants {
				row = append(row, m.cell(m.of(runs[i][j], bases[i][j])))
			}
			t.Rows = append(t.Rows, row)
		}
		t.Rows = append(t.Rows, mean)
		if m.paper != nil {
			t.Notes = append(t.Notes, "paper means: "+strings.Join(m.paper.cells(true), ", "))
		}
	}
	t.Notes = append(t.Notes, d.notes...)
	return t, nil
}

// run makes every variant's run on every workload, each after its FDIP
// baseline when the table has one, and returns their statistics indexed
// [variant][workload].
func (d *decl) run(rc RunConfig) (runs, bases [][]*sim.Stats, err error) {
	names := rc.workloadList()
	runs = make([][]*sim.Stats, len(d.variants))
	bases = make([][]*sim.Stats, len(d.variants))
	for i, v := range d.variants {
		sub := rc
		if v.set != nil {
			v.set(&sub)
		}
		runs[i] = make([]*sim.Stats, len(names))
		bases[i] = make([]*sim.Stats, len(names))
		for j, w := range names {
			if d.base != nil {
				b, err := Run(w, SchemeFDIP, d.base(sub))
				if err != nil {
					return nil, nil, err
				}
				bases[i][j] = b.Stats
			}
			r, err := Run(w, v.scheme, sub)
			if err != nil {
				return nil, nil, err
			}
			runs[i][j] = r.Stats
		}
	}
	return runs, bases, nil
}

// over folds one variant's runs into a number: fold, or the mean of of.
func (m *metric) over(runs, bases []*sim.Stats) float64 {
	if m.fold != nil {
		return m.fold(runs, bases)
	}
	vs := make([]float64, len(runs))
	for j := range runs {
		vs[j] = m.of(runs[j], bases[j])
	}
	return mean(vs)
}

// cells renders the paper's values, each after its scheme's name when
// named is set ("Perfect" for the Perfect-L1I bound, as the paper has it).
func (p *paperRow) cells(named bool) []string {
	out := make([]string, len(p.values))
	for i, pv := range p.values {
		out[i] = p.cell(pv.v)
		if named {
			out[i] = strings.TrimSuffix(string(pv.scheme), "L1I") + " " + out[i]
		}
	}
	return out
}

// baselineConfig is the FDIP baseline's config for a run under rc: the
// throttling knobs neither apply to FDIP nor should fragment its cache
// entry across degree variants.
func baselineConfig(rc RunConfig) RunConfig {
	rc.PFDegree = 0
	rc.Governed = false
	return rc
}

// sameConfig runs the FDIP baseline under the run's own config.
func sameConfig(rc RunConfig) RunConfig { return rc }

// schemes declares one variant per scheme, labelled with its name.
func schemes(ss ...Scheme) []variant {
	out := make([]variant, len(ss))
	for i, s := range ss {
		out[i] = variant{label: []string{string(s)}, scheme: s}
	}
	return out
}

// values declares one variant of scheme per value, labelled with the
// leading cells of prefix and the value with its unit, and applied by
// set.
func values(s Scheme, prefix []string, vals []int, unit string, set func(*RunConfig, int)) []variant {
	out := make([]variant, len(vals))
	for i, v := range vals {
		label := append(append([]string{}, prefix...), fmt.Sprint(v)+unit)
		out[i] = variant{label: label, scheme: s, set: func(rc *RunConfig) { set(rc, v) }}
	}
	return out
}

// hierConfig returns a RunConfig change to the default Hierarchical
// configuration changed by set.
func hierConfig(set func(*core.Config)) func(*RunConfig) {
	return func(rc *RunConfig) {
		cfg := core.DefaultConfig()
		set(&cfg)
		rc.HierConfig = &cfg
	}
}

// The per-run numbers the declared tables read.
var (
	ipc         = func(run, _ *sim.Stats) float64 { return run.IPC() }
	baseIPC     = func(_, base *sim.Stats) float64 { return base.IPC() }
	speedup     = func(run, base *sim.Stats) float64 { return run.IPC()/base.IPC() - 1 }
	accuracy    = func(run, _ *sim.Stats) float64 { return run.PFAccuracy() }
	coverageL1  = func(run, _ *sim.Stats) float64 { return run.PFCoverageL1() }
	coverageL2  = func(run, _ *sim.Stats) float64 { return run.PFCoverageL2() }
	avgDistance = func(run, _ *sim.Stats) float64 { return run.PFAvgDistance() }
)

// pctNum renders a fraction as a whole percent without the sign, and
// wholePct with it ("29%"), as the paper quotes most of its means;
// shortest renders a number in its shortest form ("3.4", "90").
func pctNum(v float64) string   { return fmt.Sprintf("%.0f", v*100) }
func wholePct(v float64) string { return pctNum(v) + "%" }
func shortest(v float64) string { return fmt.Sprint(v) }
