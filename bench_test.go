package hprefetch

// One sub-benchmark per table and figure of the paper's evaluation (§7).
// Each regenerates its artifact through the harness and prints the
// resulting table, so `go test -bench=. -benchmem` leaves a complete
// paper-vs-measured record in its output. Results are memoised across
// benchmarks within the process: the headline experiments share their
// FDIP baselines and scheme runs.
//
// The headline experiments (Figures 9-12, 16, 17, Table 2) run all
// eleven workloads; the parameter sweeps (Figures 2, 13-15, Table 3) use
// a representative four-workload subset to keep the suite's wall time
// reasonable.

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hprefetch/internal/harness"
)

// benchFull is the headline configuration: all workloads.
func benchFull() harness.RunConfig {
	rc := harness.DefaultRunConfig()
	rc.WarmInstr = 4_000_000
	rc.MeasureInstr = 8_000_000
	return rc
}

// benchSweep is the sweep configuration: a representative subset.
func benchSweep() harness.RunConfig {
	rc := benchFull()
	rc.WarmInstr = 3_000_000
	rc.MeasureInstr = 5_000_000
	rc.Workloads = []string{"gin", "caddy", "mysql-sysbench", "tidb-tpcc"}
	return rc
}

var printOnce sync.Map

// runExperiment executes the generator once per bench invocation (memoised
// underneath), prints the table a single time, and reports a headline
// metric when one is extractable.
func runExperiment(b *testing.B, id string, gen func() (*harness.Table, error)) {
	b.Helper()
	var tbl *harness.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = gen()
		if err != nil {
			b.Fatal(err)
		}
	}
	if _, printed := printOnce.LoadOrStore(id, true); !printed && tbl != nil {
		tbl.Fprint(os.Stdout)
	}
	if m, ok := meanSpeedupFromTable(tbl); ok {
		b.ReportMetric(m, "mean-speedup-%")
	}
}

// meanSpeedupFromTable extracts the last percentage of a MEAN row, when
// the table has one — a convenient single number per figure.
func meanSpeedupFromTable(t *harness.Table) (float64, bool) {
	if t == nil {
		return 0, false
	}
	for _, row := range t.Rows {
		if len(row) == 0 || row[0] != "MEAN" {
			continue
		}
		for i := len(row) - 1; i > 0; i-- {
			s := strings.TrimSuffix(strings.TrimPrefix(row[i], "+"), "%")
			if v, err := strconv.ParseFloat(s, 64); err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

// sweepIDs are the experiments that run the sweep configuration; the
// rest run the full one.
var sweepIDs = map[string]bool{
	"fig1": true, "fig2a": true, "fig2b": true, "fig2c": true, "fig4": true, "fig13": true,
	"fig14": true, "fig15a": true, "fig15b": true, "table3": true, "ablation": true,
}

// BenchmarkExperiments regenerates every table and figure of the
// evaluation, and the design-choice ablations DESIGN.md calls out, one
// sub-benchmark per experiment id.
func BenchmarkExperiments(b *testing.B) {
	for _, id := range append(harness.PaperExperimentIDs(), "ablation") {
		rc := benchFull()
		if sweepIDs[id] {
			rc = benchSweep()
		}
		if id == "fig1" {
			rc.Workloads = nil // Figure 1 is the TiDB pipeline
		}
		b.Run(id, func(b *testing.B) {
			runExperiment(b, id, func() (*harness.Table, error) { return harness.Experiment(id, rc) })
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (the whole
// stack: engine, front-end, hierarchy, Hierarchical Prefetcher) in
// simulated instructions per wall second.
func BenchmarkSimulatorThroughput(b *testing.B) {
	rc := harness.DefaultRunConfig()
	rc.Workloads = []string{"gin"}
	rc.WarmInstr = 500_000
	for i := 0; i < b.N; i++ {
		rc.MeasureInstr = 2_000_000 + uint64(i) // defeat memoisation
		r, err := harness.Run("gin", harness.SchemeHier, rc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Stats.Instructions), "instr/op")
	}
}

// BenchmarkReplayVsLive quantifies what trace replay buys: the same
// (workload, scheme, window) simulated from the live engine and from a
// recorded trace. Replayed runs skip program interpretation, and the
// harness decodes each trace once per process (the in-memory trace
// cache), so steady-state replay streams events from decoded arrays —
// the sub-benchmark ratio is the speedup README quotes.
func BenchmarkReplayVsLive(b *testing.B) {
	rc := harness.DefaultRunConfig()
	rc.Workloads = []string{"gin"}
	rc.WarmInstr = 500_000
	rc.MeasureInstr = 1_500_000
	path := filepath.Join(b.TempDir(), "gin.hpt")
	if _, err := harness.RecordTrace("gin", path, rc); err != nil {
		b.Fatal(err)
	}
	instr := float64(rc.WarmInstr + rc.MeasureInstr)

	b.Run("live", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := harness.RunUncached("gin", harness.SchemeFDIP, rc); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(instr*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
	})
	b.Run("replay", func(b *testing.B) {
		rcR := rc
		rcR.TracePath = path
		for i := 0; i < b.N; i++ {
			if _, err := harness.RunUncached("gin", harness.SchemeFDIP, rcR); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(instr*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
	})
}

// TestMain prints a banner so bench output records the machine model.
func TestMain(m *testing.M) {
	fmt.Println("hprefetch reproduction bench suite — simulated machine per Table 1 of the paper")
	os.Exit(m.Run())
}
