package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quick returns a fast configuration shared by the harness tests.
func quick() RunConfig {
	rc := QuickRunConfig()
	rc.Workloads = []string{"gin"}
	rc.WarmInstr = 800_000
	rc.MeasureInstr = 1_200_000
	return rc
}

func TestRunAndMemoise(t *testing.T) {
	rc := quick()
	a, err := Run("gin", SchemeFDIP, rc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("gin", SchemeFDIP, rc)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical runs not memoised")
	}
	if a.Stats.IPC() <= 0 {
		t.Error("zero IPC")
	}
	// Different parameters must not collide in the memo.
	rc2 := rc
	rc2.Params.FTQEntries = 8
	c, err := Run("gin", SchemeFDIP, rc2)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different parameters hit the same memo entry")
	}
}

func TestSpeedupAllSchemes(t *testing.T) {
	rc := quick()
	for _, s := range []Scheme{SchemeEFetch, SchemeMANA, SchemeEIP, SchemeHier, SchemePerfect} {
		sp, err := Speedup("gin", s, rc)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if sp < -0.5 || sp > 1.0 {
			t.Errorf("%s speedup %.3f implausible", s, sp)
		}
	}
}

func TestUnknownSchemeAndExperiment(t *testing.T) {
	rc := quick()
	if _, err := Run("gin", Scheme("bogus"), rc); err == nil {
		t.Error("bogus scheme accepted")
	}
	if _, err := Run("no-such-workload", SchemeFDIP, rc); err == nil {
		t.Error("bogus workload accepted")
	}
	if _, err := Experiment("fig99", rc); err == nil {
		t.Error("bogus experiment accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:     "Test 1",
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	out := tbl.String()
	for _, want := range []string{"Test 1", "demo", "333", "a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestFig1StageFootprints(t *testing.T) {
	rc := quick()
	rc.Workloads = nil // Figure 1 defaults to the TiDB pipeline
	rc.MeasureInstr = 2_500_000
	tbl, err := Fig1StageFootprints(rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("tidb has 5 stages, table has %d rows", len(tbl.Rows))
	}
	// The Compile stage must carry the largest footprint (as in the
	// paper's Figure 1, where Compile is 280KB).
	if !strings.Contains(tbl.String(), "Compile") {
		t.Error("Compile stage missing")
	}
}

func TestFig9AndFig10Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rc := quick()
	f9, err := Fig9Speedup(rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(f9.Rows) != 2 { // 1 workload + MEAN
		t.Fatalf("fig9 rows = %d", len(f9.Rows))
	}
	f10, err := Fig10LatePrefetches(rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(f10.Rows) != 2 {
		t.Fatalf("fig10 rows = %d", len(f10.Rows))
	}
}

func TestFig4TriggerSimilarityQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rc := quick()
	rc.MeasureInstr = 2_000_000
	tbl, err := Fig4TriggerSimilarity(rc, []int{16, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("fig4 rows = %d", len(tbl.Rows))
	}
	t.Log("\n" + tbl.String())
}

func TestTable4Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rc := quick()
	rc.Workloads = []string{"gin"}
	tbl, err := Table4BundleStats(rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("table4 rows = %d", len(tbl.Rows))
	}
	t.Log("\n" + tbl.String())
	// The digest covers the static columns (Bundle entries, NumFuncs)
	// as well as the dynamic ones, so a change to how a program is
	// stored must leave it byte-identical.
	got := tbl.Digest() + "\n"
	path := filepath.FromSlash(table4DigestPath)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading pinned digest (refresh with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("table4 digest %q, pinned %q", strings.TrimSpace(got), strings.TrimSpace(string(want)))
	}
}

// table4DigestPath pins TestTable4Quick's Table.Digest.
const table4DigestPath = "testdata/table4_digest.txt"

func TestExperimentDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rc := quick()
	for _, id := range []string{"fig3", "table2"} {
		tbl, err := Experiment(id, rc)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
	}
	if len(ExperimentIDs()) != 23 {
		t.Errorf("experiment list has %d entries", len(ExperimentIDs()))
	}
}

func TestMoreExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rc := quick()
	// Tiny sweeps keep this test fast while exercising every generator.
	if tbl, err := Fig2aManaLookahead(rc, []int{1, 3}); err != nil || len(tbl.Rows) != 2 {
		t.Fatalf("fig2a: %v", err)
	}
	if tbl, err := Fig2bEFetchLookahead(rc, []int{1, 3}); err != nil || len(tbl.Rows) != 2 {
		t.Fatalf("fig2b: %v", err)
	}
	if tbl, err := Fig2cEIPDistance(rc); err != nil || len(tbl.Rows) == 0 {
		t.Fatalf("fig2c: %v", err)
	}
	if tbl, err := Fig11MissLatency(rc); err != nil || len(tbl.Rows) != 2 {
		t.Fatalf("fig11: %v", err)
	}
	if tbl, err := Fig12LongRange(rc); err != nil || len(tbl.Rows) != 2 {
		t.Fatalf("fig12: %v", err)
	}
	if tbl, err := Fig13MetadataSensitivity(rc, []int{128, 512}, []int{128}); err != nil || len(tbl.Rows) != 3 {
		t.Fatalf("fig13: %v", err)
	}
	if tbl, err := Fig15aFTQ(rc, []int{16, 24}); err != nil || len(tbl.Rows) != 2 {
		t.Fatalf("fig15a: %v", err)
	}
	if tbl, err := Fig15bITLB(rc, []int{256}); err != nil || len(tbl.Rows) != 1 {
		t.Fatalf("fig15b: %v", err)
	}
	if tbl, err := Fig16Bandwidth(rc); err != nil || len(tbl.Rows) != 2 {
		t.Fatalf("fig16: %v", err)
	}
	if tbl, err := Fig17L2Prefetch(rc); err != nil || len(tbl.Rows) != 2 {
		t.Fatalf("fig17: %v", err)
	}
	if tbl, err := Fig14InfiniteBTB(rc); err != nil || len(tbl.Rows) != 2 {
		t.Fatalf("fig14: %v", err)
	}
	if tbl, err := Table3L1ISweep(rc, []int{32, 64}); err != nil || len(tbl.Rows) != 8 {
		t.Fatalf("table3: %v", err)
	}
	if tbl, err := Ablations(rc); err != nil || len(tbl.Rows) != 4 {
		t.Fatalf("ablation: %v", err)
	}
}

func TestCSVRendering(t *testing.T) {
	tbl := &Table{
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1,2", `say "hi"`}},
	}
	csv := tbl.CSV()
	if !strings.Contains(csv, `"1,2"`) || !strings.Contains(csv, `"say ""hi"""`) {
		t.Errorf("CSV quoting broken:\n%s", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Errorf("CSV header missing:\n%s", csv)
	}
}
