package harness

import (
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

func TestExperimentDispatch(t *testing.T) {
	if len(ExperimentIDs()) != 23 {
		t.Errorf("experiment list has %d entries", len(ExperimentIDs()))
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
