package harness

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"hprefetch/internal/sim"
)

// experimentDigestsPath pins TestExperimentDigests' table digests.
const experimentDigestsPath = "testdata/experiment_digests.json"

// experimentDigest is one committed table fingerprint: the experiment
// id, the static prefetch degree it ran under (0 = the scheme's own) and
// its Table.Digest, with the table's label for a readable diff.
type experimentDigest struct {
	ID     string `json:"id"`
	Degree int    `json:"degree,omitempty"`
	Table  string `json:"table"`
	Digest string `json:"digest"`
}

// degreePinnedIDs are the experiments pinned a second time under
// PFDegree = 2. A static degree reaches the schemes under test but not
// the FDIP baseline, so these entries catch a change in how a table
// derives its baseline run.
var degreePinnedIDs = []string{"fig9", "fig10", "fig11", "fig12", "fig14", "fig16", "fig17", "table2"}

// experimentDigestConfig is the pin's configuration: the quick window
// over two workloads, so every MEAN row averages more than one value.
func experimentDigestConfig() RunConfig {
	rc := quick()
	rc.Workloads = []string{"gin", "tidb-tpcc"}
	return rc
}

// TestExperimentDigests locks every experiment's rendered table — cells,
// MEAN rows and notes — to committed digests. Refresh with -update only
// for an intended change to what a table shows.
func TestExperimentDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rc := experimentDigestConfig()
	var got []experimentDigest
	pin := func(ids []string, rc RunConfig) {
		tables, err := Experiments(ids, rc, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i, tbl := range tables {
			got = append(got, experimentDigest{ID: ids[i], Degree: rc.PFDegree, Table: tbl.ID, Digest: tbl.Digest()})
		}
	}
	pin(ExperimentIDs(), rc)
	rc.PFDegree = 2
	pin(degreePinnedIDs, rc)

	path := filepath.FromSlash(experimentDigestsPath)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d entries", path, len(got))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading pinned digests (refresh with -update): %v", err)
	}
	var want []experimentDigest
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d tables, %s has %d entries; refresh with -update", len(got), path, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s (degree %d) drifted:\n  pinned: %+v\n  got:    %+v", want[i].ID, want[i].Degree, want[i], got[i])
		}
	}
}

// TestDeclaredTablesFailOnFailedRun: a declared table's MEAN is over
// every workload, so one failed run fails the table rather than leaving
// its workload out of the mean.
func TestDeclaredTablesFailOnFailedRun(t *testing.T) {
	rc := quick()
	rc.Workloads = []string{"gin", "no-such-workload"}
	for _, e := range experiments {
		if _, ok := e.gen.(*decl); !ok {
			continue
		}
		if tbl, err := Experiment(e.id, rc); err == nil {
			t.Errorf("%s: no error with an unknown workload; table:\n%s", e.id, tbl)
		}
	}
}

// TestPaperNumbersNameColumns: every number a declaration quotes from
// the paper belongs to a scheme its table shows.
func TestPaperNumbersNameColumns(t *testing.T) {
	for _, e := range experiments {
		d, ok := e.gen.(*decl)
		if !ok {
			continue
		}
		shown := map[Scheme]bool{}
		for _, v := range d.variants {
			shown[v.scheme] = true
		}
		for _, m := range d.metrics {
			if m.paper == nil {
				continue
			}
			if d.shape == sweep {
				t.Errorf("%s: %q quotes paper numbers, but a sweep's notes do not draw them", e.id, m.name)
			}
			for _, pv := range m.paper.values {
				if !shown[pv.scheme] {
					t.Errorf("%s: paper number %v names %s, which is not a column", e.id, pv.v, pv.scheme)
				}
			}
		}
	}
}

// TestFig15bSpeedupIsRatioOfMeans: Figure 15b's speedup is the ratio of
// the mean IPCs, not the mean of per-workload ratios. The pinned window
// cannot tell the two apart, so this checks the fold on two workloads
// where they differ: FDIP at IPC 1 and 2, Hierarchical at 2 and 2.
func TestFig15bSpeedupIsRatioOfMeans(t *testing.T) {
	withIPC := func(ipc float64) *sim.Stats {
		return &sim.Stats{Instructions: 1200, ScaledCycles: uint64(1200 * sim.CycleScale / ipc)}
	}
	runs := []*sim.Stats{withIPC(2), withIPC(2)}
	bases := []*sim.Stats{withIPC(1), withIPC(2)}
	for _, m := range fig15b.metrics {
		if m.name != "speedup" {
			continue
		}
		if got, want := m.over(runs, bases), 2/1.5-1.0; math.Abs(got-want) > 1e-12 {
			t.Errorf("speedup = %v, want the ratio of mean IPCs %v (the mean of ratios is 0.5)", got, want)
		}
		return
	}
	t.Fatal("Figure 15b has no speedup column")
}
