package harness

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"hprefetch/internal/core"
	"hprefetch/internal/fault"
	"hprefetch/internal/loader"
	"hprefetch/internal/tracefile"
	"hprefetch/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite the committed digests under testdata/ from the current behaviour")

// goldenEntry is one committed (workload, scheme) fingerprint. IPC and
// the late fraction ride along as formatted strings so a digest
// mismatch comes with human-readable context in the diff.
type goldenEntry struct {
	Workload       string `json:"workload"`
	Scheme         string `json:"scheme"`
	Digest         string `json:"digest"`
	IPC            string `json:"ipc"`
	PFLateFraction string `json:"pf_late_fraction"`
	// Fault and TagDrops are set only for runs under fault injection.
	Fault    string `json:"fault,omitempty"`
	TagDrops int    `json:"tag_drops,omitempty"`
}

const (
	goldenPath        = "testdata/golden_digests.json"
	sampledGoldenPath = "testdata/sampled_digests.json"
	faultGoldenPath   = "testdata/fault_digests.json"
)

// goldenRunConfig is the tiny, fixed configuration behind the committed
// matrix. Changing anything here invalidates every golden digest —
// refresh with `go test ./internal/harness -run TestGoldenDigestMatrix
// -update` and commit the diff alongside the behaviour change that
// caused it.
func goldenRunConfig() RunConfig {
	rc := DefaultRunConfig()
	rc.WarmInstr = 200_000
	rc.MeasureInstr = 400_000
	// chain-burst pins the microservice suite: its interleaved stream,
	// per-request stall histogram and trace round-trip are all under the
	// same digest contract as the paper workloads.
	rc.Workloads = []string{"gin", "tidb-tpcc", "chain-burst"}
	return rc
}

// goldenSchemes is the scheme set under the digest contract: the paper
// figure set plus the perfect-L1I bound and the two feedback-subsystem
// baselines (GHB and its TLB-aware variant).
func goldenSchemes() []Scheme {
	return append(append([]Scheme{}, Schemes()...), SchemePerfect, SchemeGHB, SchemeGHBTLB)
}

// goldenMatrix simulates the full scheme × workload mini-matrix with
// fresh machines (bypassing the Runner cache, as a new process would).
func goldenMatrix(t *testing.T) []goldenEntry {
	t.Helper()
	rc := goldenRunConfig()
	var out []goldenEntry
	for _, w := range rc.Workloads {
		for _, s := range goldenSchemes() {
			out = append(out, goldenRun(t, w, s, rc))
		}
	}
	return out
}

// goldenRun simulates one (workload, scheme) pair with a fresh machine
// and returns its fingerprint.
func goldenRun(t *testing.T, w string, s Scheme, rc RunConfig) goldenEntry {
	t.Helper()
	res, err := runOne(context.Background(), w, s, rc)
	if err != nil {
		t.Fatalf("%s/%s: %v", w, s, err)
	}
	e := goldenEntry{
		Workload:       w,
		Scheme:         string(s),
		Digest:         res.Stats.Digest(),
		IPC:            fmt.Sprintf("%.6f", res.Stats.IPC()),
		PFLateFraction: fmt.Sprintf("%.6f", res.Stats.PFLateFraction()),
	}
	if rc.Fault.Enabled() {
		e.Fault, e.TagDrops = rc.Fault.String(), res.TagDrops
	}
	return e
}

// readGoldens returns the committed fingerprints of the exact matrix.
func readGoldens(t *testing.T) []goldenEntry { return readGoldenFile(t, goldenPath) }

// readGoldenFile returns the fingerprints committed at path.
func readGoldenFile(t *testing.T, path string) []goldenEntry {
	t.Helper()
	data, err := os.ReadFile(filepath.FromSlash(path))
	if err != nil {
		t.Fatalf("reading goldens (refresh with -update): %v", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	return want
}

// checkGoldenFile compares got with the fingerprints committed at path,
// or rewrites the file under -update.
func checkGoldenFile(t *testing.T, path string, got []goldenEntry) {
	t.Helper()
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.FromSlash(path), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d entries", path, len(got))
		return
	}
	want := readGoldenFile(t, path)
	if len(got) != len(want) {
		t.Fatalf("%d runs, %s has %d entries; refresh with -update", len(got), path, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s/%s drifted:\n  golden: %+v\n  got:    %+v",
				want[i].Workload, want[i].Scheme, want[i], got[i])
		}
	}
}

// goldenFor returns the committed fingerprint of one pair.
func goldenFor(t *testing.T, goldens []goldenEntry, w string, s Scheme) goldenEntry {
	t.Helper()
	for _, e := range goldens {
		if e.Workload == w && e.Scheme == string(s) {
			return e
		}
	}
	t.Fatalf("no golden for %s/%s", w, s)
	return goldenEntry{}
}

// TestGoldenDigestMatrix locks the simulator's observable behaviour to
// the committed fingerprints: any change to what any scheme measures on
// any workload — intended or not — fails here and must be acknowledged
// by refreshing the goldens with -update.
func TestGoldenDigestMatrix(t *testing.T) {
	got := goldenMatrix(t)
	checkGoldenFile(t, goldenPath, got)
	if *updateGolden {
		return
	}

	// The matrix must exercise the late-prefetch metric: at least one
	// scheme × workload reports a nonzero late fraction, guarding the
	// regression where PFLateFraction silently read a dead counter.
	anyLate := false
	for _, e := range got {
		if v, err := strconv.ParseFloat(e.PFLateFraction, 64); err == nil && v > 0 {
			anyLate = true
			break
		}
	}
	if !anyLate {
		t.Error("no golden run reports a late prefetch; PFLateFraction is dead again")
	}
}

// TestSampledGoldenDigests locks interval-sampled runs, whose
// statistics are the per-interval Stats folded by Stats.AddFrom, to
// committed fingerprints, so a change in how the intervals aggregate
// fails here rather than only between two runs of the same build.
func TestSampledGoldenDigests(t *testing.T) {
	rc := goldenRunConfig()
	rc.Sample = goldenSampleSpec()
	var got []goldenEntry
	for _, p := range []struct {
		w string
		s Scheme
	}{{"gin", SchemeHier}, {"chain-burst", SchemeFDIP}, {"tidb-tpcc", SchemeMANA}} {
		got = append(got, goldenRun(t, p.w, p.s, rc))
	}
	checkGoldenFile(t, sampledGoldenPath, got)
}

// TestFaultGoldenDigests locks gin/Hierarchical under every run-time
// fault class to committed fingerprints, with the loader's tag-drop
// count: the bundle classes pin the degraded loader's segment
// perturbation, the others the machine-side injection hooks.
func TestFaultGoldenDigests(t *testing.T) {
	rc := goldenRunConfig()
	var got []goldenEntry
	for _, c := range fault.Classes() {
		sub := rc
		sub.Fault = fault.Config{Class: c}
		got = append(got, goldenRun(t, "gin", SchemeHier, sub))
	}
	checkGoldenFile(t, faultGoldenPath, got)
}

// TestPrunedFaultTagDrops: the fault path loads a built workload's
// pruned program degraded, and most of tidb-tpcc's tags sit in cold code
// that program no longer keeps. Under bundle-corrupt and bundle-stale, at
// their default rates and at a higher one, it must drop and keep exactly
// the tags a degraded load of the whole linked program does. A stale
// table's skew moves tags whole instructions onward, which on tidb-tpcc
// lands none of them outside a function, so only corrupt tables drop
// some.
func TestPrunedFaultTagDrops(t *testing.T) {
	built, err := workloads.Build("tidb-tpcc")
	if err != nil {
		t.Fatal(err)
	}
	l, err := workloads.Link("tidb-tpcc")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []fault.Class{fault.ClassBundleCorrupt, fault.ClassBundleStale} {
		for _, cfg := range []fault.Config{{Class: c}, {Class: c, Rate: 0.6, Seed: 7}} {
			inj, err := fault.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := loader.LoadLinkedDegraded(built.Loaded.Prog, built.Loaded.Segment(), inj.PerturbBundles)
			want := loader.LoadLinkedDegraded(l.Prog, l.Segment, inj.PerturbBundles)
			if got.TagDrops != want.TagDrops || !reflect.DeepEqual(got.Segment(), want.Segment()) {
				t.Errorf("%s: pruned load drops %d tags and keeps %d, whole program drops %d and keeps %d",
					cfg, got.TagDrops, got.Tags.Len(), want.TagDrops, want.Tags.Len())
			}
			if c == fault.ClassBundleCorrupt && want.TagDrops == 0 {
				t.Errorf("%s: no tag dropped; the check shows nothing", cfg)
			}
		}
	}
}

// TestGoldenDigestsOnRecycledTables: a run takes its machine's and its
// prefetcher's tables from ones released before it, so no digest may
// depend on what ran first. The matrix runs in an order where each run
// follows another scheme on another workload, with runs that hand the
// pools tables of another length mid-matrix: a Hierarchical Prefetcher
// with an eighth of the Metadata Buffer at a third, a machine of another
// table shape (the Table 3 64 KB L1-I) halfway, and governed GHB at two
// thirds. Every digest must equal its golden.
func TestGoldenDigestsOnRecycledTables(t *testing.T) {
	goldens := readGoldens(t)
	rc := goldenRunConfig()
	schemes := goldenSchemes()
	ws, n := len(rc.Workloads), len(rc.Workloads)*len(schemes)
	seen := map[goldenEntry]bool{}
	for k := range n {
		switch k {
		case n / 3:
			small := rc
			hc := core.DefaultConfig()
			hc.MetadataKB /= 8
			small.HierConfig = &hc
			goldenRun(t, "gin", SchemeHier, small)
		case n / 2:
			big := rc
			big.Params.L1ISets *= 2
			goldenRun(t, "gin", SchemeHier, big)
		case 2 * n / 3:
			gov := rc
			gov.Governed = true
			goldenRun(t, "tidb-tpcc", SchemeGHB, gov)
		}
		w, s := rc.Workloads[k%ws], schemes[k%len(schemes)]
		want := goldenFor(t, goldens, w, s)
		if seen[want] {
			t.Fatalf("the order repeats %s/%s before covering the matrix", w, s)
		}
		seen[want] = true
		if got := goldenRun(t, w, s, rc); got != want {
			t.Errorf("%s/%s on recycled tables:\n  golden: %+v\n  got:    %+v", w, s, want, got)
		}
	}
}

// TestGoldenDigestAfterFailedRun: a run that fails partway releases
// tables in whatever state it left them, and the clean run after it
// must still match its golden.
func TestGoldenDigestAfterFailedRun(t *testing.T) {
	goldens := readGoldens(t)
	rc := goldenRunConfig()
	torn := rc
	torn.TracePath = tornGoldenTrace(t, "gin", rc)
	_, err := runOne(context.Background(), "gin", SchemeHier, torn)
	if !errors.Is(err, tracefile.ErrTruncated) || !strings.Contains(err.Error(), "measure") {
		t.Fatalf("replay of a torn trace: err = %v, want ErrTruncated during the measure window", err)
	}
	for _, s := range []Scheme{SchemeEIP, SchemeHier} {
		if got, want := goldenRun(t, "gin", s, rc), goldenFor(t, goldens, "gin", s); got != want {
			t.Errorf("gin/%s after a failed run:\n  golden: %+v\n  got:    %+v", s, want, got)
		}
	}
}

// tornGoldenTrace records w's trace for rc's window in frames of 256
// events and cuts the file at three fifths of its bytes, so a replay
// fails with ErrTruncated partway through.
func tornGoldenTrace(t *testing.T, w string, rc RunConfig) string {
	t.Helper()
	built, err := workloads.Build(w)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), w+TraceExt)
	target := rc.WarmInstr + rc.MeasureInstr
	meta := tracefile.Meta{Workload: w, Seed: built.Workload.TraceSeed, TargetInstructions: target}
	if _, err := tracefile.Record(path, built.NewEngine(), meta, target, tracefile.TailEvents, tracefile.Options{FrameEvents: 256}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)*3/5], 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunOneFullStatsDeterministic is the cross-process stand-in: two
// completely fresh simulations of the same pair must agree on every
// counter, not just IPC.
func TestRunOneFullStatsDeterministic(t *testing.T) {
	rc := goldenRunConfig()
	for _, w := range []string{"gin", "chain-burst"} {
		for _, s := range []Scheme{SchemeEIP, SchemeHier} {
			a, err := runOne(context.Background(), w, s, rc)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runOne(context.Background(), w, s, rc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.Stats, b.Stats) {
				t.Errorf("%s/%s: full Stats diverged:\n--- run A\n%s--- run B\n%s",
					w, s, a.Stats.Canonical(), b.Stats.Canonical())
			}
		}
	}
}
