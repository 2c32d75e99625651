package harness

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
)

// goldenSampleSpec is the interval configuration the sampled-mode tests
// run against the golden matrix window (200k warm / 400k measure): five
// to six intervals of 10k warm + 20k measure, ~50k mean skip.
func goldenSampleSpec() SampleSpec {
	return SampleSpec{WarmInstr: 10_000, MeasureInstr: 20_000, SkipInstr: 40_000, Seed: 7}
}

func TestSampleScheduleDeterministic(t *testing.T) {
	sp := goldenSampleSpec()
	a := sampleSkips(sp, 400_000)
	b := sampleSkips(sp, 400_000)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules:\n%v\n%v", a, b)
	}
	if len(a) < 3 {
		t.Fatalf("only %d intervals fit; the spec is supposed to yield several", len(a))
	}
	for i, k := range a {
		if k < sp.SkipInstr/2 || k > sp.SkipInstr+sp.SkipInstr/2 {
			t.Errorf("skip %d = %d outside jitter band [%d, %d]", i, k, sp.SkipInstr/2, sp.SkipInstr+sp.SkipInstr/2)
		}
	}
	sp2 := sp
	sp2.Seed = 8
	c := sampleSkips(sp2, 400_000)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced the identical schedule; jitter is not seeded")
	}
	if got := sampleSkips(SampleSpec{MeasureInstr: 500_000}, 400_000); len(got) != 0 {
		t.Errorf("oversized interval fit %d times into a smaller window", len(got))
	}
}

func TestParseSampleSpec(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SampleSpec
		ok   bool
	}{
		{"", SampleSpec{}, true},
		{"10000,20000,40000", SampleSpec{WarmInstr: 10000, MeasureInstr: 20000, SkipInstr: 40000}, true},
		{"1,2,3,9", SampleSpec{WarmInstr: 1, MeasureInstr: 2, SkipInstr: 3, Seed: 9}, true},
		{"1,0,3", SampleSpec{}, false},
		{"1,2", SampleSpec{}, false},
		{"bogus", SampleSpec{}, false},
	} {
		got, err := ParseSampleSpec(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseSampleSpec(%q) error = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("ParseSampleSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
		if err == nil && tc.in != "" {
			if rt, err2 := ParseSampleSpec(got.String()); err2 != nil || rt != got {
				t.Errorf("round-trip of %q through String() = %+v (%v)", tc.in, rt, err2)
			}
		}
	}
}

// TestSampleRecordingRejected pins the record/sample exclusion: a
// sampled run covers only part of the stream, so both the tee path and
// the record-only path must refuse the combination instead of sealing
// an incomplete trace.
func TestSampleRecordingRejected(t *testing.T) {
	rc := goldenRunConfig()
	rc.Sample = goldenSampleSpec()
	rc.RecordPath = filepath.Join(t.TempDir(), "x"+TraceExt)
	if _, err := RunUncached("gin", SchemeFDIP, rc); err == nil {
		t.Error("RunUncached accepted RecordPath+Sample; want rejection")
	}
	if _, err := RecordTrace("gin", rc.RecordPath, rc); err == nil {
		t.Error("RecordTrace accepted an enabled Sample; want rejection")
	}
	if _, err := os.Stat(rc.RecordPath); err == nil {
		t.Error("a rejected recording still left a trace file behind")
	}
}

// TestSampledVsExactGoldenMatrix bounds sampled-mode error against the
// committed exact golden IPCs for every scheme on the full golden
// workload matrix (incl. chain-burst), and pins sampled determinism:
// the same sampled configuration twice must agree on every counter.
func TestSampledVsExactGoldenMatrix(t *testing.T) {
	data, err := os.ReadFile(filepath.FromSlash(goldenPath))
	if err != nil {
		t.Fatalf("reading goldens: %v", err)
	}
	var golden []goldenEntry
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	exact := make(map[string]float64, len(golden))
	for _, e := range golden {
		ipc, err := strconv.ParseFloat(e.IPC, 64)
		if err != nil {
			t.Fatalf("golden %s/%s IPC %q: %v", e.Workload, e.Scheme, e.IPC, err)
		}
		exact[e.Workload+"/"+e.Scheme] = ipc
	}

	rc := goldenRunConfig()
	rc.Sample = goldenSampleSpec()
	// Sampling trades exactness for speed; the tolerance says how much.
	// The golden window is tiny (400k instructions, ~5 intervals), so
	// the bound is loose; real sweeps use far more intervals.
	const relTol = 0.25
	for _, w := range rc.Workloads {
		for _, s := range append(Schemes(), SchemePerfect) {
			res, err := runOne(context.Background(), w, s, rc)
			if err != nil {
				t.Fatalf("%s/%s sampled: %v", w, s, err)
			}
			rep := res.Sample
			if rep == nil {
				t.Fatalf("%s/%s: sampled run returned no SampleReport", w, s)
			}
			if rep.Intervals < 3 {
				t.Errorf("%s/%s: only %d intervals", w, s, rep.Intervals)
			}
			if rep.DetailedFrac <= 0 || rep.DetailedFrac >= 0.5 {
				t.Errorf("%s/%s: detailed fraction %.3f out of (0, 0.5)", w, s, rep.DetailedFrac)
			}
			if rep.Intervals > 1 && !(rep.IPCStdErr >= 0) {
				t.Errorf("%s/%s: bad stderr %v", w, s, rep.IPCStdErr)
			}
			want, ok := exact[w+"/"+string(s)]
			if !ok {
				t.Fatalf("no golden IPC for %s/%s", w, s)
			}
			got := res.Stats.IPC()
			if relErr := math.Abs(got-want) / want; relErr > relTol {
				t.Errorf("%s/%s: sampled IPC %.4f vs exact %.4f — rel error %.1f%% exceeds %.0f%% (stderr %.4f over %d intervals)",
					w, s, got, want, relErr*100, relTol*100, rep.IPCStdErr, rep.Intervals)
			} else {
				t.Logf("%s/%s: sampled %.4f exact %.4f relerr %.2f%% ± %.4f (%d intervals, %.0f%% detailed)",
					w, s, got, want, math.Abs(got-want)/want*100, rep.IPCStdErr, rep.Intervals, rep.DetailedFrac*100)
			}
		}
	}

	// Determinism: a second sampled pass must reproduce every counter.
	for _, pair := range [][2]string{{"gin", string(SchemeHier)}, {"chain-burst", string(SchemeFDIP)}} {
		a, err := runOne(context.Background(), pair[0], Scheme(pair[1]), rc)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runOne(context.Background(), pair[0], Scheme(pair[1]), rc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Stats, b.Stats) {
			t.Errorf("%s/%s: sampled Stats diverged between identical runs", pair[0], pair[1])
		}
		if !reflect.DeepEqual(a.Sample, b.Sample) {
			t.Errorf("%s/%s: SampleReport diverged: %+v vs %+v", pair[0], pair[1], a.Sample, b.Sample)
		}
	}
}

// TestSampledReplayMatchesLiveSampled pins that replay (one zero-copy
// window over the decoded trace) and live runs (a refilled window)
// agree under sampling too: the same sampled spec over a recorded trace
// and over the live engine produces identical statistics.
func TestSampledReplayMatchesLiveSampled(t *testing.T) {
	dir := t.TempDir()
	rc := goldenRunConfig()
	rc.Workloads = []string{"gin"}
	path := filepath.Join(dir, "gin"+TraceExt)
	if _, err := RecordTrace("gin", path, rc); err != nil {
		t.Fatal(err)
	}
	rc.Sample = goldenSampleSpec()
	live, err := runOne(context.Background(), "gin", SchemeHier, rc)
	if err != nil {
		t.Fatal(err)
	}
	rc.TracePath = path
	replay, err := runOne(context.Background(), "gin", SchemeHier, rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live.Stats, replay.Stats) {
		t.Errorf("sampled replay diverged from sampled live:\n--- live\n%s--- replay\n%s",
			live.Stats.Canonical(), replay.Stats.Canonical())
	}
}
