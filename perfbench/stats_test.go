package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func ascending(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestTailPercentileSelection(t *testing.T) {
	for _, tc := range []struct {
		n      int
		value  float64
		pct    float64
		beyond int
	}{
		{n: 0, value: 0, pct: 0, beyond: 0},
		{n: 1, value: 1, pct: 100, beyond: 0},
		{n: 10, value: 10, pct: 100, beyond: 0},
		{n: 11, value: 1, pct: 100.0 / 11, beyond: 10},
		{n: 20, value: 10, pct: 50, beyond: 10},
		{n: 100, value: 90, pct: 90, beyond: 10},
		{n: 1000, value: 990, pct: 99, beyond: 10},
	} {
		v, pct, beyond := tail(ascending(tc.n))
		if v != tc.value || math.Abs(pct-tc.pct) > 1e-9 || beyond != tc.beyond {
			t.Errorf("tail(n=%d) = %v, p%v, %d beyond; want %v, p%v, %d beyond",
				tc.n, v, pct, beyond, tc.value, tc.pct, tc.beyond)
		}
		if tc.n > minTailBeyond && beyond < minTailBeyond {
			t.Errorf("tail(n=%d) leaves %d samples beyond, want at least %d", tc.n, beyond, minTailBeyond)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := medianOf(tc.in); got != tc.want {
			t.Errorf("medianOf(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestFailureAccounting(t *testing.T) {
	limit := 100 * time.Millisecond
	tooMany := &httpStatusError{op: "submit", code: 429, body: "queue full"}
	unavailable := fmt.Errorf("submit: %w", &httpStatusError{op: "submit", code: 503, body: "breaker open"})
	digest := mismatch("served gin/EIP", "fnv1a64:1", "fnv1a64:2")
	recs := []opRecord{
		{id: 1, lat: 10 * time.Millisecond, instr: 100},
		{id: 2, lat: 200 * time.Millisecond, instr: 100},
		{id: 3, lat: time.Millisecond, err: tooMany},
		{id: 4, lat: time.Millisecond, err: unavailable},
		{id: 5, lat: time.Millisecond, instr: 100, err: digest},
	}
	s := summarize(recs, limit)
	if s.attempted != 5 || s.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 5 and 3", s.attempted, s.failed)
	}
	// Each failure misses the limit however fast it returned, as does
	// the slow success.
	if s.missedLimit != 4 {
		t.Errorf("missedLimit = %d, want 4", s.missedLimit)
	}
	if s.samples != 2 || s.p50MS != 105 {
		t.Errorf("latency samples %d p50 %v, want 2 successes with p50 105 ms", s.samples, s.p50MS)
	}
	if got := s.errorRate(); got != 0.6 {
		t.Errorf("errorRate = %v, want 0.6", got)
	}
	if s.instr != 300 {
		t.Errorf("instr = %d, want 300", s.instr)
	}
	if !refused(tooMany) || !refused(unavailable) {
		t.Error("429 and 503 must count as refused")
	}
	if refused(digest) || refused(&httpStatusError{code: 404}) {
		t.Error("only 429 and 503 are refusals")
	}
	if !errors.Is(digest, errDigestMismatch) {
		t.Error("a mismatch must wrap errDigestMismatch")
	}
}

func TestMetricNameValidation(t *testing.T) {
	ok := metricDef{"a.b_c-1", "ms", "lower"}
	for _, bad := range [][]metricDef{
		{{"", "ms", "lower"}},
		{{"-lead", "ms", "lower"}},
		{{"has space", "ms", "lower"}},
		{{strings.Repeat("x", 65), "ms", "lower"}},
		{{"ok", "", "lower"}},
		{{"ok", "ms per op", "lower"}},
		{{"ok", strings.Repeat("u", 17), "lower"}},
		{{"ok", "ms", "up"}},
		{ok, ok},
	} {
		if err := validateDefs(bad); err == nil {
			t.Errorf("validateDefs(%v) accepted an invalid declaration", bad)
		}
	}
	if err := validateDefs([]metricDef{ok, {strings.Repeat("x", 64), "1/s", "higher"}}); err != nil {
		t.Errorf("valid declarations rejected: %v", err)
	}
}

func TestCheckValues(t *testing.T) {
	defs := []metricDef{{"a", "ms", "lower"}, {"b", "s", "lower"}}
	if err := checkValues(defs, map[string]float64{"a": 1, "b": 0}); err != nil {
		t.Errorf("complete values rejected: %v", err)
	}
	for _, bad := range []map[string]float64{
		{"a": 1},
		{"a": 1, "b": 2, "c": 3},
		{"a": math.NaN(), "b": 1},
		{"a": math.Inf(1), "b": 1},
	} {
		if err := checkValues(defs, bad); err == nil {
			t.Errorf("checkValues(%v) accepted", bad)
		}
	}
}

func TestLayerSumAndUnattributed(t *testing.T) {
	layers := map[string]float64{"engine": 5, "frontend": 8, "hierarchy": 6.5}
	if got := unattributed(40, layers); got != 20.5 {
		t.Errorf("unattributed = %v, want 20.5", got)
	}
	// Layers timed alone may sum past the whole; the remainder then goes
	// negative instead of being clamped away.
	if got := unattributed(15, layers); got != -4.5 {
		t.Errorf("unattributed = %v, want -4.5", got)
	}
	if got := unattributed(7, nil); got != 7 {
		t.Errorf("unattributed with no layers = %v, want 7", got)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	op := tr.root("op", 1)
	a := op.child("a")
	a.end()
	b := op.child("b")
	b.end()
	op.end()
	// Fix the clock so self times are exact.
	tr.spans[0].StartNS, tr.spans[0].EndNS = 0, 10_000_000
	tr.spans[1].StartNS, tr.spans[1].EndNS = 1_000_000, 4_000_000
	tr.spans[2].StartNS, tr.spans[2].EndNS = 5_000_000, 9_000_000
	got := map[string]spanStat{}
	for _, st := range selfTimes(tr.spans) {
		got[st.Name] = st
	}
	want := map[string]spanStat{
		"op": {Name: "op", Count: 1, TotalMS: 10, SelfMS: 3},
		"a":  {Name: "a", Count: 1, TotalMS: 3, SelfMS: 3},
		"b":  {Name: "b", Count: 1, TotalMS: 4, SelfMS: 4},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if tr.spans[1].Parent != tr.spans[0].ID || tr.spans[2].Op != 1 {
		t.Errorf("child spans must name their parent and operation: %+v", tr.spans)
	}
	var off *tracer
	off.root("op", 2).child("x").end() // a nil tracer records nothing
}

func TestKeyStreamDeterministicAndFresh(t *testing.T) {
	streams := func() []*keyStream {
		var out []*keyStream
		for c := 0; c < 2; c++ {
			out = append(out, &keyStream{rng: rand.New(rand.NewPCG(7, uint64(c)+1)), client: c, clients: 2})
		}
		return out
	}
	a, b := streams(), streams()
	fresh := map[serveKey]bool{}
	repeats := 0
	const n = 1000
	for i := 0; i < n; i++ {
		for c := range a {
			ka, fa := a[c].next()
			kb, fb := b[c].next()
			if ka != kb || fa != fb {
				t.Fatalf("client %d op %d: same seed gave %v and %v", c, i, ka, kb)
			}
			if ka.warm+ka.measure != serveWindow {
				t.Fatalf("key %v does not cover the %d-instruction window", ka, serveWindow)
			}
			if fa {
				if fresh[ka] {
					t.Fatalf("fresh key %v issued twice", ka)
				}
				fresh[ka] = true
			} else {
				repeats++
			}
			a[c].remember(ka)
			b[c].remember(kb)
			if len(a[c].recent) > serveRecent {
				t.Fatalf("client %d keeps %d recent keys, want at most %d", c, len(a[c].recent), serveRecent)
			}
		}
	}
	if frac := float64(repeats) / (2 * n); math.Abs(frac-serveRepeatFrac) > 0.05 {
		t.Errorf("repeat fraction %.3f, want about %.2f", frac, serveRepeatFrac)
	}
}

// TestDeclaration loads BENCHMARK.json, the benchmark's declaration at
// the repository root, and checks the contract's limits on it.
func TestDeclaration(t *testing.T) {
	d, err := loadDeclaration("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(d.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if n := len(d.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(d.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	setup := false
	for _, m := range d.EndToEnd {
		setup = setup || m == metricDef{"setup_s", "s", "lower"}
	}
	if !setup {
		t.Error("no setup_s end-to-end metric in s, lower better")
	}
	for _, bad := range []string{`{"workloads":[{"name":"no-such"}]}`, `{"workloads":[]}`, `{"workloads":[{"name":"live-run"}],"end_to_end":[{"name":"-x","unit":"s","better":"lower"}]}`} {
		path := t.TempDir() + "/BENCHMARK.json"
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadDeclaration(path); err == nil {
			t.Errorf("loadDeclaration accepted %s", bad)
		}
	}
}
