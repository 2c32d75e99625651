package sim

import (
	"math"
	"reflect"
	"testing"
)

// hist builds a ReqStallHist-sized histogram from sparse (bucket, count)
// pairs so the tables below stay readable.
func hist(pairs ...[2]uint64) []uint64 {
	h := make([]uint64, len(ReqStallBuckets))
	for _, p := range pairs {
		h[p[0]] = p[1]
	}
	return h
}

func TestReqStallPercentileCycles(t *testing.T) {
	last := uint64(len(ReqStallBuckets) - 1)
	for _, tc := range []struct {
		name      string
		completed uint64
		hist      []uint64
		max       uint64 // scaled units
		q         float64
		want      float64
	}{
		{
			name: "zero completed returns zero",
			hist: hist(), q: 0.99, want: 0,
		},
		{
			name: "zero completed with stale hist returns zero",
			hist: hist([2]uint64{3, 5}), q: 0.5, want: 0,
		},
		{
			name:      "nil histogram returns zero",
			completed: 10, hist: nil, q: 0.5, want: 0,
		},
		{
			name:      "single bucket interpolates to bucket bound",
			completed: 4, hist: hist([2]uint64{2, 4}), max: 2 * CycleScale,
			q: 1, want: 2, // bucket 2's bound is 2 cycles
		},
		{
			name:      "single zero-bucket stays at zero",
			completed: 7, hist: hist([2]uint64{0, 7}), max: 0,
			q: 0.999, want: 0,
		},
		{
			name:      "catch-all bucket bounded by worst request",
			completed: 1, hist: hist([2]uint64{last, 1}), max: 5_000_000 * CycleScale,
			q: 1, want: 5_000_000,
		},
		{
			name:      "catch-all never interpolates above max",
			completed: 2, hist: hist([2]uint64{last, 2}), max: 100 * CycleScale,
			q: 0.5, want: float64(ReqStallBuckets[last-1]), // hi clamps up to lo, collapsing the bucket
		},
		{
			name:      "nan rank reads as zeroth percentile",
			completed: 3, hist: hist([2]uint64{1, 3}), max: CycleScale,
			q: math.NaN(), want: 0,
		},
		{
			name:      "negative rank clamps to zero",
			completed: 3, hist: hist([2]uint64{1, 3}), max: CycleScale,
			q: -0.5, want: 0,
		},
		{
			name:      "rank above one clamps to the tail",
			completed: 2, hist: hist([2]uint64{2, 2}), max: 2 * CycleScale,
			q: 1.5, want: 2,
		},
		{
			name:      "median interpolates within bucket",
			completed: 2, hist: hist([2]uint64{0, 1}, [2]uint64{3, 1}), max: 4 * CycleScale,
			// rank 1.0 lands at the end of the first bucket: exactly 0.
			q: 0.5, want: 0,
		},
		{
			name:      "tail percentile lands in later bucket",
			completed: 10, hist: hist([2]uint64{0, 9}, [2]uint64{4, 1}), max: 8 * CycleScale,
			// rank 9.9 → 0.9 through bucket 4, which spans (4, 8].
			q: 0.99, want: 4 + 0.9*(8-4),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &Stats{ReqCompleted: tc.completed, ReqStallHist: tc.hist, ReqStallMax: tc.max}
			got := s.ReqStallPercentileCycles(tc.q)
			if math.IsNaN(got) || math.IsInf(got, 0) {
				t.Fatalf("q=%v returned non-finite %v", tc.q, got)
			}
			if math.Abs(got-tc.want) > 1e-9 {
				t.Errorf("q=%v = %v, want %v", tc.q, got, tc.want)
			}
		})
	}
}

// TestReqStallPercentileMonotonic pins that the percentile curve never
// decreases in q and never panics, across a busy multi-bucket histogram.
func TestReqStallPercentileMonotonic(t *testing.T) {
	s := &Stats{
		ReqCompleted: 100,
		ReqStallHist: hist([2]uint64{0, 40}, [2]uint64{3, 25}, [2]uint64{7, 20},
			[2]uint64{12, 14}, [2]uint64{uint64(len(ReqStallBuckets) - 1), 1}),
		ReqStallMax: 3_000_000 * CycleScale,
	}
	prev := -1.0
	for q := 0.0; q <= 1.0+1e-9; q += 0.01 {
		got := s.ReqStallPercentileCycles(q)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("q=%.2f returned non-finite %v", q, got)
		}
		if got < prev {
			t.Fatalf("percentile decreased: q=%.2f gave %v after %v", q, got, prev)
		}
		prev = got
	}
	if worst := s.ReqStallPercentileCycles(1); worst != 3_000_000 {
		t.Errorf("q=1 = %v, want the worst observed request (3000000)", worst)
	}
}

// TestRatioAccessorsZeroDenominator pins every derived-ratio accessor to
// a finite zero on a zero-valued Stats: a scheme that never issues a
// prefetch (or a run that retires no instruction) must render as 0, not
// NaN/Inf, in tables, digests-adjacent JSON and the serving layer. The
// numerator variants prove the guards sit on the denominator, not on
// accidental all-zero structs.
func TestRatioAccessorsZeroDenominator(t *testing.T) {
	accessors := []struct {
		name string
		get  func(*Stats) float64
	}{
		{"IPC", (*Stats).IPC},
		{"MPKI", (*Stats).MPKI},
		{"L1IMPKI", (*Stats).L1IMPKI},
		{"PFAccuracy", (*Stats).PFAccuracy},
		{"PFCoverageL1", (*Stats).PFCoverageL1},
		{"PFCoverageL2", (*Stats).PFCoverageL2},
		{"PFLateFraction", (*Stats).PFLateFraction},
		{"PFTLBMissFraction", (*Stats).PFTLBMissFraction},
		{"PFAvgDistance", (*Stats).PFAvgDistance},
		{"AvgMissLatencyCycles", (*Stats).AvgMissLatencyCycles},
		{"ReqStallMeanCycles", (*Stats).ReqStallMeanCycles},
		{"ReqStallP99", func(s *Stats) float64 { return s.ReqStallPercentileCycles(0.99) }},
	}

	cases := []struct {
		name string
		st   Stats
	}{
		{"zero value", Stats{}},
		// Counters that look like numerators set without their
		// denominators: the exact states a half-initialised or
		// partially-deserialised Stats lands in.
		{"instructions without cycles", Stats{Instructions: 1000}},
		{"mispredicts without instructions", Stats{CondMispredicts: 5, RASMispredicts: 3}},
		{"useful without issued", Stats{PFUseful: 10}},
		{"tlb misses without issued", Stats{PFTLBMiss: 4}},
		{"late without useful", Stats{LatePF: 7}},
		{"distance sum without count", Stats{PFDistSum: 123}},
		{"latency sums without serves", Stats{LatencyL2Sum: 99, LatencyMemSum: 7}},
		{"stall sum without requests", Stats{ReqStallSum: 55}},
	}
	for _, tc := range cases {
		for _, a := range accessors {
			got := a.get(&tc.st)
			if math.IsNaN(got) || math.IsInf(got, 0) {
				t.Errorf("%s/%s = %v, want finite", tc.name, a.name, got)
			}
		}
	}

	// The guards must not clamp real ratios: a populated Stats still
	// divides.
	full := Stats{
		Instructions: 2000, ScaledCycles: 1000 * CycleScale,
		PFIssued: 100, PFUseful: 60, LatePF: 20, PFTLBMiss: 10,
		PFDistSum: 500, PFDistCount: 50,
	}
	if got := full.IPC(); got != 2 {
		t.Errorf("IPC = %v, want 2", got)
	}
	if got := full.PFAccuracy(); got != 0.6 {
		t.Errorf("PFAccuracy = %v, want 0.6", got)
	}
	if got := full.PFLateFraction(); got != 0.25 {
		t.Errorf("PFLateFraction = %v, want 0.25", got)
	}
	if got := full.PFTLBMissFraction(); got != 0.1 {
		t.Errorf("PFTLBMissFraction = %v, want 0.1", got)
	}
	if got := full.PFAvgDistance(); got != 10 {
		t.Errorf("PFAvgDistance = %v, want 10", got)
	}
}

// TestAddFromFoldsEveryField fills every Stats field with a distinct
// non-zero value and folds it twice into a fresh aggregate: each
// counter and histogram element must double, except ReqStallMax, which
// keeps the maximum. A field AddFrom skipped would stay zero here.
func TestAddFromFoldsEveryField(t *testing.T) {
	o := NewStats()
	v := reflect.ValueOf(o).Elem()
	n := uint64(1)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Slice, reflect.Array:
			if f.Len() == 0 {
				t.Fatalf("%s has no elements to fill", v.Type().Field(i).Name)
			}
			for j := 0; j < f.Len(); j++ {
				f.Index(j).SetUint(n)
				n++
			}
		default:
			f.SetUint(n)
			n++
		}
	}

	agg := NewStats()
	agg.AddFrom(o)
	agg.AddFrom(o)
	got := reflect.ValueOf(agg).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		want := func(x uint64) uint64 { return 2 * x }
		if name == "ReqStallMax" {
			want = func(x uint64) uint64 { return x }
		}
		f, g := v.Field(i), got.Field(i)
		switch f.Kind() {
		case reflect.Slice, reflect.Array:
			for j := 0; j < f.Len(); j++ {
				if g.Index(j).Uint() != want(f.Index(j).Uint()) {
					t.Errorf("%s[%d] = %d after two folds of %d", name, j, g.Index(j).Uint(), f.Index(j).Uint())
				}
			}
		default:
			if g.Uint() != want(f.Uint()) {
				t.Errorf("%s = %d after two folds of %d", name, g.Uint(), f.Uint())
			}
		}
	}

	small := NewStats()
	small.ReqStallMax = 1
	agg.AddFrom(small)
	if agg.ReqStallMax != o.ReqStallMax {
		t.Errorf("ReqStallMax = %d after folding a smaller maximum, want %d", agg.ReqStallMax, o.ReqStallMax)
	}

	if allocs := testing.AllocsPerRun(100, func() { agg.AddFrom(o) }); allocs != 0 {
		t.Errorf("AddFrom allocates %.1f times per call, want 0", allocs)
	}
}
