package harness

import (
	"context"
	"runtime"
	"testing"
)

// warmRunCeiling bounds what a warm 60k-instruction gin run of any
// scheme allocates once earlier runs have filled the machine and
// prefetcher pools and the program's body table. Warm runs read 8 to
// 10 KB; with fresh prefetcher tables and per-engine bodies they read
// 56 KB (FDIP) to 253 KB (EIP).
const warmRunCeiling = 24 << 10

// TestWarmRunAllocatesLittle: a run's machine and prefetcher tables
// come back from their pools and its function bodies from the program's
// table, so a warm run allocates little beyond its statistics and event
// window. The pools do not depend on which processor runs the test or on
// when collections run, so each of three warm runs must stay under the
// ceiling.
func TestWarmRunAllocatesLittle(t *testing.T) {
	rc := DefaultRunConfig()
	rc.WarmInstr, rc.MeasureInstr = 20_000, 40_000
	for _, s := range AllSchemes() {
		run := func() uint64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			if _, err := runOne(context.Background(), "gin", s, rc); err != nil {
				t.Fatalf("gin/%s: %v", s, err)
			}
			runtime.ReadMemStats(&ms)
			return ms.TotalAlloc - before
		}
		run()
		most := max(run(), run(), run())
		if most > warmRunCeiling {
			t.Errorf("gin/%s: a warm 60k-instruction run allocated %d bytes, want at most %d", s, most, warmRunCeiling)
		}
	}
}
