package fleet

import (
	"context"
	"sync"
	"testing"
	"time"

	"hprefetch/internal/harness"
	"hprefetch/internal/service"
	"hprefetch/internal/xrand"
)

// TestFleetChaosSoak is the fleet's capstone: a real sweep over three
// backends while a chaos loop kills and restarts random backends AND
// the coordinator itself dies mid-sweep and recovers from its journal.
// The bar afterwards is absolute, not statistical:
//
//   - the sweep completes (no job lost),
//   - every job key appears exactly once (no job duplicated),
//   - the aggregated table is byte-identical to a single-node run,
//   - the digest quorum saw zero mismatches.
//
// soakSweep runs long enough (seconds per cold job) that backend kills
// and the coordinator crash land while jobs are genuinely in flight.
func soakSweep() SweepSpec {
	return SweepSpec{
		Workloads:    []string{"gin", "echo"},
		Schemes:      []string{"FDIP", "Hierarchical"},
		WarmInstr:    2_000_000,
		MeasureInstr: 6_000_000,
	}
}

func TestFleetChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	harness.DropCache()
	backends := []*testBackend{startBackend(t), startBackend(t), startBackend(t)}
	urls := []string{backends[0].url(), backends[1].url(), backends[2].url()}

	cfg := fastFleetConfig(urls...)
	cfg.JournalPath = t.TempDir() + "/coord.wal"
	cfg.HedgeAfter = 300 * time.Millisecond
	cfg.QuorumFraction = 0.25
	cfg.QuorumSeed = 11

	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := c1.Submit(soakSweep())
	if err != nil {
		t.Fatal(err)
	}

	// Chaos loop: six kill/restart cycles against seeded-random victims.
	// Bounded so the fleet gets calm air to converge at the end.
	var chaos sync.WaitGroup
	chaos.Add(1)
	t.Cleanup(chaos.Wait) // never let the loop outlive the test
	go func() {
		defer chaos.Done()
		rng := xrand.New(99)
		for i := 0; i < 6; i++ {
			time.Sleep(250 * time.Millisecond)
			victim := backends[rng.IntN(len(backends))]
			victim.stop()
			time.Sleep(300 * time.Millisecond)
			victim.restart()
		}
	}()

	// Meanwhile the coordinator itself crashes mid-sweep and a successor
	// adopts the journal while backends are still being shot.
	time.Sleep(400 * time.Millisecond)
	c1.Close()
	c2, err := New(cfg)
	if err != nil {
		t.Fatalf("coordinator restart: %v", err)
	}
	defer c2.Close()
	if got := c2.Metrics().SweepsReplayed.Load(); got != 1 {
		t.Fatalf("successor replayed %d sweeps, want 1", got)
	}
	replayed, ok := c2.Sweep(sw.ID)
	if !ok {
		t.Fatalf("sweep %s lost across coordinator crash (known: %v)", sw.ID, c2.Sweeps())
	}

	v := awaitSweep(t, replayed, 3*time.Minute)
	if v.State != service.JobDone {
		t.Fatalf("soak sweep finished %s: %s\njobs: %+v", v.State, v.Error, v.Jobs)
	}

	// No job lost, no job duplicated.
	seen := map[string]int{}
	for _, js := range v.Jobs {
		seen[js.Key]++
		if js.State != service.JobDone {
			t.Fatalf("job %s ended %s: %s", js.Key, js.State, js.Error)
		}
	}
	keys := sweepKeys(soakSweep())
	if len(v.Jobs) != len(keys) {
		t.Fatalf("sweep tracked %d jobs, want %d", len(v.Jobs), len(keys))
	}
	for _, key := range keys {
		if seen[key] != 1 {
			t.Fatalf("job %s completed %d times, want exactly once", key, seen[key])
		}
	}

	if got := c2.Metrics().QuorumMismatches.Load(); got != 0 {
		t.Fatalf("digest quorum saw %d mismatches during chaos", got)
	}

	// Byte-identical to a single node, digests included (table notes).
	local, err := RunLocal(context.Background(), soakSweep())
	if err != nil {
		t.Fatal(err)
	}
	if v.Table != local.String() {
		t.Fatalf("chaos-soaked table differs from single-node run:\nfleet:\n%s\nlocal:\n%s", v.Table, local.String())
	}
	if v.TableDigest != local.Digest() {
		t.Fatalf("table digest %s != local %s", v.TableDigest, local.Digest())
	}
}
