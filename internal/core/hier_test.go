package core

import (
	"testing"

	"hprefetch/internal/isa"
	"hprefetch/internal/prefetch/prefetchtest"
)

// tag emits a tagged call event whose target determines the Bundle ID.
func tag(target isa.Addr) *isa.BlockEvent {
	return &isa.BlockEvent{
		Addr: 0x100, NumInstr: 4,
		Branch: isa.BrCall, BrPC: 0x10C, Target: target, Tagged: true,
	}
}

func evb(b isa.Block) *isa.BlockEvent {
	return &isa.BlockEvent{Addr: b.Addr(), NumInstr: 16}
}

// runBundle feeds one Bundle: a tagged entry followed by a block walk.
func runBundle(p *Hier, m *prefetchtest.MockMachine, entry isa.Addr, blocks []isa.Block) {
	p.OnRetire(tag(entry))
	for _, b := range blocks {
		m.InstrSeqV += 16
		m.NowV += 4 * 48
		m.BlockSeqV++
		p.OnRetire(evb(b))
	}
}

func seqBlocks(base isa.Block, n int) []isa.Block {
	out := make([]isa.Block, n)
	for i := range out {
		out[i] = base + isa.Block(i)
	}
	return out
}

func TestRecordThenReplay(t *testing.T) {
	m := prefetchtest.NewMockMachine()
	p := New(DefaultConfig(), m)
	blocks := seqBlocks(1000, 300)

	runBundle(p, m, 0xAAAA00, blocks) // first execution: record only
	firstIssued := len(m.Issued)
	runBundle(p, m, 0xBBBB00, seqBlocks(50_000, 10)) // boundary closes record
	if firstIssued != 0 {
		t.Fatalf("replay fired before any record existed (%d issues)", firstIssued)
	}

	m.Issued = nil
	runBundle(p, m, 0xAAAA00, blocks) // second execution: replay
	issued := m.IssuedSet()
	covered := 0
	for _, b := range blocks {
		if issued[b] {
			covered++
		}
	}
	if covered < len(blocks)*8/10 {
		t.Fatalf("replay covered %d of %d recorded blocks", covered, len(blocks))
	}
	if p.Counters.MATHits == 0 {
		t.Error("MAT never hit")
	}
}

func TestReplayIsMostRecentExecution(t *testing.T) {
	m := prefetchtest.NewMockMachine()
	p := New(DefaultConfig(), m)
	oldSet := seqBlocks(1000, 100)
	newSet := seqBlocks(9000, 100)

	runBundle(p, m, 0xAAAA00, oldSet)
	runBundle(p, m, 0xBBBB00, seqBlocks(50_000, 5))
	runBundle(p, m, 0xAAAA00, newSet) // supersedes the old record
	runBundle(p, m, 0xBBBB00, seqBlocks(50_000, 5))

	m.Issued = nil
	runBundle(p, m, 0xAAAA00, newSet)
	issued := m.IssuedSet()
	for _, b := range oldSet {
		if issued[b] {
			t.Fatalf("stale block %v replayed after record superseded", b)
		}
	}
	coveredNew := 0
	for _, b := range newSet {
		if issued[b] {
			coveredNew++
		}
	}
	if coveredNew < 80 {
		t.Errorf("only %d of 100 fresh blocks replayed", coveredNew)
	}
}

func TestBundleIDFromNextInstruction(t *testing.T) {
	p := New(DefaultConfig(), prefetchtest.NewMockMachine())
	a := p.bundleID(0x400000)
	b := p.bundleID(0x400004)
	if a == b {
		t.Error("adjacent targets hash to the same Bundle ID")
	}
	if a >= 1<<24 || b >= 1<<24 {
		t.Error("Bundle ID exceeds 24 bits")
	}
}

func TestStorageBudgetMatchesPaper(t *testing.T) {
	p := New(DefaultConfig(), prefetchtest.NewMockMachine())
	if p.StorageBits() != 15872 {
		t.Errorf("on-chip storage = %d bits, paper says 15872 (1.94KB)", p.StorageBits())
	}
	if p.Name() != "Hierarchical" {
		t.Error("name")
	}
}

func TestMetadataTrafficCharged(t *testing.T) {
	m := prefetchtest.NewMockMachine()
	p := New(DefaultConfig(), m)
	blocks := seqBlocks(1000, 400)
	runBundle(p, m, 0xAAAA00, blocks)
	runBundle(p, m, 0xBBBB00, seqBlocks(50_000, 5))
	if m.MetaWrites == 0 {
		t.Error("record produced no metadata writes")
	}
	reads := m.MetaReads
	runBundle(p, m, 0xAAAA00, blocks)
	if m.MetaReads == reads {
		t.Error("replay produced no metadata reads")
	}
}

func TestMetadataLatencyGatesReplay(t *testing.T) {
	m := prefetchtest.NewMockMachine()
	m.MetaDelay = 1 << 40 // metadata effectively never arrives
	p := New(DefaultConfig(), m)
	blocks := seqBlocks(1000, 100)
	runBundle(p, m, 0xAAAA00, blocks)
	runBundle(p, m, 0xBBBB00, seqBlocks(50_000, 5))
	m.Issued = nil
	runBundle(p, m, 0xAAAA00, blocks)
	if len(m.Issued) != 0 {
		t.Error("replay issued prefetches before metadata arrived")
	}
}

func TestRecordLengthCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxSegments = 2
	m := prefetchtest.NewMockMachine()
	p := New(cfg, m)
	// A huge bundle: scattered blocks forcing many regions.
	var blocks []isa.Block
	for i := 0; i < 500; i++ {
		blocks = append(blocks, isa.Block(i*64)) // one region each
	}
	runBundle(p, m, 0xAAAA00, blocks)
	runBundle(p, m, 0xBBBB00, seqBlocks(900_000, 5))
	m.Issued = nil
	runBundle(p, m, 0xAAAA00, blocks)
	// Replay can cover at most MaxSegments * RegionsPerSegment regions.
	max := cfg.MaxSegments * cfg.RegionsPerSegment * 32
	if len(m.Issued) > max {
		t.Errorf("replayed %d blocks despite a %d-segment cap", len(m.Issued), cfg.MaxSegments)
	}
}

func TestMATCapacityEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MATEntries = 16
	cfg.MATWays = 2
	m := prefetchtest.NewMockMachine()
	p := New(cfg, m)
	// Touch far more bundles than MAT entries.
	for i := 0; i < 200; i++ {
		entry := isa.Addr(0x100000 + i*0x1000)
		runBundle(p, m, entry, seqBlocks(isa.Block(1000+i*10), 5))
	}
	hits := p.Counters.MATHits
	if hits != 0 {
		t.Logf("unexpected (but harmless) MAT hits from aliasing: %d", hits)
	}
	// Revisit the last few — they should still be tracked.
	m.Issued = nil
	before := p.Counters.MATHits
	for i := 195; i < 200; i++ {
		entry := isa.Addr(0x100000 + i*0x1000)
		runBundle(p, m, entry, seqBlocks(isa.Block(1000+i*10), 5))
	}
	if p.Counters.MATHits == before {
		t.Error("recently recorded bundles already evicted from a 16-entry MAT")
	}
}

func TestBundleSummaryTracksStats(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TrackStats = true
	m := prefetchtest.NewMockMachine()
	p := New(cfg, m)
	blocks := seqBlocks(1000, 50)
	for i := 0; i < 4; i++ {
		runBundle(p, m, 0xAAAA00, blocks)
		runBundle(p, m, 0xBBBB00, seqBlocks(70_000, 20))
	}
	sum := p.BundleSummary()
	if sum.DistinctBundles != 2 {
		t.Fatalf("distinct = %d", sum.DistinctBundles)
	}
	if sum.Executions < 6 {
		t.Errorf("executions = %d", sum.Executions)
	}
	// Identical executions: Jaccard must be 1.
	if sum.AvgJaccard < 0.999 {
		t.Errorf("identical footprints scored Jaccard %.3f", sum.AvgJaccard)
	}
	wantKB := float64(50*isa.BlockSize) / 1024
	if sum.AvgFootprintKB < wantKB/2 {
		t.Errorf("footprint %.2fKB, expected around %.2f+", sum.AvgFootprintKB, wantKB)
	}
}

func TestNoStatsWithoutTracking(t *testing.T) {
	m := prefetchtest.NewMockMachine()
	p := New(DefaultConfig(), m)
	runBundle(p, m, 0xAAAA00, seqBlocks(1000, 10))
	if sum := p.BundleSummary(); sum.DistinctBundles != 0 {
		t.Error("stats collected without TrackStats")
	}
}

func TestSegmentWrapInvalidation(t *testing.T) {
	// A tiny metadata buffer forces circular reclamation; replay must
	// survive chains being overwritten (no panics, chain-broken counted
	// or replay simply ends).
	cfg := DefaultConfig()
	cfg.MetadataKB = 4 // ~10 segments
	m := prefetchtest.NewMockMachine()
	p := New(cfg, m)
	for i := 0; i < 50; i++ {
		entry := isa.Addr(0x100000 + (i%7)*0x1000)
		var blocks []isa.Block
		for j := 0; j < 200; j++ {
			blocks = append(blocks, isa.Block(1000+i*7+j*64))
		}
		runBundle(p, m, entry, blocks)
	}
	// Reaching here without panic is the main assertion; the buffer is
	// far too small for 7 interleaved bundles, so replays must have
	// been cut short at least once.
	if p.Counters.ChainBroken == 0 && p.Counters.MATHits > 10 {
		t.Log("note: no chain breaks observed; wrap pressure may be low")
	}
}

func TestRecordOnceKeepsStaleFootprint(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecordOnce = true
	m := prefetchtest.NewMockMachine()
	p := New(cfg, m)
	oldSet := seqBlocks(1000, 80)
	newSet := seqBlocks(9000, 80)

	runBundle(p, m, 0xAAAA00, oldSet)
	runBundle(p, m, 0xBBBB00, seqBlocks(50_000, 5))
	runBundle(p, m, 0xAAAA00, newSet) // would supersede in default mode
	runBundle(p, m, 0xBBBB00, seqBlocks(50_000, 5))

	m.Issued = nil
	runBundle(p, m, 0xAAAA00, newSet)
	issued := m.IssuedSet()
	stale := 0
	for _, b := range oldSet {
		if issued[b] {
			stale++
		}
	}
	if stale < len(oldSet)/2 {
		t.Errorf("record-once replayed only %d stale blocks; first footprint not retained", stale)
	}
	fresh := 0
	for _, b := range newSet {
		if issued[b] {
			fresh++
		}
	}
	if fresh > len(newSet)/4 {
		t.Errorf("record-once learned %d fresh blocks; it should not re-record", fresh)
	}
}

func TestDisablePacingStreamsEagerly(t *testing.T) {
	// With pacing off, the whole recorded footprint streams as soon as
	// the metadata arrives, regardless of execution progress. Scattered
	// blocks (one spatial region each) force a multi-segment record.
	blocks := make([]isa.Block, 200)
	for i := range blocks {
		blocks[i] = isa.Block(1000 + i*64)
	}
	record := func(cfg Config) int {
		m := prefetchtest.NewMockMachine()
		p := New(cfg, m)
		runBundle(p, m, 0xAAAA00, blocks)
		runBundle(p, m, 0xBBBB00, seqBlocks(900_000, 5))
		m.Issued = nil
		// Re-enter the bundle but execute only the first quarter:
		// pacing must hold later segments back; unpaced must not.
		p.OnRetire(tag(0xAAAA00))
		for i := 0; i < 50; i++ {
			m.InstrSeqV += 16
			p.OnRetire(evb(blocks[i]))
		}
		return len(m.Issued)
	}
	paced := record(DefaultConfig())
	cfg := DefaultConfig()
	cfg.DisablePacing = true
	unpaced := record(cfg)
	if unpaced <= paced {
		t.Errorf("unpaced replay issued %d <= paced %d", unpaced, paced)
	}
}

// TestSetAggressivenessKnobs: the Tunable hooks retarget the replay
// burst budget and free-segment pacing window, with clamping at both
// ends; an ungoverned Hier keeps the paper's defaults.
func TestSetAggressivenessKnobs(t *testing.T) {
	m := prefetchtest.NewMockMachine()
	p := New(DefaultConfig(), m)
	if p.burst != DefaultConfig().BurstPrefetches || p.freeSegs != 1 {
		t.Fatalf("ungoverned defaults wrong: burst %d freeSegs %d", p.burst, p.freeSegs)
	}
	p.SetAggressiveness(4, 2)
	if p.burst != 4 || p.freeSegs != 2 {
		t.Fatalf("knobs not applied: burst %d freeSegs %d", p.burst, p.freeSegs)
	}
	p.SetAggressiveness(0, 0)
	if p.burst != 1 || p.freeSegs != 1 {
		t.Fatalf("low clamp: burst %d freeSegs %d", p.burst, p.freeSegs)
	}
	p.SetAggressiveness(1, 1<<20)
	if p.freeSegs != len(p.segs) {
		t.Fatalf("high clamp: freeSegs %d, want %d", p.freeSegs, len(p.segs))
	}
}

// TestBurstBudgetThrottlesReplay: a burst budget of 1 issues at most one
// prefetch per retired event during replay, while the default budget
// streams a whole segment's worth; both replay the same recording.
func TestBurstBudgetThrottlesReplay(t *testing.T) {
	record := func(p *Hier, m *prefetchtest.MockMachine) {
		blocks := seqBlocks(1000, 120)
		runBundle(p, m, 0x4000, blocks)
		runBundle(p, m, 0x8000, seqBlocks(5000, 4)) // close the first recording
	}
	issuedWith := func(burst int) (total, maxPerEvent int) {
		m := prefetchtest.NewMockMachine()
		p := New(DefaultConfig(), m)
		record(p, m)
		if burst > 0 {
			p.SetAggressiveness(burst, 1)
		}
		m.Issued = nil
		p.OnRetire(tag(0x4000)) // replay trigger
		for _, b := range seqBlocks(1000, 20) {
			before := len(m.Issued)
			m.InstrSeqV += 16
			m.NowV += 4 * 48
			m.BlockSeqV++
			p.OnRetire(evb(b))
			if d := len(m.Issued) - before; d > maxPerEvent {
				maxPerEvent = d
			}
		}
		return len(m.Issued), maxPerEvent
	}
	oneTotal, onePeak := issuedWith(1)
	defTotal, _ := issuedWith(0)
	if onePeak > 1 {
		t.Fatalf("burst 1 issued %d prefetches in one event", onePeak)
	}
	if defTotal <= oneTotal {
		t.Fatalf("default burst total (%d) not above burst-1 total (%d)", defTotal, oneTotal)
	}
}

// TestBundleBoundaryAllocatesNothing: once its tables are warm, the
// prefetcher allocates nothing across Bundle boundaries — the
// Compression Buffer's residue is cleared, or flushed into storage the
// prefetcher reuses, rather than copied into a fresh slice.
func TestBundleBoundaryAllocatesNothing(t *testing.T) {
	m := prefetchtest.NewMockMachine()
	p := New(DefaultConfig(), m)
	a, b := seqBlocks(1000, 300), seqBlocks(50_000, 40)
	round := func() {
		m.Issued = m.Issued[:0]
		runBundle(p, m, 0xAAAA00, a)
		runBundle(p, m, 0xBBBB00, b)
	}
	round()
	round()
	if p.Counters.MATHits == 0 {
		t.Fatal("no Bundle replayed")
	}
	if n := testing.AllocsPerRun(20, round); n != 0 {
		t.Fatalf("%v allocations per two Bundle boundaries, want 0", n)
	}
}
