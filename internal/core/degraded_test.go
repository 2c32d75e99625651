package core

import (
	"testing"

	"hprefetch/internal/isa"
	"hprefetch/internal/prefetch/prefetchtest"
)

// TestRejectsTagOnNonCallRet asserts a Bundle tag carried by a plain
// block terminator (a flipped reserved bit) is ignored and counted, not
// trusted as a boundary.
func TestRejectsTagOnNonCallRet(t *testing.T) {
	m := prefetchtest.NewMockMachine()
	p := New(DefaultConfig(), m)

	ev := &isa.BlockEvent{Addr: 0x1000, NumInstr: 16, Tagged: true} // BrNone
	p.OnRetire(ev)
	if p.Counters.Boundaries != 0 {
		t.Errorf("corrupt tag started a Bundle (Boundaries = %d)", p.Counters.Boundaries)
	}
	if p.Counters.BundleRejects != 1 {
		t.Errorf("BundleRejects = %d, want 1", p.Counters.BundleRejects)
	}

	// A genuine tagged call still works.
	p.OnRetire(tag(0xAAAA00))
	if p.Counters.Boundaries != 1 {
		t.Errorf("valid tag rejected (Boundaries = %d)", p.Counters.Boundaries)
	}
}

// TestRejectsBoundaryOutsideText asserts that, with text bounds armed,
// a boundary target outside the text segment is treated as corrupted
// metadata.
func TestRejectsBoundaryOutsideText(t *testing.T) {
	m := prefetchtest.NewMockMachine()
	p := New(DefaultConfig(), m)
	p.SetTextBounds(0x400000, 0x800000)

	p.OnRetire(tag(0x500000)) // inside: accepted
	p.OnRetire(tag(0x900000)) // outside: rejected
	p.OnRetire(tag(0x3FFFFF)) // below base: rejected
	if p.Counters.Boundaries != 1 {
		t.Errorf("Boundaries = %d, want 1", p.Counters.Boundaries)
	}
	if p.Counters.BundleRejects != 2 {
		t.Errorf("BundleRejects = %d, want 2", p.Counters.BundleRejects)
	}
}

// TestReplaySkipsOutOfTextRegions asserts replay never prefetches from
// recorded regions that fall outside the armed text bounds, while
// in-bounds regions still stream.
func TestReplaySkipsOutOfTextRegions(t *testing.T) {
	m := prefetchtest.NewMockMachine()
	p := New(DefaultConfig(), m)
	base := isa.Addr(0x400000)
	// Bound the text to cover the recorded footprint below but not the
	// rogue high blocks.
	p.SetTextBounds(base, base+1<<20)

	good := seqBlocks(base.Block(), 40)
	rogue := seqBlocks((base + 2<<20).Block(), 40) // outside text

	blocks := append(append([]isa.Block{}, good...), rogue...)
	runBundle(p, m, 0x480000, blocks)
	runBundle(p, m, 0x480100, seqBlocks(base.Block()+5000, 5))

	m.Issued = nil
	runBundle(p, m, 0x480000, blocks) // replay pass
	issued := m.IssuedSet()
	for _, b := range rogue {
		if issued[b] {
			t.Fatalf("replay prefetched out-of-text block %v", b)
		}
	}
	coveredGood := 0
	for _, b := range good {
		if issued[b] {
			coveredGood++
		}
	}
	if coveredGood == 0 {
		t.Error("degraded mode suppressed in-bounds replay entirely")
	}
	if p.Counters.BundleRejects == 0 {
		t.Error("out-of-text regions were not counted as rejects")
	}
}
