package prefetch

import (
	"slices"
	"testing"
	"testing/quick"

	"hprefetch/internal/isa"
)

func TestRegionBasics(t *testing.T) {
	r := Region{Base: 100, Vec: 0}
	if !r.Contains(100) || !r.Contains(131) || r.Contains(132) || r.Contains(99) {
		t.Error("Contains bounds wrong")
	}
	r.Set(100)
	r.Set(131)
	if !r.Has(100) || !r.Has(131) || r.Has(101) {
		t.Error("Set/Has wrong")
	}
	if r.Count() != 2 {
		t.Errorf("Count = %d", r.Count())
	}
	blocks := r.Blocks(nil)
	if len(blocks) != 2 || blocks[0] != 100 || blocks[1] != 131 {
		t.Errorf("Blocks = %v", blocks)
	}
}

func TestRegionBufferCoalesces(t *testing.T) {
	rb := NewRegionBuffer(4)
	for b := isa.Block(0); b < 32; b++ {
		if _, ev := rb.Insert(b); ev {
			t.Fatal("eviction while coalescing a single region")
		}
	}
	if rb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", rb.Len())
	}
	regions := rb.Flush(nil)
	if len(regions) != 1 || regions[0].Count() != 32 || regions[0].Base != 0 {
		t.Fatalf("flushed %v", regions)
	}
	if rb.Len() != 0 {
		t.Error("flush did not clear")
	}
}

func TestRegionBufferFIFOEviction(t *testing.T) {
	rb := NewRegionBuffer(2)
	rb.Insert(0)    // region A
	rb.Insert(1000) // region B
	ev, ok := rb.Insert(2000)
	if !ok || ev.Base != 0 {
		t.Fatalf("expected region A evicted, got %v,%v", ev, ok)
	}
	ev, ok = rb.Insert(3000)
	if !ok || ev.Base != 1000 {
		t.Fatalf("expected region B evicted, got %v,%v", ev, ok)
	}
}

func TestRegionBufferProperty(t *testing.T) {
	// Every inserted block is either in a buffered region or was evicted
	// inside exactly one region; no block is lost or duplicated.
	f := func(seed uint64, n uint8) bool {
		rb := NewRegionBuffer(4)
		counts := map[isa.Block]int{}
		state := seed
		record := func(r Region) {
			for _, b := range r.Blocks(nil) {
				counts[b]++
			}
		}
		blocks := map[isa.Block]bool{}
		for i := 0; i < int(n); i++ {
			state = state*6364136223846793005 + 1442695040888963407
			b := isa.Block(state % 4096)
			blocks[b] = true
			if ev, ok := rb.Insert(b); ok {
				record(ev)
			}
		}
		for _, r := range rb.Flush(nil) {
			record(r)
		}
		for b := range blocks {
			if counts[b] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// refRegionBuffer is a naive model of RegionBuffer: regions in FIFO
// order, oldest first, searched in the slot order a ring of the same
// size would give them.
type refRegionBuffer struct {
	entries int
	fifo    []Region // oldest first
	slot    []int    // ring slot of each fifo entry
	next    int
}

func (r *refRegionBuffer) insert(b isa.Block) (Region, bool) {
	match := -1
	for i := range r.fifo {
		if r.fifo[i].Contains(b) && (match < 0 || r.slot[i] < r.slot[match]) {
			match = i
		}
	}
	if match >= 0 {
		r.fifo[match].Set(b)
		return Region{}, false
	}
	var ev Region
	evicted := len(r.fifo) == r.entries
	if evicted {
		ev = r.fifo[0]
		r.fifo, r.slot = r.fifo[1:], r.slot[1:]
	}
	r.fifo = append(r.fifo, Region{Base: b, Vec: 1})
	r.slot = append(r.slot, r.next)
	r.next = (r.next + 1) % r.entries
	return ev, evicted
}

func (r *refRegionBuffer) flush() []Region {
	out := append([]Region(nil), r.fifo...)
	r.fifo, r.slot, r.next = nil, nil, 0
	return out
}

// TestRegionBufferMatchesReference: over random streams of inserts (with
// repeats and overlapping regions), flushes and clears, the buffer
// evicts, reports and flushes exactly what the naive model does.
func TestRegionBufferMatchesReference(t *testing.T) {
	f := func(entries uint8, ops []uint16) bool {
		n := int(entries%6) + 1
		rb, ref := NewRegionBuffer(n), &refRegionBuffer{entries: n}
		var prev isa.Block
		for _, op := range ops {
			switch {
			case op%53 == 0:
				if !slices.Equal(rb.Flush(nil), ref.flush()) {
					return false
				}
			case op%61 == 0:
				rb.Clear()
				ref.flush()
			default:
				// A small block range makes overlaps common, and every
				// fifth insert repeats the block before it.
				b := isa.Block(op % 256)
				if op%5 == 0 {
					b = prev
				}
				prev = b
				gotEv, gotOK := rb.Insert(b)
				wantEv, wantOK := ref.insert(b)
				if gotEv != wantEv || gotOK != wantOK {
					return false
				}
			}
			if rb.Len() != len(ref.fifo) {
				return false
			}
		}
		return slices.Equal(rb.Flush(nil), ref.flush())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRegionBufferStorage(t *testing.T) {
	rb := NewRegionBuffer(16)
	if rb.StorageBits() != 16*(58+32+1) {
		t.Errorf("storage = %d", rb.StorageBits())
	}
}
