package prefetch

import (
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

func TestRegionBufferStorage(t *testing.T) {
	rb := NewRegionBuffer(16)
	if rb.StorageBits() != 16*(58+32+1) {
		t.Errorf("storage = %d", rb.StorageBits())
	}
}
