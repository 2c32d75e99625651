package bpu

import (
	"reflect"
	"testing"
	"testing/quick"

	"hprefetch/internal/isa"
	"hprefetch/internal/xrand"
)

func TestDirPredictorLearnsBias(t *testing.T) {
	u := New(DefaultConfig())
	pc := isa.Addr(0x40001C)
	var h History
	// Strongly taken branch: after warmup, predictions must be taken.
	for i := 0; i < 16; i++ {
		u.TrainDir(pc, h, true)
		h = h.Update(true)
	}
	if !u.PredictDir(pc, h) {
		t.Error("saturated-taken branch predicted not-taken")
	}
}

func TestDirPredictorLearnsLoopExit(t *testing.T) {
	// Fixed trip-count loop: history at the exit iteration differs from
	// mid-loop iterations, so a gshare-style predictor learns the exit.
	u := New(DefaultConfig())
	pc := isa.Addr(0x77777C)
	const trips = 5
	var h History
	train := func() {
		for i := 0; i < trips; i++ {
			taken := i < trips-1
			u.TrainDir(pc, h, taken)
			h = h.Update(taken)
		}
	}
	for r := 0; r < 50; r++ {
		train()
	}
	correct := 0
	for i := 0; i < trips; i++ {
		taken := i < trips-1
		if u.PredictDir(pc, h) == taken {
			correct++
		}
		u.TrainDir(pc, h, taken)
		h = h.Update(taken)
	}
	if correct < trips {
		t.Errorf("loop exit prediction: %d/%d correct after training", correct, trips)
	}
}

func TestBTBHitAfterInsert(t *testing.T) {
	u := New(DefaultConfig())
	if _, ok := u.BTBLookup(0x1000); ok {
		t.Error("cold BTB hit")
	}
	u.BTBInsert(0x1000, 0x2000)
	tgt, ok := u.BTBLookup(0x1000)
	if !ok || tgt != 0x2000 {
		t.Errorf("BTB lookup = %v,%v", tgt, ok)
	}
	// Re-insert with new target updates in place.
	u.BTBInsert(0x1000, 0x3000)
	if tgt, _ := u.BTBLookup(0x1000); tgt != 0x3000 {
		t.Error("BTB target not updated")
	}
}

func TestBTBCapacityEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BTBEntries = 64
	cfg.BTBWays = 4
	u := New(cfg)
	// Insert far more branches than capacity; early ones must vanish.
	for i := 0; i < 4096; i++ {
		pc := isa.Addr(0x400000 + i*64)
		u.BTBInsert(pc, pc+4)
	}
	hits := 0
	for i := 0; i < 4096; i++ {
		pc := isa.Addr(0x400000 + i*64)
		if _, ok := u.BTBLookup(pc); ok {
			hits++
		}
	}
	if hits > 64 {
		t.Errorf("finite BTB retains %d of 4096 entries, capacity 64", hits)
	}
	if hits == 0 {
		t.Error("BTB retained nothing")
	}
}

func TestBTBLRUWithinSet(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BTBEntries = 8
	cfg.BTBWays = 4 // 2 sets
	u := New(cfg)
	// Fill one set with 4 entries mapping to the same set, then touch
	// the first and insert a fifth: the untouched oldest must go.
	base := isa.Addr(0x1000)
	step := isa.Addr(8) // pc>>2 differing in low bits; set = hash % 2
	var sameSet []isa.Addr
	for pc := base; len(sameSet) < 5; pc += step {
		if u.btbSet(pc) == u.btbSet(base) {
			sameSet = append(sameSet, pc)
		}
	}
	for _, pc := range sameSet[:4] {
		u.BTBInsert(pc, pc+4)
	}
	if _, ok := u.BTBLookup(sameSet[0]); !ok { // refresh entry 0
		t.Fatal("expected hit")
	}
	u.BTBInsert(sameSet[4], sameSet[4]+4)
	if _, ok := u.BTBLookup(sameSet[0]); !ok {
		t.Error("recently used entry evicted")
	}
	if _, ok := u.BTBLookup(sameSet[1]); ok {
		t.Error("LRU entry survived eviction")
	}
}

func TestInfiniteBTB(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BTBInfinite = true
	u := New(cfg)
	for i := 0; i < 100000; i++ {
		pc := isa.Addr(0x400000 + i*4)
		u.BTBInsert(pc, pc+64)
	}
	for i := 0; i < 100000; i++ {
		pc := isa.Addr(0x400000 + i*4)
		if tgt, ok := u.BTBLookup(pc); !ok || tgt != pc+64 {
			t.Fatalf("infinite BTB lost entry %d", i)
		}
	}
}

func TestIndirectPredictor(t *testing.T) {
	u := New(DefaultConfig())
	pc := isa.Addr(0x500000)
	hA := History(0xAAAA)
	hB := History(0x5555)
	for i := 0; i < 8; i++ {
		u.TrainIndirect(pc, hA, 0x111000)
		u.TrainIndirect(pc, hB, 0x222000)
	}
	if tgt, ok := u.PredictIndirect(pc, hA); !ok || tgt != 0x111000 {
		t.Errorf("context A: %v,%v", tgt, ok)
	}
	if tgt, ok := u.PredictIndirect(pc, hB); !ok || tgt != 0x222000 {
		t.Errorf("context B: %v,%v", tgt, ok)
	}
}

func TestRASMatchesCallStack(t *testing.T) {
	r := NewRAS(16)
	var ref []isa.Addr
	rng := xrand.New(5)
	for i := 0; i < 10000; i++ {
		if len(ref) == 0 || (len(ref) < 12 && rng.Bool(0.55)) {
			a := isa.Addr(rng.Uint64())
			r.Push(a)
			ref = append(ref, a)
		} else {
			want := ref[len(ref)-1]
			ref = ref[:len(ref)-1]
			got, ok := r.Pop()
			if !ok || got != want {
				t.Fatalf("step %d: Pop = %v,%v want %v", i, got, ok, want)
			}
		}
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(4)
	for i := 1; i <= 6; i++ {
		r.Push(isa.Addr(i))
	}
	// Only the 4 most recent survive: 6,5,4,3.
	for want := 6; want >= 3; want-- {
		got, ok := r.Pop()
		if !ok || got != isa.Addr(want) {
			t.Fatalf("Pop = %v,%v want %d", got, ok, want)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Error("overflowed entries resurrected")
	}
}

func TestRASCopyFrom(t *testing.T) {
	a, b := NewRAS(8), NewRAS(8)
	a.Push(0x10)
	a.Push(0x20)
	b.Push(0x99)
	b.CopyFrom(a)
	if b.Depth() != 2 {
		t.Fatalf("depth = %d", b.Depth())
	}
	if v, _ := b.Pop(); v != 0x20 {
		t.Errorf("top = %v", v)
	}
	// The copy must be independent.
	a.Push(0x30)
	if v, _ := b.Pop(); v != 0x10 {
		t.Errorf("copy aliased source: %v", v)
	}
}

func TestHistoryUpdate(t *testing.T) {
	var h History
	h = h.Update(true).Update(false).Update(true)
	if h != 0b101 {
		t.Errorf("history = %b", h)
	}
	if h.UpdatePath(0x40000) == h {
		t.Error("path update must change history")
	}
}

// unitOps applies one operation per word of ops to u and returns every
// prediction it makes. PCs, histories and targets range over few
// values, so a small unit sees BTB hits and evictions, counters
// saturating both ways and indirect entries replaced.
func unitOps(u *Unit, ops []uint32) []any {
	var out []any
	for _, op := range ops {
		pc := isa.Addr(op>>3%64) << 2
		h := History(op >> 9 % 64)
		tgt := isa.Addr(op>>15%8) << 6
		switch op % 6 {
		case 0:
			out = append(out, u.PredictDir(pc, h))
		case 1:
			u.TrainDir(pc, h, op>>18&1 == 1)
		case 2:
			got, ok := u.BTBLookup(pc)
			out = append(out, got, ok)
		case 3:
			u.BTBInsert(pc, tgt)
		case 4:
			got, ok := u.PredictIndirect(pc, h)
			out = append(out, got, ok)
		case 5:
			u.TrainIndirect(pc, h, tgt)
		}
	}
	return out
}

// TestUnitResetEqualsFresh: whatever a unit went through, Reset leaves
// it predicting exactly as a newly built unit does, with a finite BTB
// and an infinite one.
func TestUnitResetEqualsFresh(t *testing.T) {
	cfg := Config{BTBEntries: 16, BTBWays: 4, GshareBits: 5, HistoryBits: 4, IndirectEntries: 8, RASDepth: 4}
	for _, inf := range []bool{false, true} {
		cfg.BTBInfinite = inf
		f := func(dirty, probe []uint32) bool {
			used := New(cfg)
			unitOps(used, dirty)
			used.Reset()
			return reflect.DeepEqual(unitOps(used, probe), unitOps(New(cfg), probe))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("BTBInfinite=%v: %v", inf, err)
		}
	}
}

// rasOps drives an architectural and a speculative stack the way the
// front-end does, pushes and pops on both and the speculative one
// repaired from the architectural one, and returns every prediction.
func rasOps(arch, spec *RAS, ops []uint32) []any {
	var out []any
	for _, op := range ops {
		ret := isa.Addr(op >> 3)
		s := arch
		if op>>31 == 1 {
			s = spec
		}
		switch op % 4 {
		case 0:
			s.Push(ret)
		case 1:
			got, ok := s.Pop()
			out = append(out, got, ok)
		case 2:
			got, ok := s.Peek()
			out = append(out, got, ok)
		case 3:
			spec.CopyFrom(arch)
		}
		out = append(out, arch.Depth(), spec.Depth())
	}
	return out
}

// TestRASResetEqualsFresh: whatever two stacks went through, Reset
// leaves them predicting exactly as newly built stacks do.
func TestRASResetEqualsFresh(t *testing.T) {
	const depth = 4
	f := func(dirty, probe []uint32) bool {
		arch, spec := NewRAS(depth), NewRAS(depth)
		rasOps(arch, spec, dirty)
		arch.Reset()
		spec.Reset()
		return reflect.DeepEqual(rasOps(arch, spec, probe), rasOps(NewRAS(depth), NewRAS(depth), probe))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
