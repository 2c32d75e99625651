package cache

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"hprefetch/internal/isa"
	"hprefetch/internal/xrand"
)

// mustNew builds a table, failing the test on a bad configuration.
func mustNew(t *testing.T, cfg Config) *Table {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Name: "x", Sets: 3, Ways: 2}); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
	if _, err := New(Config{Name: "x", Sets: 4, Ways: 0}); err == nil {
		t.Error("zero ways accepted")
	}
	if _, err := New(Config{Name: "x", Sets: 0, Ways: 2}); err == nil {
		t.Error("zero sets accepted")
	}
}

func TestLookupInsert(t *testing.T) {
	c := mustNew(t, Config{Name: "l1i", Sets: 64, Ways: 8})
	if _, ok := c.Lookup(100); ok {
		t.Error("cold hit")
	}
	c.Insert(100, LineMeta{Origin: OriginFDIP})
	m, ok := c.Lookup(100)
	if !ok || m.Origin != OriginFDIP {
		t.Fatalf("lookup = %v,%v", m, ok)
	}
	m.Used = true
	if m2, _ := c.Peek(100); !m2.Used {
		t.Error("metadata pointer not live")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestInsertEvictsLRU(t *testing.T) {
	c := mustNew(t, Config{Name: "t", Sets: 1, Ways: 2})
	c.Insert(1, LineMeta{})
	c.Insert(2, LineMeta{})
	c.Lookup(1) // make 2 the LRU
	k, _, ev := c.Insert(3, LineMeta{})
	if !ev || k != 2 {
		t.Errorf("evicted %d,%v; want 2", k, ev)
	}
	if !c.Contains(1) || !c.Contains(3) || c.Contains(2) {
		t.Error("post-eviction contents wrong")
	}
}

func TestInsertExistingRefreshes(t *testing.T) {
	c := mustNew(t, Config{Name: "t", Sets: 1, Ways: 2})
	c.Insert(1, LineMeta{Origin: OriginDemand})
	c.Insert(2, LineMeta{})
	if _, _, ev := c.Insert(1, LineMeta{Origin: OriginPF}); ev {
		t.Error("re-insert evicted")
	}
	m, _ := c.Peek(1)
	if m.Origin != OriginPF {
		t.Error("re-insert did not refresh metadata")
	}
	// 1 is now MRU; inserting a third key must evict 2.
	if k, _, ev := c.Insert(3, LineMeta{}); !ev || k != 2 {
		t.Errorf("evicted %d,%v", k, ev)
	}
}

func TestInsertRefreshPreservesUsed(t *testing.T) {
	c := mustNew(t, Config{Name: "t", Sets: 1, Ways: 2})
	c.Insert(1, LineMeta{Origin: OriginPF, IssueSeq: 5})
	m, _ := c.Lookup(1)
	m.Used = true
	// A re-install (e.g. a redundant fill completing) must not strip the
	// usefulness credit the line already earned.
	c.Insert(1, LineMeta{Origin: OriginPF, IssueSeq: 9})
	m2, ok := c.Peek(1)
	if !ok || !m2.Used {
		t.Fatalf("refresh dropped Used bit: %+v", m2)
	}
	if m2.IssueSeq != 9 {
		t.Errorf("refresh kept stale IssueSeq %d, want 9", m2.IssueSeq)
	}
	// An unused line stays unused across a refresh.
	c.Insert(2, LineMeta{Origin: OriginFDIP})
	c.Insert(2, LineMeta{Origin: OriginFDIP})
	if m3, _ := c.Peek(2); m3.Used {
		t.Error("refresh invented a Used bit")
	}
}

// TestInsertVictimDeterminism pins the deterministic victim choice:
// fills into a non-full set never evict, and a full set always evicts
// the least-recently-touched line — the recency order is total, so
// there is no tie to break and every process picks the same victim.
func TestInsertVictimDeterminism(t *testing.T) {
	c := mustNew(t, Config{Name: "t", Sets: 1, Ways: 4})
	for _, k := range []uint64{10, 20, 30, 40} {
		if _, _, ev := c.Insert(k, LineMeta{}); ev {
			t.Fatalf("fill of %d into non-full set evicted", k)
		}
	}
	// Recency now 40>30>20>10; touch 10 and 30, leaving 20 as LRU.
	c.Lookup(10)
	c.Lookup(30)
	k, _, ev := c.Insert(99, LineMeta{})
	if !ev || k != 20 {
		t.Errorf("eviction took %d (evicted=%v), want LRU key 20", k, ev)
	}
	// The survivors and the new line are all resident.
	for _, want := range []uint64{10, 30, 40, 99} {
		if !c.Contains(want) {
			t.Errorf("key %d missing after eviction", want)
		}
	}
}

func TestInvalidate(t *testing.T) {
	c := mustNew(t, Config{Name: "t", Sets: 4, Ways: 2})
	c.Insert(9, LineMeta{Origin: OriginPF})
	m, ok := c.Invalidate(9)
	if !ok || m.Origin != OriginPF {
		t.Error("invalidate lost metadata")
	}
	if c.Contains(9) {
		t.Error("key survives invalidate")
	}
	if _, ok := c.Invalidate(9); ok {
		t.Error("double invalidate succeeded")
	}
}

// TestLRUAgainstReference compares the table against a reference LRU
// model over random traffic.
func TestLRUAgainstReference(t *testing.T) {
	const sets, ways = 4, 4
	c := mustNew(t, Config{Name: "ref", Sets: sets, Ways: ways})
	// Reference: per set, ordered slice of keys (front = MRU).
	ref := make([][]uint64, sets)
	rng := xrand.New(77)
	find := func(s []uint64, k uint64) int {
		for i, v := range s {
			if v == k {
				return i
			}
		}
		return -1
	}
	for i := 0; i < 200000; i++ {
		key := uint64(rng.IntN(64))
		set := int(key % sets)
		if rng.Bool(0.6) {
			_, hit := c.Lookup(key)
			j := find(ref[set], key)
			if hit != (j >= 0) {
				t.Fatalf("step %d: hit=%v ref=%v", i, hit, j >= 0)
			}
			if j >= 0 {
				k := ref[set][j]
				ref[set] = append(ref[set][:j], ref[set][j+1:]...)
				ref[set] = append([]uint64{k}, ref[set]...)
			}
		} else {
			_, _, ev := c.Insert(key, LineMeta{})
			j := find(ref[set], key)
			if j >= 0 {
				if ev {
					t.Fatalf("step %d: refresh evicted", i)
				}
				k := ref[set][j]
				ref[set] = append(ref[set][:j], ref[set][j+1:]...)
				ref[set] = append([]uint64{k}, ref[set]...)
			} else {
				if len(ref[set]) == ways {
					ref[set] = ref[set][:ways-1] // drop LRU
				}
				ref[set] = append([]uint64{key}, ref[set]...)
				_ = ev
			}
		}
	}
	// Final contents must agree.
	for set := range ref {
		for _, k := range ref[set] {
			if !c.Contains(k) {
				t.Fatalf("reference key %d missing", k)
			}
		}
	}
}

func TestTableProperty(t *testing.T) {
	// After inserting any sequence, a just-inserted key is always
	// present and total valid entries never exceed capacity.
	f := func(seed uint64, n uint16) bool {
		c := mustNew(t, Config{Name: "q", Sets: 8, Ways: 2})
		rng := xrand.New(seed)
		for i := 0; i < int(n%512); i++ {
			k := uint64(rng.IntN(1000))
			c.Insert(k, LineMeta{})
			if !c.Contains(k) {
				return false
			}
		}
		count := 0
		for k := uint64(0); k < 1000; k++ {
			if c.Contains(k) {
				count++
			}
		}
		return count <= c.Config().SizeBlocks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReset(t *testing.T) {
	c := mustNew(t, Config{Name: "t", Sets: 2, Ways: 2})
	c.Insert(1, LineMeta{})
	c.Lookup(1)
	c.Reset()
	if c.Contains(1) || c.Hits != 0 || c.Misses != 0 {
		t.Error("reset incomplete")
	}
}

func TestMSHRFile(t *testing.T) {
	m := NewMSHRFile(2)
	if err := m.Add(&MSHR{Block: 1, FillAt: 10}); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(&MSHR{Block: 2, FillAt: 20}); err != nil {
		t.Fatal(err)
	}
	if !m.Full() || m.Len() != 2 {
		t.Error("capacity accounting wrong")
	}
	if e, ok := m.Lookup(1); !ok || e.FillAt != 10 {
		t.Error("lookup failed")
	}
	drained := map[isa.Block]bool{}
	m.Drain(15, func(e *MSHR) { drained[e.Block] = true })
	if !drained[1] || drained[2] || m.Len() != 1 {
		t.Errorf("drain wrong: %v len=%d", drained, m.Len())
	}
	m.Remove(2)
	if m.Len() != 0 {
		t.Error("remove failed")
	}
}

// TestMSHRDrainOrder pins the deterministic retirement order: completed
// fills come back sorted by (FillAt, Block) regardless of insertion
// order — the property the L1-I install/eviction sequence depends on.
func TestMSHRDrainOrder(t *testing.T) {
	perms := [][]MSHR{
		{{Block: 9, FillAt: 30}, {Block: 2, FillAt: 10}, {Block: 7, FillAt: 10}, {Block: 5, FillAt: 20}, {Block: 1, FillAt: 40}},
		{{Block: 1, FillAt: 40}, {Block: 5, FillAt: 20}, {Block: 7, FillAt: 10}, {Block: 2, FillAt: 10}, {Block: 9, FillAt: 30}},
		{{Block: 7, FillAt: 10}, {Block: 9, FillAt: 30}, {Block: 1, FillAt: 40}, {Block: 5, FillAt: 20}, {Block: 2, FillAt: 10}},
	}
	want := []isa.Block{2, 7, 5, 9} // (10,2) (10,7) (20,5) (30,9); block 1 still in flight
	for pi, entries := range perms {
		m := NewMSHRFile(8)
		for i := range entries {
			if err := m.Add(&entries[i]); err != nil {
				t.Fatal(err)
			}
		}
		var got []isa.Block
		m.Drain(30, func(e *MSHR) { got = append(got, e.Block) })
		if len(got) != len(want) {
			t.Fatalf("perm %d: drained %v, want %v", pi, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("perm %d: drained %v, want %v", pi, got, want)
			}
		}
		if m.Len() != 1 {
			t.Errorf("perm %d: %d entries left, want 1", pi, m.Len())
		}
	}
}

// TestMSHRSlotReuse exercises the fixed-capacity file through
// remove/re-add churn: slots free and refill without losing entries.
func TestMSHRSlotReuse(t *testing.T) {
	m := NewMSHRFile(3)
	for b := isa.Block(1); b <= 3; b++ {
		if err := m.Add(&MSHR{Block: b, FillAt: uint64(b) * 10}); err != nil {
			t.Fatal(err)
		}
	}
	m.Remove(2)
	if m.Full() || m.Len() != 2 {
		t.Fatalf("after remove: len=%d full=%v", m.Len(), m.Full())
	}
	if err := m.Add(&MSHR{Block: 4, FillAt: 40}); err != nil {
		t.Fatal(err)
	}
	for _, b := range []isa.Block{1, 3, 4} {
		if _, ok := m.Lookup(b); !ok {
			t.Errorf("block %d lost across slot reuse", b)
		}
	}
	if _, ok := m.Lookup(2); ok {
		t.Error("removed block still tracked")
	}
	// Drain callbacks may allocate: slots are freed before fn runs.
	m.Drain(1<<62, func(e *MSHR) {
		if e.Block == 1 {
			if err := m.Add(&MSHR{Block: 8, FillAt: 80}); err != nil {
				t.Errorf("Add during Drain: %v", err)
			}
		}
	})
	if _, ok := m.Lookup(8); !ok || m.Len() != 1 {
		t.Errorf("entry added during drain lost: len=%d", m.Len())
	}
	m.Reset()
	if m.Len() != 0 || m.Full() {
		t.Error("reset incomplete")
	}
}

// TestMSHRAddErrors asserts allocation failures come back as typed
// errors rather than panics, and that a failed Add leaves the file
// unchanged.
func TestMSHRAddErrors(t *testing.T) {
	m := NewMSHRFile(1)
	if err := m.Add(&MSHR{Block: 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(&MSHR{Block: 2}); !errors.Is(err, ErrMSHROverflow) {
		t.Errorf("overflow Add: err = %v, want ErrMSHROverflow", err)
	}
	if m.Len() != 1 {
		t.Errorf("failed Add changed occupancy: len = %d", m.Len())
	}
	if _, ok := m.Lookup(2); ok {
		t.Error("failed Add installed the entry")
	}

	m2 := NewMSHRFile(4)
	if err := m2.Add(&MSHR{Block: 3, FillAt: 7}); err != nil {
		t.Fatal(err)
	}
	if err := m2.Add(&MSHR{Block: 3}); !errors.Is(err, ErrMSHRDuplicate) {
		t.Errorf("duplicate Add: err = %v, want ErrMSHRDuplicate", err)
	}
	if e, ok := m2.Lookup(3); !ok || e.FillAt != 7 {
		t.Error("duplicate Add clobbered the original entry")
	}
}

// tableOps applies one operation per word of ops to tab and returns
// every observable result, ending with the hit and miss counters. Keys
// range over 32 values, so a small table sees hits, evictions and
// invalidations; a Lookup hit may mark its line used, as a demand fetch
// does.
func tableOps(tab *Table, ops []uint32) []any {
	var out []any
	for _, op := range ops {
		key := uint64(op>>3) % 32
		switch op % 5 {
		case 0:
			meta, ok := tab.Lookup(key)
			if ok {
				out = append(out, *meta)
				meta.Used = meta.Used || op>>8&1 == 1
			}
			out = append(out, ok)
		case 1:
			out = append(out, tab.Contains(key))
		case 2:
			meta, ok := tab.Peek(key)
			if ok {
				out = append(out, *meta)
			}
			out = append(out, ok)
		case 3:
			meta := LineMeta{Origin: Origin(op >> 8 % 3), Used: op>>10&1 == 1, IssueSeq: uint64(op >> 11)}
			k, m, evicted := tab.Insert(key, meta)
			out = append(out, k, m, evicted)
		case 4:
			m, ok := tab.Invalidate(key)
			out = append(out, m, ok)
		}
	}
	return append(out, tab.Hits, tab.Misses)
}

// TestTableResetEqualsFresh: whatever a table went through, Reset
// leaves it answering every later operation exactly as a newly built
// table does.
func TestTableResetEqualsFresh(t *testing.T) {
	cfg := Config{Name: "r", Sets: 4, Ways: 3}
	f := func(dirty, probe []uint32) bool {
		used := mustNew(t, cfg)
		tableOps(used, dirty)
		used.Reset()
		return reflect.DeepEqual(tableOps(used, probe), tableOps(mustNew(t, cfg), probe))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// mshrOps applies one operation per word of ops to m on a clock that
// advances by up to 3 per operation, and returns every observable
// result: Add errors by kind, Lookup hits, the drain order, occupancy.
func mshrOps(m *MSHRFile, ops []uint32) []any {
	var out []any
	var now uint64
	for _, op := range ops {
		now += uint64(op>>13) % 4
		blk := isa.Block(op>>2) % 96
		switch op % 4 {
		case 0:
			err := m.Add(&MSHR{Block: blk, FillAt: now + uint64(op>>7)%32, Origin: Origin(op >> 15 % 3), IssueSeq: now})
			out = append(out, errors.Is(err, ErrMSHROverflow), errors.Is(err, ErrMSHRDuplicate))
		case 1:
			m.Remove(blk)
		case 2:
			e, ok := m.Lookup(blk)
			if ok {
				out = append(out, *e)
			}
			out = append(out, ok)
		case 3:
			var drained []MSHR
			m.Drain(now, func(e *MSHR) { drained = append(drained, *e) })
			out = append(out, drained)
		}
		out = append(out, m.Len(), m.Full())
	}
	return out
}

// TestMSHRResetEqualsFresh: whatever a file went through, Reset leaves
// it answering every later operation exactly as a newly built file
// does, with an occupancy mask of one word and of two.
func TestMSHRResetEqualsFresh(t *testing.T) {
	for _, capacity := range []int{5, 70} {
		f := func(dirty, probe []uint32) bool {
			used := NewMSHRFile(capacity)
			mshrOps(used, dirty)
			used.Reset()
			return reflect.DeepEqual(mshrOps(used, probe), mshrOps(NewMSHRFile(capacity), probe))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("capacity %d: %v", capacity, err)
		}
	}
}

// TestRemovalsCountsEveryLoss: Removals moves exactly when a line leaves
// the table (an eviction, an invalidation of a resident key, a reset),
// and not on lookups, refreshes, fills of a free way or misses.
func TestRemovalsCountsEveryLoss(t *testing.T) {
	c := mustNew(t, Config{Name: "l1i", Sets: 1, Ways: 2})
	steps := []struct {
		op   func()
		want uint64
	}{
		{func() { c.Insert(1, LineMeta{}) }, 0},
		{func() { c.Insert(2, LineMeta{}) }, 0},
		{func() { c.Lookup(1); c.Lookup(9); c.Contains(2) }, 0},
		{func() { c.Insert(1, LineMeta{Used: true}) }, 0},
		{func() { c.Insert(3, LineMeta{}) }, 1}, // evicts 2
		{func() { c.Invalidate(7) }, 1},
		{func() { c.Invalidate(3) }, 2},
		{func() { c.Reset() }, 3},
		{func() { c.Insert(4, LineMeta{}) }, 3},
	}
	for i, s := range steps {
		s.op()
		if got := c.Removals(); got != s.want {
			t.Fatalf("step %d: Removals = %d, want %d", i, got, s.want)
		}
	}
}
