// Package cache provides the storage structures of the simulated memory
// hierarchy (Table 1): set-associative LRU tables used for the I-cache
// hierarchy levels and the I-TLB, and the MSHR file that tracks in-flight
// fills (whose residual latency is how late prefetches are detected). The
// timing policy — who fills what, when, and at what cost — lives in the
// simulator that composes these structures.
package cache

import (
	"errors"
	"fmt"
	"math/bits"

	"hprefetch/internal/isa"
)

// Origin says what caused a line to be brought in; it drives the
// accuracy/coverage bookkeeping.
type Origin uint8

const (
	// OriginDemand is a demand fetch fill.
	OriginDemand Origin = iota
	// OriginFDIP is a fill issued by the FDIP front-end.
	OriginFDIP
	// OriginPF is a fill issued by the evaluated prefetcher.
	OriginPF
)

func (o Origin) String() string {
	switch o {
	case OriginDemand:
		return "demand"
	case OriginFDIP:
		return "fdip"
	case OriginPF:
		return "prefetch"
	default:
		return fmt.Sprintf("Origin(%d)", uint8(o))
	}
}

// LineMeta is the per-line bookkeeping carried through the hierarchy.
type LineMeta struct {
	// Origin says who installed the line.
	Origin Origin
	// Used marks that a demand access hit the line after installation.
	Used bool
	// IssueSeq is the retired-block sequence number when the installing
	// request was issued; the prefetch-distance metric is the delta to
	// the first use.
	IssueSeq uint64
}

// Config sizes one table.
type Config struct {
	// Name labels the table in statistics.
	Name string
	// Sets and Ways give the organisation; Sets must be a power of two.
	Sets, Ways int
}

// SizeBlocks returns the capacity in entries.
func (c Config) SizeBlocks() int { return c.Sets * c.Ways }

// Table is a set-associative LRU table keyed by a 64-bit key (cache block
// index or page number).
//
// Each set stores its resident lines as a recency-ordered prefix of the
// set's way slots: keys[base] is the MRU line, keys[base+cnt-1] the LRU
// one, and slots past cnt are empty. This move-to-front layout is
// observationally identical to a per-line LRU age field (the ages such a
// scheme maintains are exactly the recency ranks this layout stores
// positionally) but makes the two hottest operations cheap: lookups
// usually find their line in the first way or two, and refreshing
// recency is a short prefix rotate instead of a full-set age walk.
type Table struct {
	cfg  Config
	mask uint64
	ways int
	keys []uint64
	meta []LineMeta
	cnt  []uint8 // per-set occupancy (valid lines form a prefix)

	// removals counts the times lines left the table (see Removals).
	removals uint64

	// Hits and Misses count Lookup outcomes.
	Hits, Misses uint64
}

// New builds a table. Sets must be a power of two and Ways at least 1.
func New(cfg Config) (*Table, error) {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: sets %d not a positive power of two", cfg.Name, cfg.Sets)
	}
	if cfg.Ways <= 0 || cfg.Ways > 255 {
		return nil, fmt.Errorf("cache %s: ways %d out of range", cfg.Name, cfg.Ways)
	}
	n := cfg.Sets * cfg.Ways
	return &Table{
		cfg:  cfg,
		mask: uint64(cfg.Sets - 1),
		ways: cfg.Ways,
		keys: make([]uint64, n),
		meta: make([]LineMeta, n),
		cnt:  make([]uint8, cfg.Sets),
	}, nil
}

// Config returns the table's configuration.
func (t *Table) Config() Config { return t.cfg }

// Removals counts the times lines have left the table: evictions,
// invalidations and resets. A key resident when it read some value is
// still resident while the count reads the same.
func (t *Table) Removals() uint64 { return t.removals }

// Lookup probes for key; on a hit it refreshes LRU, counts the hit, and
// returns a pointer to the line's metadata (valid until the next
// operation on the same set).
func (t *Table) Lookup(key uint64) (*LineMeta, bool) {
	set := key & t.mask
	base := int(set) * t.ways
	n := int(t.cnt[set])
	for w := 0; w < n; w++ {
		if t.keys[base+w] == key {
			t.touch(base, w)
			t.Hits++
			return &t.meta[base], true
		}
	}
	t.Misses++
	return nil, false
}

// Contains probes without touching LRU or counting statistics.
func (t *Table) Contains(key uint64) bool {
	set := key & t.mask
	base := int(set) * t.ways
	n := int(t.cnt[set])
	for w := 0; w < n; w++ {
		if t.keys[base+w] == key {
			return true
		}
	}
	return false
}

// Peek returns the metadata without touching LRU or statistics. The
// pointer is valid until the next operation on the same set.
func (t *Table) Peek(key uint64) (*LineMeta, bool) {
	set := key & t.mask
	base := int(set) * t.ways
	n := int(t.cnt[set])
	for w := 0; w < n; w++ {
		if t.keys[base+w] == key {
			return &t.meta[base+w], true
		}
	}
	return nil, false
}

// Insert installs key with the given metadata, returning the evicted key
// and metadata if a valid line was displaced. Inserting an existing key
// refreshes its metadata and LRU position instead; the resident line's
// Used bit survives the refresh — a re-install must not strip usefulness
// credit already earned by a demand hit.
func (t *Table) Insert(key uint64, meta LineMeta) (evictedKey uint64, evictedMeta LineMeta, evicted bool) {
	set := key & t.mask
	base := int(set) * t.ways
	n := int(t.cnt[set])
	for w := 0; w < n; w++ {
		if t.keys[base+w] == key {
			meta.Used = meta.Used || t.meta[base+w].Used
			t.meta[base+w] = meta
			t.touch(base, w)
			return 0, LineMeta{}, false
		}
	}
	if n == t.ways {
		// Set full: the LRU line (last in recency order) is displaced.
		evictedKey, evictedMeta, evicted = t.keys[base+n-1], t.meta[base+n-1], true
		t.removals++
		n--
	} else {
		t.cnt[set]++
	}
	// Shift the survivors down one slot and install at the MRU front.
	copy(t.keys[base+1:base+n+1], t.keys[base:base+n])
	copy(t.meta[base+1:base+n+1], t.meta[base:base+n])
	t.keys[base] = key
	t.meta[base] = meta
	return evictedKey, evictedMeta, evicted
}

// Invalidate removes key if present, returning its metadata.
func (t *Table) Invalidate(key uint64) (LineMeta, bool) {
	set := key & t.mask
	base := int(set) * t.ways
	n := int(t.cnt[set])
	for w := 0; w < n; w++ {
		if t.keys[base+w] == key {
			meta := t.meta[base+w]
			copy(t.keys[base+w:base+n-1], t.keys[base+w+1:base+n])
			copy(t.meta[base+w:base+n-1], t.meta[base+w+1:base+n])
			t.cnt[set]--
			t.removals++
			return meta, true
		}
	}
	return LineMeta{}, false
}

// touch moves the line at way to the MRU front of its set by rotating
// the prefix above it down one slot.
func (t *Table) touch(base, way int) {
	if way == 0 {
		return
	}
	k := t.keys[base+way]
	m := t.meta[base+way]
	copy(t.keys[base+1:base+way+1], t.keys[base:base+way])
	copy(t.meta[base+1:base+way+1], t.meta[base:base+way])
	t.keys[base] = k
	t.meta[base] = m
}

// Reset clears contents and statistics, leaving the table as New
// builds it: slots past each set's occupancy keep stale lines, which no
// operation reads. It counts as a removal, so Removals never repeats a
// value across it.
func (t *Table) Reset() {
	clear(t.cnt)
	t.Hits, t.Misses = 0, 0
	t.removals++
}

// MSHR is one in-flight fill.
type MSHR struct {
	// Block is the cache block being filled.
	Block isa.Block
	// FillAt is the cycle the data arrives.
	FillAt uint64
	// Origin says who issued the request.
	Origin Origin
	// IssueSeq is the retired-block sequence number at issue.
	IssueSeq uint64
	// Level records which hierarchy level serves the fill (2, 3, 4).
	Level uint8
}

// MSHRFile tracks in-flight fills with bounded capacity. It is a fixed
// array sized once at construction — hardware MSHR files are a handful
// of entries, so linear probes beat a map on the simulator's hottest
// path, steady-state operation never allocates, and (unlike a Go map)
// every traversal order is deterministic: Drain retires completed fills
// in (FillAt, Block) order, so downstream L1-I install and eviction
// order is identical on every run of the same trace. Occupancy is kept
// as a bitmask so probes walk only the live entries (typically a small
// fraction of capacity) in ascending slot order, instead of scanning
// the whole backing array.
type MSHRFile struct {
	entries []MSHR   // fixed backing store, len == capacity
	live    []uint64 // occupancy bitmask, bit i: entries[i] is in flight
	n       int      // current occupancy
	drain   []MSHR   // scratch for Drain, reused across calls
}

// NewMSHRFile builds a file with the given capacity.
func NewMSHRFile(capacity int) *MSHRFile {
	if capacity < 1 {
		capacity = 1
	}
	return &MSHRFile{
		entries: make([]MSHR, capacity),
		live:    make([]uint64, (capacity+63)/64),
		drain:   make([]MSHR, 0, capacity),
	}
}

// Lookup returns the in-flight entry for block, if any. The pointer
// aims into the file's backing store: it is valid until the entry is
// removed (or drained) and its slot reused by a later Add.
func (m *MSHRFile) Lookup(b isa.Block) (*MSHR, bool) {
	for wi, word := range m.live {
		for word != 0 {
			i := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if m.entries[i].Block == b {
				return &m.entries[i], true
			}
		}
	}
	return nil, false
}

// Full reports whether no entry can be allocated.
func (m *MSHRFile) Full() bool { return m.n >= len(m.entries) }

// Len returns the current occupancy.
func (m *MSHRFile) Len() int { return m.n }

// ErrMSHROverflow and ErrMSHRDuplicate are the MSHR allocation
// failures. Callers are expected to check Full/Lookup first (hardware
// does), so hitting either at runtime means the caller's accounting has
// drifted; surfacing it as an error lets a simulation run fail cleanly
// instead of taking the whole process down.
var (
	ErrMSHROverflow  = errors.New("cache: MSHR file overflow")
	ErrMSHRDuplicate = errors.New("cache: duplicate MSHR")
)

// Add allocates an entry (copying *e into the file). It returns
// ErrMSHROverflow when the file is full and ErrMSHRDuplicate when the
// block is already tracked.
func (m *MSHRFile) Add(e *MSHR) error {
	if m.Full() {
		return fmt.Errorf("%w (cap %d, block %#x)", ErrMSHROverflow, len(m.entries), uint64(e.Block))
	}
	if _, dup := m.Lookup(e.Block); dup {
		return fmt.Errorf("%w (block %#x)", ErrMSHRDuplicate, uint64(e.Block))
	}
	// Lowest free slot (matches the old first-free linear scan).
	free := -1
	for wi, word := range m.live {
		if hole := ^word; hole != 0 {
			free = wi<<6 + bits.TrailingZeros64(hole)
			break
		}
	}
	if free < 0 || free >= len(m.entries) {
		// Unreachable given the Full check, but stay safe.
		return fmt.Errorf("%w (cap %d, block %#x)", ErrMSHROverflow, len(m.entries), uint64(e.Block))
	}
	m.entries[free] = *e
	m.live[free>>6] |= 1 << uint(free&63)
	m.n++
	return nil
}

// Remove deallocates the entry for block. The slot's contents stay in
// place until a later Add reuses it, so a pointer obtained from Lookup
// just before Remove still reads the removed entry's fields.
func (m *MSHRFile) Remove(b isa.Block) {
	for wi, word := range m.live {
		for word != 0 {
			i := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if m.entries[i].Block == b {
				m.live[wi] &^= 1 << uint(i&63)
				m.n--
				return
			}
		}
	}
}

// Drain calls fn for every entry whose fill has completed by now and
// removes it. Completed entries are handed to fn in (FillAt, Block)
// order — the order the fills actually arrive, ties broken by block —
// so the caller's install/eviction sequence is deterministic. Entries
// are deallocated before the first callback, so fn may Add.
func (m *MSHRFile) Drain(now uint64, fn func(*MSHR)) {
	done := m.drain[:0]
	for wi, word := range m.live {
		for word != 0 {
			i := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if m.entries[i].FillAt <= now {
				m.live[wi] &^= 1 << uint(i&63)
				m.n--
				done = append(done, m.entries[i])
			}
		}
	}
	// Insertion sort: the file holds a handful of entries and completed
	// batches are near-sorted already.
	for i := 1; i < len(done); i++ {
		for j := i; j > 0 && earlier(&done[j], &done[j-1]); j-- {
			done[j], done[j-1] = done[j-1], done[j]
		}
	}
	for i := range done {
		fn(&done[i])
	}
	m.drain = done[:0]
}

// earlier orders completed fills by arrival time, then block.
func earlier(a, b *MSHR) bool {
	if a.FillAt != b.FillAt {
		return a.FillAt < b.FillAt
	}
	return a.Block < b.Block
}

// Reset clears all entries, leaving the file as NewMSHRFile builds it:
// slots outside the occupancy mask are never read.
func (m *MSHRFile) Reset() {
	clear(m.live)
	m.n = 0
}
