// Package prefetch defines the contract between the simulated core and
// the instruction prefetchers under study, plus the spatial-region
// compression machinery shared by the temporal schemes (MANA's regions,
// the Hierarchical Prefetcher's Compression Buffer — §5.3.1).
//
// All evaluated prefetchers run on top of the FDIP front-end, observing
// the retired instruction stream and issuing block prefetches through the
// Machine interface; the simulator charges real latency, MSHR occupancy
// and bandwidth for everything they do.
package prefetch

import "hprefetch/internal/isa"

// Machine is the hardware surface a prefetcher can touch. It is
// implemented by the simulator core.
type Machine interface {
	// Now returns the current cycle (in the simulator's scaled units;
	// use only for relative comparisons and pacing).
	Now() uint64
	// CycleScale returns the number of scaled units per CPU cycle.
	CycleScale() uint64
	// BlockSeq returns the count of retired fetch blocks so far — the
	// clock used for prefetch-distance measurements.
	BlockSeq() uint64
	// InstrSeq returns retired instructions so far (Bundle pacing).
	InstrSeq() uint64
	// Resident reports whether a block is in the L1-I or in flight.
	Resident(b isa.Block) bool
	// Prefetch requests a block fill into the L1-I (or the L2 when the
	// simulator runs in prefetch-to-L2 mode). It returns false if the
	// request was dropped (queue pressure) or redundant.
	Prefetch(b isa.Block) bool
	// PrefetchSpace returns how many further Prefetch calls can be
	// accepted right now; streaming prefetchers use it as back-pressure.
	PrefetchSpace() int
	// AvgMissLatency returns a running estimate of the demand miss
	// latency in scaled units (EIP's timeliness target).
	AvgMissLatency() uint64
	// BlockAgo returns the block that retired closest to `cycles` scaled
	// units ago, for latency-aware trigger selection (EIP).
	BlockAgo(cycles uint64) (isa.Block, bool)
	// MetadataRead models a prefetcher metadata fetch of n bytes at
	// addr, charged through the LLC/memory path; it returns the cycle
	// (scaled) at which the data is available.
	MetadataRead(addr isa.Addr, n int) uint64
	// MetadataWrite models a metadata writeback of n bytes at addr.
	MetadataWrite(addr isa.Addr, n int)
	// PrefetchMapped is Prefetch gated on the ITLB: the request is issued
	// only if the target block's page translation is already present, and
	// withheld (counted as PFTLBDropped) otherwise. TLB-aware schemes use
	// this instead of Prefetch so translation-blocked prefetches never
	// reach the fill path.
	PrefetchMapped(b isa.Block) bool
}

// Prefetcher is an instruction prefetcher under evaluation.
type Prefetcher interface {
	// Name identifies the scheme in reports.
	Name() string
	// OnRetire observes every retired fetch region in program order;
	// this is where training and trigger matching happen. Tagged
	// call/return events carry the Bundle entry bit (§5.2).
	OnRetire(ev *isa.BlockEvent)
	// OnResteer signals a pipeline flush (branch mispredict); schemes
	// that follow the fetch stream (e.g. MANA) must re-synchronise.
	OnResteer()
	// OnDemandMiss observes an L1-I demand miss and the latency (scaled
	// units) it paid; correlating schemes train on this.
	OnDemandMiss(b isa.Block, latency uint64)
	// StorageBits returns the on-chip metadata budget in bits, for the
	// storage-cost comparisons in the paper.
	StorageBits() int
	// Release hands the prefetcher's tables back for the next prefetcher
	// of its kind to reuse. Call it once the run is over and its results
	// have been read; OnRetire on a released prefetcher panics, and a
	// second Release does nothing.
	Release()
}

// Tunable is a Prefetcher whose aggressiveness can be retargeted at run
// time. Degree is the scheme's fan-out per trigger (blocks per miss for
// GHB, bundle burst budget for Hierarchical); lookahead is how far ahead
// of the trigger it starts (history skip for GHB, unpaced replay
// segments for Hierarchical). Each scheme maps the pair onto its own
// knobs; values are clamped scheme-side, so controllers need not know
// per-scheme bounds.
type Tunable interface {
	Prefetcher
	SetAggressiveness(degree, lookahead int)
}

// Controller decides prefetch aggressiveness from observed behaviour.
// Observe is called once per retired fetch block; when it returns
// changed=true the new (degree, lookahead) pair is applied to the
// governed prefetcher. Knobs returns the controller's current operating
// point, applied once at attach time.
type Controller interface {
	Observe(ev *isa.BlockEvent) (degree, lookahead int, changed bool)
	Knobs() (degree, lookahead int)
	// StorageBits is the controller's own on-chip cost (interval
	// counters, state register), added to the governed scheme's budget.
	StorageBits() int
}

// Governed wraps a Tunable prefetcher with a Controller: the controller
// observes the retired stream alongside the scheme and retunes its
// degree/lookahead whenever the feedback calls for it. Schemes opt into
// adaptive throttling by being wrapped — no per-scheme surgery.
type Governed struct {
	inner Tunable
	ctrl  Controller
}

// NewGoverned attaches ctrl to inner and applies the controller's
// initial operating point immediately.
func NewGoverned(inner Tunable, ctrl Controller) *Governed {
	g := &Governed{inner: inner, ctrl: ctrl}
	d, l := ctrl.Knobs()
	inner.SetAggressiveness(d, l)
	return g
}

// Name reports the governed scheme's own name; rows in tables stay
// recognisable whether or not a governor is attached.
func (g *Governed) Name() string { return g.inner.Name() }

// OnRetire feeds the controller first — so a knob change decided on this
// block applies before the scheme reacts to it — then the scheme.
func (g *Governed) OnRetire(ev *isa.BlockEvent) {
	if d, l, changed := g.ctrl.Observe(ev); changed {
		g.inner.SetAggressiveness(d, l)
	}
	g.inner.OnRetire(ev)
}

// OnResteer forwards pipeline flushes to the scheme.
func (g *Governed) OnResteer() { g.inner.OnResteer() }

// OnDemandMiss forwards demand misses to the scheme.
func (g *Governed) OnDemandMiss(b isa.Block, latency uint64) {
	g.inner.OnDemandMiss(b, latency)
}

// StorageBits is the scheme's budget plus the controller's counters.
func (g *Governed) StorageBits() int {
	return g.inner.StorageBits() + g.ctrl.StorageBits()
}

// Release releases the scheme's tables.
func (g *Governed) Release() { g.inner.Release() }

// Inner returns the wrapped prefetcher (for tests and diagnostics).
func (g *Governed) Inner() Tunable { return g.inner }

var _ Prefetcher = (*Governed)(nil)

// RegionBlocks is the spatial-region span used throughout the paper: 32
// contiguous cache blocks per region.
const RegionBlocks = 32

// Region is a compressed spatial region: a base block plus a bit vector
// over the following RegionBlocks blocks (bit 0 = the base itself).
type Region struct {
	Base isa.Block
	Vec  uint32
}

// Contains reports whether the region can represent block b.
func (r *Region) Contains(b isa.Block) bool {
	return b >= r.Base && b < r.Base+RegionBlocks
}

// Set marks block b (which must be within range).
func (r *Region) Set(b isa.Block) {
	r.Vec |= 1 << uint(b-r.Base)
}

// Has reports whether block b is marked.
func (r *Region) Has(b isa.Block) bool {
	return r.Contains(b) && r.Vec&(1<<uint(b-r.Base)) != 0
}

// Count returns the number of marked blocks.
func (r *Region) Count() int {
	v := r.Vec
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}

// Blocks appends the marked blocks in ascending order to dst.
func (r *Region) Blocks(dst []isa.Block) []isa.Block {
	for i := 0; i < RegionBlocks; i++ {
		if r.Vec&(1<<uint(i)) != 0 {
			dst = append(dst, r.Base+isa.Block(i))
		}
	}
	return dst
}

// RegionBuffer is the fully-associative FIFO compression buffer of §5.3.1:
// retiring blocks coalesce into the matching region; when a new region is
// needed the oldest one is evicted and handed to the caller.
//
// Slots fill in order from 0 after every Clear, so the valid regions are
// always regions[:size], and once the buffer is full head is the oldest.
type RegionBuffer struct {
	regions []Region
	head    int // next FIFO eviction slot
	size    int

	// last is the most recently inserted block, valid when haveLast. No
	// region changes until the next Insert, so inserting it again would
	// only set a bit already set.
	last     isa.Block
	haveLast bool
}

// NewRegionBuffer builds a buffer with the given entry count (the paper
// uses 16 entries per core).
func NewRegionBuffer(entries int) *RegionBuffer {
	return &RegionBuffer{regions: make([]Region, entries)}
}

// Insert records a retired block. When the block opens a new region and
// the buffer is full, the oldest region is evicted and returned.
func (rb *RegionBuffer) Insert(b isa.Block) (evicted Region, ok bool) {
	if rb.haveLast && b == rb.last {
		return Region{}, false
	}
	rb.last, rb.haveLast = b, true
	valid := rb.regions[:rb.size]
	for i := range valid {
		if valid[i].Contains(b) {
			valid[i].Set(b)
			return Region{}, false
		}
	}
	slot := rb.head
	if rb.size == len(rb.regions) {
		evicted, ok = rb.regions[slot], true
	} else {
		rb.size++
	}
	rb.regions[slot] = Region{Base: b, Vec: 1}
	rb.head = (rb.head + 1) % len(rb.regions)
	return evicted, ok
}

// Flush evicts every valid region in FIFO order, oldest first,
// appending them to dst.
func (rb *RegionBuffer) Flush(dst []Region) []Region {
	if rb.size == len(rb.regions) {
		dst = append(dst, rb.regions[rb.head:]...)
		dst = append(dst, rb.regions[:rb.head]...)
	} else {
		dst = append(dst, rb.regions[:rb.size]...)
	}
	rb.Clear()
	return dst
}

// Clear drops every buffered region.
func (rb *RegionBuffer) Clear() {
	rb.size = 0
	rb.head = 0
	rb.haveLast = false
}

// Len returns the number of valid regions buffered.
func (rb *RegionBuffer) Len() int { return rb.size }

// StorageBits returns the on-chip cost of the buffer: each entry holds a
// block-granular base address (58 bits at 64-bit addresses with 6 block
// bits) plus the 32-bit vector and a valid bit.
func (rb *RegionBuffer) StorageBits() int {
	return len(rb.regions) * (58 + 32 + 1)
}
