// Package ghb implements a Global History Buffer instruction
// prefetcher (Nesbit & Smith), adapted from the classic data-side GHB
// exemplar to the instruction stream: the global history is the
// sequence of discontinuous fetch-block transitions (branch targets
// landing in a new block) in retire order, indexed by block address
// (G/AC organisation). On each discontinuity — and on every L1-I
// demand miss — the prefetcher finds the previous occurrence of the
// same block in the history and prefetches the blocks that followed it
// last time: the recurring control-flow sequences of server
// instruction working sets. Sequential-next blocks are FDIP's job and
// are not recorded. When a miss has no history it falls back to
// next-line.
//
// The scheme is prefetch.Tunable: degree (blocks issued per trigger)
// and lookahead (how far past the previous occurrence issuing starts)
// can be retargeted online by a feedback governor. A TLB-aware variant
// (Config.RequireTLB, after Jamet et al.) issues through the machine's
// TLB-gated path so translation-blocked prefetches are withheld and
// counted (PFTLBDropped) instead of going out blind.
package ghb

import (
	"hprefetch/internal/isa"
	"hprefetch/internal/prefetch"
)

// Config sizes the buffer and sets the issue policy.
type Config struct {
	// GHBEntries is the circular global-history size (power of two).
	GHBEntries int
	// ITEntries is the direct-mapped index-table size (power of two).
	ITEntries int
	// Degree is how many history successors are prefetched per trigger.
	Degree int
	// Lookahead is the 1-based offset past the previous occurrence where
	// issuing starts (1 = the immediate successor).
	Lookahead int
	// Width is how many chained previous occurrences are walked per
	// trigger (the linked list through the index table).
	Width int
	// RequireTLB gates every issue on ITLB residency (the TLB-aware
	// variant): untranslated targets are withheld, not prefetched.
	RequireTLB bool
}

// DefaultConfig matches the governor's Moderate operating point so
// static and adaptive runs share a centre.
func DefaultConfig() Config {
	return Config{
		GHBEntries: 2048,
		ITEntries:  2048,
		Degree:     4,
		Lookahead:  2,
		Width:      2,
		RequireTLB: false,
	}
}

const (
	maxDegree    = 64
	maxLookahead = 32
)

type entry struct {
	block isa.Block
	prev  uint64 // seq of the previous occurrence of the same block
	ok    bool   // prev is meaningful
}

type itEntry struct {
	tag   isa.Block
	seq   uint64
	valid bool
}

// histTables and itTables recycle the tables of released prefetchers.
var (
	histTables prefetch.Tables[entry]
	itTables   prefetch.Tables[itEntry]
)

// GHB is the prefetcher state.
type GHB struct {
	cfg  Config
	m    prefetch.Machine
	hist []entry
	it   []itEntry
	head uint64 // next global sequence number (total pushes)
	last isa.Block
}

// New builds the prefetcher; sizes are clamped to powers of two.
func New(cfg Config, m prefetch.Machine) *GHB {
	def := DefaultConfig()
	if cfg.GHBEntries <= 0 {
		cfg.GHBEntries = def.GHBEntries
	}
	if cfg.ITEntries <= 0 {
		cfg.ITEntries = def.ITEntries
	}
	cfg.GHBEntries = pow2(cfg.GHBEntries)
	cfg.ITEntries = pow2(cfg.ITEntries)
	if cfg.Width <= 0 {
		cfg.Width = def.Width
	}
	g := &GHB{
		cfg:  cfg,
		m:    m,
		hist: histTables.Get(cfg.GHBEntries),
		it:   itTables.Get(cfg.ITEntries),
	}
	g.SetAggressiveness(cfg.Degree, cfg.Lookahead)
	return g
}

func pow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Name identifies the scheme (the TLB-aware variant reports its own).
func (g *GHB) Name() string {
	if g.cfg.RequireTLB {
		return "GHB-TLB"
	}
	return "GHB"
}

// Release hands the history and index tables back for the next GHB to
// reuse.
func (g *GHB) Release() {
	if g.hist != nil {
		histTables.Put(g.hist)
		itTables.Put(g.it)
		g.hist, g.it = nil, nil
	}
}

// SetAggressiveness retargets degree and lookahead (prefetch.Tunable).
func (g *GHB) SetAggressiveness(degree, lookahead int) {
	if degree < 1 {
		degree = 1
	}
	if degree > maxDegree {
		degree = maxDegree
	}
	if lookahead < 1 {
		lookahead = 1
	}
	if lookahead > maxLookahead {
		lookahead = maxLookahead
	}
	g.cfg.Degree, g.cfg.Lookahead = degree, lookahead
}

// OnRetire trains on the retired fetch stream: a region starting in a
// block that is neither the previous block nor its sequential successor
// is a discontinuity — the I-stream event the GHB records and triggers
// on. Sequential advances are left to FDIP.
func (g *GHB) OnRetire(ev *isa.BlockEvent) {
	if g.hist == nil {
		panic("ghb: prefetcher used after Release")
	}
	b := ev.Addr.Block()
	prev := g.last
	g.last = b
	if b == prev || b == prev+1 {
		return
	}
	g.trigger(b, false)
}

// OnResteer is a no-op: triggers key on block addresses, not fetch path.
func (g *GHB) OnResteer() {}

// OnDemandMiss triggers on the miss stream too — a miss the retire-side
// history failed to cover refreshes its chain and prefetches the
// successors immediately, with a next-line fallback for history-less
// misses.
func (g *GHB) OnDemandMiss(b isa.Block, latency uint64) {
	g.trigger(b, true)
}

// trigger links b into the global history and prefetches the blocks
// that followed its previous occurrences.
func (g *GHB) trigger(b isa.Block, nextLineFallback bool) {
	slot := uint64(b) & uint64(len(g.it)-1)
	var prevSeq uint64
	havePrev := false
	if e := &g.it[slot]; e.valid && e.tag == b && g.inWindow(e.seq) {
		prevSeq, havePrev = e.seq, true
	}
	seq := g.head
	g.hist[seq&uint64(len(g.hist)-1)] = entry{block: b, prev: prevSeq, ok: havePrev}
	g.head++
	g.it[slot] = itEntry{tag: b, seq: seq, valid: true}

	// Sequential footprint spray: a discontinuity lands at the top of a
	// region whose body spans the following blocks — pull in the next
	// degree-1 lines behind the target. Large functions reward it; small
	// ones make it over-fetch. This is the degree knob's pollution
	// trade-off, exactly what a feedback governor throttles.
	for i := 1; i < g.cfg.Degree; i++ {
		if !g.issue(b + isa.Block(i)) {
			return
		}
	}
	if !havePrev {
		if nextLineFallback {
			// A history-less miss: next-line fallback covers the target
			// line's successor even at degree 1.
			g.issue(b + 1)
		}
		return
	}
	// Walk up to Width chained occurrences, most recent first, and
	// prefetch the degree blocks that followed each (skipping the first
	// lookahead-1 — they are already in the demand shadow).
	occ := prevSeq
	for w := 0; w < g.cfg.Width; w++ {
		for i := 0; i < g.cfg.Degree; i++ {
			s := occ + uint64(g.cfg.Lookahead) + uint64(i)
			if s >= seq || !g.inWindow(s) {
				break
			}
			t := g.hist[s&uint64(len(g.hist)-1)].block
			if t != b && !g.issue(t) {
				return
			}
		}
		e := g.hist[occ&uint64(len(g.hist)-1)]
		if !e.ok || e.block != b || !g.inWindow(e.prev) {
			break
		}
		occ = e.prev
	}
}

// inWindow reports whether seq still resides in the circular buffer.
func (g *GHB) inWindow(seq uint64) bool {
	return seq < g.head && g.head-seq <= uint64(len(g.hist))
}

// issue sends one block down the configured issue path; false means
// back-pressure (stop the burst).
func (g *GHB) issue(b isa.Block) bool {
	if g.m.PrefetchSpace() <= 0 {
		return false
	}
	if g.m.Resident(b) {
		return true
	}
	if g.cfg.RequireTLB {
		g.m.PrefetchMapped(b)
		return true
	}
	g.m.Prefetch(b)
	return true
}

// StorageBits prices the metadata: each GHB entry holds a 58-bit block,
// a log2(GHBEntries)-bit prev pointer and a valid bit; each index-table
// entry holds a 58-bit tag, a pointer and a valid bit.
func (g *GHB) StorageBits() int {
	ptr := log2(g.cfg.GHBEntries)
	return g.cfg.GHBEntries*(58+ptr+1) + g.cfg.ITEntries*(58+ptr+1)
}

func log2(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

var (
	_ prefetch.Prefetcher = (*GHB)(nil)
	_ prefetch.Tunable    = (*GHB)(nil)
)
