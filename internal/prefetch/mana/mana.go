// Package mana implements MANA (Ansari et al., IEEE TC 2022), the
// state-of-the-art temporal instruction prefetcher the paper compares
// against (§2.2, §6.3): the retired block stream is compressed into
// spatial regions, recorded as a temporal history, and indexed by region
// base. When execution re-enters a recorded region, the prefetcher
// replays the next look-ahead regions of the recorded stream. Like the
// original, it re-synchronises (and thus loses lookahead) whenever the
// front-end is resteered by a misprediction — the timeliness limitation
// §7.2 highlights.
package mana

import (
	"hprefetch/internal/isa"
	"hprefetch/internal/prefetch"
)

// Config sizes the prefetcher (defaults follow the paper's §6.3 setup).
type Config struct {
	// IndexEntries and IndexWays size the trigger index table
	// (paper: 4K entries, 4-way).
	IndexEntries, IndexWays int
	// HistoryRegions is the recorded temporal stream length, in spatial
	// regions.
	HistoryRegions int
	// RegionBlocks is the spatial-region span (MANA uses small regions).
	RegionBlocks int
	// Lookahead is the replay depth in spatial regions (paper: 3).
	Lookahead int
}

// DefaultConfig mirrors the evaluation configuration.
func DefaultConfig() Config {
	return Config{
		IndexEntries:   4096,
		IndexWays:      4,
		HistoryRegions: 8192,
		RegionBlocks:   8,
		Lookahead:      3,
	}
}

// region is one history element.
type region struct {
	base isa.Block
	vec  uint8 // RegionBlocks <= 8 in the default configuration
}

// idxEntry is one way of the trigger index: a region base and the
// history position of its latest occurrence.
type idxEntry struct {
	key   uint64
	val   int32
	valid bool
	age   uint8
}

// histTables and idxTables recycle the tables of released prefetchers.
var (
	histTables prefetch.Tables[region]
	idxTables  prefetch.Tables[idxEntry]
)

// Mana is the prefetcher state.
type Mana struct {
	cfg Config
	m   prefetch.Machine

	// Temporal history ring of spatial regions.
	hist []region
	pos  int

	// Index: region base -> history position, set-associative.
	idx  []idxEntry
	sets int

	// Recording state: the region being accumulated.
	cur      region
	curValid bool

	// Replay state: position of the active stream in the history.
	streamPos   int
	streamValid bool
	streamSent  int // regions already replayed on this stream

	curBlockValid bool
	curBlock      isa.Block
}

// New builds a MANA prefetcher attached to machine m.
func New(cfg Config, m prefetch.Machine) *Mana {
	if cfg.RegionBlocks <= 0 || cfg.RegionBlocks > 8 {
		cfg.RegionBlocks = 8
	}
	return &Mana{
		cfg:  cfg,
		m:    m,
		hist: histTables.Get(cfg.HistoryRegions),
		idx:  idxTables.Get(cfg.IndexEntries),
		sets: cfg.IndexEntries / cfg.IndexWays,
	}
}

// Name identifies the scheme.
func (p *Mana) Name() string { return "MANA" }

// Release hands the history and index tables back for the next MANA to
// reuse.
func (p *Mana) Release() {
	if p.hist != nil {
		histTables.Put(p.hist)
		idxTables.Put(p.idx)
		p.hist, p.idx = nil, nil
	}
}

// StorageBits reports the on-chip budget: the index table (tag+pointer
// per entry) plus the compressed history storage, matching the ~15KB the
// paper quotes.
func (p *Mana) StorageBits() int {
	idx := p.cfg.IndexEntries * (16 + 14 + 1) // tag, pointer, valid
	hist := p.cfg.HistoryRegions * 10         // compressed region record
	return idx + hist
}

// regionBase returns the aligned region base of a block.
func (p *Mana) regionBase(b isa.Block) isa.Block {
	return b - b%isa.Block(p.cfg.RegionBlocks)
}

// OnRetire observes the retired stream: it compresses blocks into
// regions, records completed regions into the temporal history, and
// drives the active replay stream.
func (p *Mana) OnRetire(ev *isa.BlockEvent) {
	if p.hist == nil {
		panic("mana: prefetcher used after Release")
	}
	b := ev.Block()
	if p.curBlockValid && b == p.curBlock {
		return
	}
	p.curBlock = b
	p.curBlockValid = true

	base := p.regionBase(b)
	if p.curValid && p.cur.base == base {
		p.cur.vec |= 1 << uint(b-base)
		return
	}
	// Entering a new region: commit the previous one to history and
	// advance (or restart) the replay stream.
	if p.curValid {
		p.commit(p.cur)
	}
	p.cur = region{base: base, vec: 1 << uint(b-base)}
	p.curValid = true
	p.advanceStream(base)
}

// commit appends a finished region to the history and indexes it.
func (p *Mana) commit(r region) {
	p.hist[p.pos] = r
	p.indexInsert(uint64(r.base), int32(p.pos))
	p.pos = (p.pos + 1) % len(p.hist)
}

// advanceStream keeps the replay stream aligned with execution: if the
// new region matches the next recorded region the stream continues;
// otherwise the stream re-indexes from the trigger table.
func (p *Mana) advanceStream(base isa.Block) {
	if p.streamValid {
		next := (p.streamPos + 1) % len(p.hist)
		if p.hist[next].base == base {
			p.streamPos = next
			if p.streamSent > 0 {
				p.streamSent--
			}
			p.replay()
			return
		}
		p.streamValid = false
	}
	if pos, ok := p.indexLookup(uint64(base)); ok {
		p.streamPos = int(pos)
		p.streamValid = true
		p.streamSent = 0
		p.replay()
	}
}

// replay issues prefetches for the recorded regions up to the look-ahead
// depth beyond what was already sent on this stream.
func (p *Mana) replay() {
	for p.streamSent < p.cfg.Lookahead {
		idx := (p.streamPos + 1 + p.streamSent) % len(p.hist)
		r := p.hist[idx]
		if r.vec == 0 {
			return
		}
		for i := 0; i < p.cfg.RegionBlocks; i++ {
			if r.vec&(1<<uint(i)) != 0 {
				p.m.Prefetch(r.base + isa.Block(i))
			}
		}
		p.streamSent++
	}
}

// OnResteer models MANA's front-end reset behaviour: the stream must be
// re-indexed, losing its lookahead.
func (p *Mana) OnResteer() {
	p.streamValid = false
	p.curBlockValid = false
}

// OnDemandMiss is unused: MANA trains on the access stream.
func (p *Mana) OnDemandMiss(isa.Block, uint64) {}

// --- index table (set-associative, LRU) ---

func (p *Mana) idxSet(key uint64) int {
	h := key * 0x9E3779B97F4A7C15
	return int(h % uint64(p.sets))
}

func (p *Mana) indexLookup(key uint64) (int32, bool) {
	base := p.idxSet(key) * p.cfg.IndexWays
	for w := 0; w < p.cfg.IndexWays; w++ {
		if e := &p.idx[base+w]; e.valid && e.key == key {
			p.touch(base, w)
			return e.val, true
		}
	}
	return 0, false
}

func (p *Mana) indexInsert(key uint64, val int32) {
	base := p.idxSet(key) * p.cfg.IndexWays
	victim := 0
	for w := 0; w < p.cfg.IndexWays; w++ {
		e := &p.idx[base+w]
		if e.valid && e.key == key {
			e.val = val
			p.touch(base, w)
			return
		}
		if !e.valid {
			victim = w
			break
		}
		if e.age > p.idx[base+victim].age {
			victim = w
		}
	}
	e := &p.idx[base+victim]
	if !e.valid {
		e.age = 255
	}
	e.key = key
	e.val = val
	e.valid = true
	p.touch(base, victim)
}

func (p *Mana) touch(base, way int) {
	old := p.idx[base+way].age
	for w := 0; w < p.cfg.IndexWays; w++ {
		if p.idx[base+w].age < old {
			p.idx[base+w].age++
		}
	}
	p.idx[base+way].age = 0
}

var _ prefetch.Prefetcher = (*Mana)(nil)
