// Package eip implements the Entangling Instruction Prefetcher (Ros &
// Jimborean, ISCA 2021), winner of the IPC-1 championship and the
// strongest fine-grained baseline in the paper (§2.4, §6.3). EIP selects,
// for every observed L1-I miss, a "source" block that executed roughly
// one miss latency earlier and entangles the missed block with it; when
// the source is fetched again, all its entangled destinations are
// prefetched. Entangling far-back sources buys timeliness at the cost of
// accuracy — the trade-off Figures 2c and 3 quantify and that lets
// Hierarchical Prefetching beat it.
package eip

import (
	"hprefetch/internal/isa"
	"hprefetch/internal/prefetch"
)

// destsPerEntry is how many destinations one entangled-table entry holds
// (the balanced 40KB configuration packs a handful of compressed
// destinations per source).
const destsPerEntry = 4

// Config sizes EIP (defaults per §6.3: 4K-entry, 8-way entangled table
// with a 16-entry history buffer).
type Config struct {
	// TableEntries and TableWays size the entangled table.
	TableEntries, TableWays int
	// LatencyScalePct scales the miss-latency estimate used to pick the
	// source block: 100 entangles exactly one average miss latency back.
	LatencyScalePct int
}

// DefaultConfig mirrors the evaluation configuration.
func DefaultConfig() Config {
	return Config{
		TableEntries:    4096,
		TableWays:       8,
		LatencyScalePct: 120,
	}
}

// entry is one source block and its entangled destinations.
type entry struct {
	tag   isa.Block
	dests [destsPerEntry]isa.Block
	nd    uint8
	age   uint8
	used  bool
}

// tables recycles the entangled tables of released prefetchers.
var tables prefetch.Tables[entry]

// EIP is the prefetcher state.
type EIP struct {
	cfg  Config
	m    prefetch.Machine
	tab  []entry
	sets int

	lastBlock isa.Block
	haveLast  bool
}

// New builds an EIP prefetcher attached to machine m.
func New(cfg Config, m prefetch.Machine) *EIP {
	if cfg.LatencyScalePct <= 0 {
		cfg.LatencyScalePct = 100
	}
	return &EIP{
		cfg:  cfg,
		m:    m,
		tab:  tables.Get(cfg.TableEntries),
		sets: cfg.TableEntries / cfg.TableWays,
	}
}

// Name identifies the scheme.
func (p *EIP) Name() string { return "EIP" }

// Release hands the entangled table back for the next EIP to reuse.
func (p *EIP) Release() {
	if p.tab != nil {
		tables.Put(p.tab)
		p.tab = nil
	}
}

// StorageBits reports the on-chip budget: tag plus compressed
// destinations per entry, matching the 40KB balanced configuration.
func (p *EIP) StorageBits() int {
	return p.cfg.TableEntries * (20 + destsPerEntry*16 + 3 + 1)
}

// OnRetire replays: whenever a new block is fetched, every destination
// entangled with it is prefetched.
func (p *EIP) OnRetire(ev *isa.BlockEvent) {
	if p.tab == nil {
		panic("eip: prefetcher used after Release")
	}
	b := ev.Block()
	if p.haveLast && b == p.lastBlock {
		return
	}
	p.lastBlock = b
	p.haveLast = true
	e := p.lookup(b)
	if e == nil {
		return
	}
	for i := 0; i < int(e.nd); i++ {
		p.m.Prefetch(e.dests[i])
	}
}

// OnDemandMiss trains: the missed block is entangled with the block that
// retired roughly one (scaled) miss latency earlier, so the next
// occurrence of that source prefetches the miss just in time.
func (p *EIP) OnDemandMiss(b isa.Block, latency uint64) {
	target := p.m.AvgMissLatency()
	if latency > target {
		target = latency
	}
	target = target * uint64(p.cfg.LatencyScalePct) / 100
	src, ok := p.m.BlockAgo(target)
	if !ok || src == b {
		return
	}
	e := p.lookup(src)
	if e == nil {
		e = p.allocate(src)
	}
	for i := 0; i < int(e.nd); i++ {
		if e.dests[i] == b {
			return
		}
	}
	if e.nd < destsPerEntry {
		e.dests[e.nd] = b
		e.nd++
		return
	}
	// Entry full: rotate the oldest destination out.
	copy(e.dests[:], e.dests[1:])
	e.dests[destsPerEntry-1] = b
}

// OnResteer is a no-op: EIP's state keys off committed blocks.
func (p *EIP) OnResteer() {}

// AvgDestinations reports the mean valid destinations per used entry —
// the "paths per source" statistic §7.4 discusses (EIP averages ~2.4).
func (p *EIP) AvgDestinations() float64 {
	var used, dests int
	for i := range p.tab {
		if p.tab[i].used {
			used++
			dests += int(p.tab[i].nd)
		}
	}
	if used == 0 {
		return 0
	}
	return float64(dests) / float64(used)
}

func (p *EIP) set(b isa.Block) int {
	h := uint64(b) * 0x9E3779B97F4A7C15
	return int(h % uint64(p.sets))
}

func (p *EIP) lookup(b isa.Block) *entry {
	base := p.set(b) * p.cfg.TableWays
	for w := 0; w < p.cfg.TableWays; w++ {
		e := &p.tab[base+w]
		if e.used && e.tag == b {
			p.touch(base, w)
			return e
		}
	}
	return nil
}

func (p *EIP) allocate(b isa.Block) *entry {
	base := p.set(b) * p.cfg.TableWays
	victim := 0
	for w := 0; w < p.cfg.TableWays; w++ {
		e := &p.tab[base+w]
		if !e.used {
			victim = w
			break
		}
		if e.age > p.tab[base+victim].age {
			victim = w
		}
	}
	e := &p.tab[base+victim]
	*e = entry{tag: b, used: true, age: 255}
	p.touch(base, victim)
	return e
}

func (p *EIP) touch(base, way int) {
	old := p.tab[base+way].age
	for w := 0; w < p.cfg.TableWays; w++ {
		if p.tab[base+w].age < old {
			p.tab[base+w].age++
		}
	}
	p.tab[base+way].age = 0
}

var _ prefetch.Prefetcher = (*EIP)(nil)
