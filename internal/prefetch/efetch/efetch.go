// Package efetch implements EFetch (Chadha et al., PACT 2014), the
// state-of-the-art caller-callee prefetcher of the paper's comparison
// (§2.3, §6.3): a signature built from the top of the call stack predicts
// the next callee functions, whose recorded footprints (two 32-block bit
// vectors anchored at the function entry) are prefetched. Because each
// signature advances prediction only a callee or two into the future, its
// lookahead — and hence timeliness — is structurally limited, which is
// the behaviour §7.2 reports.
package efetch

import (
	"hprefetch/internal/isa"
	"hprefetch/internal/prefetch"
	"hprefetch/internal/xrand"
)

// footVecs is the number of 32-block footprint vectors per callee.
const footVecs = 2

// Config sizes EFetch (defaults per §6.3: 4K-entry callee predictor,
// signature from the top 3 call-stack entries).
type Config struct {
	// TableEntries and TableWays size the signature table.
	TableEntries, TableWays int
	// FootEntries sizes the per-function footprint table.
	FootEntries int
	// SigDepth is how many call-stack entries form the signature.
	SigDepth int
	// Lookahead is how many predicted callees ahead to prefetch;
	// values beyond 1 chain through successor signatures (the Figure 2b
	// sweep goes to 16).
	Lookahead int
}

// DefaultConfig mirrors the evaluation configuration.
func DefaultConfig() Config {
	return Config{
		TableEntries: 4096,
		TableWays:    4,
		FootEntries:  2048,
		SigDepth:     3,
		Lookahead:    1,
	}
}

// sigEntry maps a call-stack signature to the callee observed next and
// to the signature formed at that next call (the chain link used for
// deeper look-ahead).
type sigEntry struct {
	tag      uint64
	callee   isa.Block
	nextSig  uint64
	calleeOK bool
	nextOK   bool
	age      uint8
	used     bool
}

// footEntry is a recorded function footprint: blocks touched relative to
// the function's entry block.
type footEntry struct {
	tag isa.Block
	vec [footVecs]uint32
	ok  bool
}

// sigTables and footTables recycle the tables of released prefetchers.
var (
	sigTables  prefetch.Tables[sigEntry]
	footTables prefetch.Tables[footEntry]
)

// EFetch is the prefetcher state.
type EFetch struct {
	cfg Config
	m   prefetch.Machine

	table []sigEntry
	sets  int
	foot  []footEntry

	// Shadow call stack of callee entry blocks.
	stack []isa.Block
	// Signature formed at the previous call (chain training).
	prevSig  uint64
	havePrev bool

	// Footprint recorders aligned with the shadow stack.
	recs []footRec
}

type footRec struct {
	base isa.Block
	vec  [footVecs]uint32
}

// New builds an EFetch prefetcher attached to machine m.
func New(cfg Config, m prefetch.Machine) *EFetch {
	if cfg.Lookahead < 1 {
		cfg.Lookahead = 1
	}
	return &EFetch{
		cfg:   cfg,
		m:     m,
		table: sigTables.Get(cfg.TableEntries),
		sets:  cfg.TableEntries / cfg.TableWays,
		foot:  footTables.Get(cfg.FootEntries),
	}
}

// Name identifies the scheme.
func (p *EFetch) Name() string { return "EFetch" }

// Release hands the signature and footprint tables back for the next
// EFetch to reuse.
func (p *EFetch) Release() {
	if p.table != nil {
		sigTables.Put(p.table)
		footTables.Put(p.foot)
		p.table, p.foot = nil, nil
	}
}

// StorageBits reports the on-chip budget: the signature table (compact
// tag, compressed callee pointer, successor-signature hash) plus the
// footprint store (tag + 2x32-bit vectors), landing near the "under
// 40KB" band the paper quotes for EFetch.
func (p *EFetch) StorageBits() int {
	return p.cfg.TableEntries*(14+18+14+2) + p.cfg.FootEntries*(14+footVecs*32)
}

// signature hashes the top SigDepth call-stack entries.
func (p *EFetch) signature() uint64 {
	h := uint64(0x6A09E667F3BCC909)
	n := len(p.stack)
	for i := 0; i < p.cfg.SigDepth; i++ {
		var v uint64
		if n-1-i >= 0 {
			v = uint64(p.stack[n-1-i])
		}
		h = xrand.Mix(h, v)
	}
	return h
}

// OnRetire tracks calls and returns, trains the signature table, records
// callee footprints, and issues predictions.
func (p *EFetch) OnRetire(ev *isa.BlockEvent) {
	if p.table == nil {
		panic("efetch: prefetcher used after Release")
	}
	// Record the touched block into the active footprint recorder.
	if n := len(p.recs); n > 0 {
		r := &p.recs[n-1]
		off := int64(ev.Block()) - int64(r.base)
		if off >= 0 && off < footVecs*32 {
			r.vec[off/32] |= 1 << uint(off%32)
		}
	}

	switch {
	case ev.Branch.IsCall():
		callee := ev.Target.Block()
		p.stack = append(p.stack, callee)
		if len(p.stack) > 64 {
			p.stack = p.stack[1:]
		}
		p.recs = append(p.recs, footRec{base: callee})
		if len(p.recs) > 64 {
			p.recs = p.recs[1:]
		}
		sig := p.signature()
		// Train the previous call point: its next callee is this one,
		// and its successor signature is the one just formed.
		if p.havePrev {
			p.train(p.prevSig, callee, sig)
		}
		p.prevSig = sig
		p.havePrev = true
		p.predict(sig)

	case ev.Branch == isa.BrRet:
		if n := len(p.recs); n > 0 {
			p.saveFootprint(p.recs[n-1])
			p.recs = p.recs[:n-1]
		}
		if n := len(p.stack); n > 0 {
			p.stack = p.stack[:n-1]
		}
	}
}

// predict prefetches the footprints of the next Lookahead callees by
// walking the signature chain.
func (p *EFetch) predict(sig uint64) {
	cur := sig
	for k := 0; k < p.cfg.Lookahead; k++ {
		e := p.lookup(cur)
		if e == nil || !e.calleeOK {
			return
		}
		p.prefetchFunc(e.callee)
		if !e.nextOK {
			return
		}
		cur = e.nextSig
	}
}

// prefetchFunc issues the recorded footprint of a callee, falling back
// to its first two blocks when no footprint is known yet.
func (p *EFetch) prefetchFunc(base isa.Block) {
	f := &p.foot[p.footIdx(base)]
	if f.ok && f.tag == base {
		for v := 0; v < footVecs; v++ {
			vec := f.vec[v]
			for i := 0; i < 32; i++ {
				if vec&(1<<uint(i)) != 0 {
					p.m.Prefetch(base + isa.Block(v*32+i))
				}
			}
		}
		return
	}
	p.m.Prefetch(base)
	p.m.Prefetch(base + 1)
}

// saveFootprint stores a returned callee's observed footprint.
func (p *EFetch) saveFootprint(r footRec) {
	f := &p.foot[p.footIdx(r.base)]
	f.tag = r.base
	f.vec = r.vec
	f.ok = true
}

func (p *EFetch) footIdx(base isa.Block) int {
	return int(uint64(base) * 0x9E3779B97F4A7C15 % uint64(len(p.foot)))
}

// train records sig's next callee and successor signature.
func (p *EFetch) train(sig uint64, callee isa.Block, nextSig uint64) {
	e := p.lookup(sig)
	if e == nil {
		e = p.allocate(sig)
	}
	e.callee = callee
	e.calleeOK = true
	e.nextSig = nextSig
	e.nextOK = true
}

func (p *EFetch) set(sig uint64) int { return int(sig % uint64(p.sets)) }

func (p *EFetch) lookup(sig uint64) *sigEntry {
	base := p.set(sig) * p.cfg.TableWays
	for w := 0; w < p.cfg.TableWays; w++ {
		e := &p.table[base+w]
		if e.used && e.tag == sig {
			p.touch(base, w)
			return e
		}
	}
	return nil
}

func (p *EFetch) allocate(sig uint64) *sigEntry {
	base := p.set(sig) * p.cfg.TableWays
	victim := 0
	for w := 0; w < p.cfg.TableWays; w++ {
		e := &p.table[base+w]
		if !e.used {
			victim = w
			break
		}
		if e.age > p.table[base+victim].age {
			victim = w
		}
	}
	e := &p.table[base+victim]
	*e = sigEntry{tag: sig, used: true, age: 255}
	p.touch(base, victim)
	return e
}

func (p *EFetch) touch(base, way int) {
	old := p.table[base+way].age
	for w := 0; w < p.cfg.TableWays; w++ {
		if p.table[base+w].age < old {
			p.table[base+w].age++
		}
	}
	p.table[base+way].age = 0
}

// OnResteer is a no-op: EFetch keys off committed calls, not the fetch
// stream.
func (p *EFetch) OnResteer() {}

// OnDemandMiss is unused by EFetch.
func (p *EFetch) OnDemandMiss(isa.Block, uint64) {}

var _ prefetch.Prefetcher = (*EFetch)(nil)
