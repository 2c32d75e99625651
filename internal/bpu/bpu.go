// Package bpu implements the branch prediction unit of the simulated core
// (Table 1): a set-associative BTB (optionally infinite, for the Figure 14
// study), a gshare-style global-history direction predictor standing in
// for L-TAGE, an ITTAGE-style tagged indirect-target predictor, and a
// return address stack. The decoupled front-end keeps two history/RAS
// views (speculative at the prediction cursor, architectural at retire);
// this package exposes the state needed for that split.
package bpu

import (
	"hprefetch/internal/isa"
)

// Config sizes the prediction structures.
type Config struct {
	// BTBEntries and BTBWays size the branch target buffer
	// (paper: 8K entries, 8-way).
	BTBEntries, BTBWays int
	// BTBInfinite disables BTB capacity misses (Figure 14 study).
	BTBInfinite bool
	// GshareBits is log2 of the direction-counter table size.
	GshareBits int
	// HistoryBits is the global-history length folded into the index.
	HistoryBits int
	// IndirectEntries sizes the indirect-target table.
	IndirectEntries int
	// RASDepth is the return address stack depth.
	RASDepth int
}

// DefaultConfig mirrors the paper's front-end parameters.
func DefaultConfig() Config {
	return Config{
		BTBEntries:      8192,
		BTBWays:         8,
		GshareBits:      17, // 128K 2-bit counters = 32KB, L-TAGE class budget
		HistoryBits:     16,
		IndirectEntries: 4096,
		RASDepth:        64,
	}
}

// Unit is one core's branch prediction state.
type Unit struct {
	cfg Config

	// BTB: sets x ways of (tag, target). Valid entries occupy a prefix
	// of each set in recency order (most recent first, btbCnt per set),
	// so a hit is found early and the LRU victim is simply the last
	// entry — observationally identical to explicit per-way age bits.
	btbSets int
	btbTag  []uint64
	btbTgt  []isa.Addr
	btbCnt  []uint8
	btbInf  map[isa.Addr]isa.Addr

	// Direction predictor: 2-bit counters indexed by pc ^ history.
	dir     []uint8
	dirMask uint64

	// Indirect: tagged target entries indexed by pc ^ history.
	indTag []uint64
	indTgt []isa.Addr
	indCnt []uint8
	indMsk uint64

	histMask uint64
}

// New builds a prediction unit.
func New(cfg Config) *Unit {
	u := &Unit{cfg: cfg}
	if cfg.BTBInfinite {
		u.btbInf = make(map[isa.Addr]isa.Addr, 1<<16)
	} else {
		u.btbSets = cfg.BTBEntries / cfg.BTBWays
		n := u.btbSets * cfg.BTBWays
		u.btbTag = make([]uint64, n)
		u.btbTgt = make([]isa.Addr, n)
		u.btbCnt = make([]uint8, u.btbSets)
	}
	u.dir = make([]uint8, 1<<cfg.GshareBits)
	weaklyTaken(u.dir)
	u.dirMask = uint64(len(u.dir) - 1)
	u.indTag = make([]uint64, cfg.IndirectEntries)
	u.indTgt = make([]isa.Addr, cfg.IndirectEntries)
	u.indCnt = make([]uint8, cfg.IndirectEntries)
	u.indMsk = uint64(cfg.IndirectEntries - 1)
	u.histMask = (1 << cfg.HistoryBits) - 1
	return u
}

// Reset returns the unit to the state New builds it in: an empty BTB,
// every direction counter weakly taken and an empty indirect table. BTB
// slots past a set's occupancy keep stale entries, which no lookup
// reads.
func (u *Unit) Reset() {
	if u.btbInf != nil {
		clear(u.btbInf)
	} else {
		clear(u.btbCnt)
	}
	weaklyTaken(u.dir)
	clear(u.indTag)
	clear(u.indTgt)
	clear(u.indCnt)
}

// weaklyTaken sets every counter in dir to 2, doubling the filled
// prefix with each copy.
func weaklyTaken(dir []uint8) {
	if len(dir) == 0 {
		return
	}
	dir[0] = 2
	for n := 1; n < len(dir); n *= 2 {
		copy(dir[n:], dir[:n])
	}
}

// History is a global branch-history register. The front-end maintains a
// speculative copy at the prediction cursor and an architectural copy at
// retire, restoring the former from the latter on pipeline flushes.
type History uint64

// Update shifts a branch outcome into the history.
func (h History) Update(taken bool) History {
	h <<= 1
	if taken {
		h |= 1
	}
	return h
}

// UpdatePath folds target bits into the history for indirect correlation.
func (h History) UpdatePath(target isa.Addr) History {
	return (h << 2) ^ History(uint64(target)>>isa.BlockBits)
}

// dirIndex folds pc and history into the counter table index.
func (u *Unit) dirIndex(pc isa.Addr, h History) uint64 {
	p := uint64(pc) >> 2
	hist := uint64(h) & u.histMask
	return (p ^ (hist << 1) ^ (p >> 13)) & u.dirMask
}

// PredictDir predicts the direction of a conditional branch.
func (u *Unit) PredictDir(pc isa.Addr, h History) bool {
	return u.dir[u.dirIndex(pc, h)] >= 2
}

// TrainDir updates the direction counters with the resolved outcome.
func (u *Unit) TrainDir(pc isa.Addr, h History, taken bool) {
	i := u.dirIndex(pc, h)
	c := u.dir[i]
	if taken {
		if c < 3 {
			u.dir[i] = c + 1
		}
	} else if c > 0 {
		u.dir[i] = c - 1
	}
}

// BTBLookup returns the predicted target for a taken direct branch, if
// the BTB holds it. Without a hit, a decoupled front-end cannot follow a
// taken branch — the FDIP limitation at the heart of the paper's §2.1.
func (u *Unit) BTBLookup(pc isa.Addr) (isa.Addr, bool) {
	if u.btbInf != nil {
		t, ok := u.btbInf[pc]
		return t, ok
	}
	set := u.btbSet(pc)
	base := set * u.cfg.BTBWays
	tag := u.btbTagOf(pc)
	n := int(u.btbCnt[set])
	for w := 0; w < n; w++ {
		if u.btbTag[base+w] == tag {
			tgt := u.btbTgt[base+w]
			u.btbTouch(base, w)
			return tgt, true
		}
	}
	return 0, false
}

// BTBInsert records a resolved taken-branch target.
func (u *Unit) BTBInsert(pc, target isa.Addr) {
	if u.btbInf != nil {
		u.btbInf[pc] = target
		return
	}
	set := u.btbSet(pc)
	base := set * u.cfg.BTBWays
	tag := u.btbTagOf(pc)
	n := int(u.btbCnt[set])
	for w := 0; w < n; w++ {
		if u.btbTag[base+w] == tag {
			u.btbTgt[base+w] = target
			u.btbTouch(base, w)
			return
		}
	}
	if n == u.cfg.BTBWays {
		n-- // evict the last (least recently used) entry
	} else {
		u.btbCnt[set]++
	}
	copy(u.btbTag[base+1:base+n+1], u.btbTag[base:base+n])
	copy(u.btbTgt[base+1:base+n+1], u.btbTgt[base:base+n])
	u.btbTag[base] = tag
	u.btbTgt[base] = target
}

func (u *Unit) btbSet(pc isa.Addr) int {
	p := uint64(pc) >> 2
	return int((p ^ (p >> 11)) % uint64(u.btbSets))
}

func (u *Unit) btbTagOf(pc isa.Addr) uint64 { return uint64(pc) >> 2 }

// btbTouch moves the hit way to the front of its set's recency prefix.
func (u *Unit) btbTouch(base, way int) {
	if way == 0 {
		return
	}
	t := u.btbTag[base+way]
	g := u.btbTgt[base+way]
	copy(u.btbTag[base+1:base+way+1], u.btbTag[base:base+way])
	copy(u.btbTgt[base+1:base+way+1], u.btbTgt[base:base+way])
	u.btbTag[base] = t
	u.btbTgt[base] = g
}

// PredictIndirect predicts an indirect branch target using path history.
func (u *Unit) PredictIndirect(pc isa.Addr, h History) (isa.Addr, bool) {
	i := u.indIndex(pc, h)
	if u.indTag[i] == u.indTagOf(pc) && u.indCnt[i] > 0 {
		return u.indTgt[i], true
	}
	return 0, false
}

// TrainIndirect updates the indirect predictor with a resolved target.
func (u *Unit) TrainIndirect(pc isa.Addr, h History, target isa.Addr) {
	i := u.indIndex(pc, h)
	tag := u.indTagOf(pc)
	if u.indTag[i] == tag && u.indTgt[i] == target {
		if u.indCnt[i] < 3 {
			u.indCnt[i]++
		}
		return
	}
	if u.indCnt[i] > 0 {
		u.indCnt[i]--
		return
	}
	u.indTag[i] = tag
	u.indTgt[i] = target
	u.indCnt[i] = 1
}

func (u *Unit) indIndex(pc isa.Addr, h History) uint64 {
	p := uint64(pc) >> 2
	return (p ^ uint64(h)<<2 ^ (p >> 9)) & u.indMsk
}

func (u *Unit) indTagOf(pc isa.Addr) uint64 { return uint64(pc) >> 2 }

// RAS is a fixed-depth return address stack. Overflow wraps and silently
// clobbers the oldest entries, as hardware stacks do.
type RAS struct {
	buf []isa.Addr
	top int // index of the next push slot
	len int
}

// NewRAS builds a stack of the given depth.
func NewRAS(depth int) *RAS {
	return &RAS{buf: make([]isa.Addr, depth)}
}

// Reset empties the stack. Slots keep stale addresses, which no Pop or
// Peek reads.
func (r *RAS) Reset() {
	r.top, r.len = 0, 0
}

// Push records a call's return address.
func (r *RAS) Push(ret isa.Addr) {
	r.buf[r.top] = ret
	r.top = (r.top + 1) % len(r.buf)
	if r.len < len(r.buf) {
		r.len++
	}
}

// Pop predicts a return target; ok is false when the stack is empty.
func (r *RAS) Pop() (isa.Addr, bool) {
	if r.len == 0 {
		return 0, false
	}
	r.top = (r.top - 1 + len(r.buf)) % len(r.buf)
	r.len--
	return r.buf[r.top], true
}

// Peek returns the top entry without popping it.
func (r *RAS) Peek() (isa.Addr, bool) {
	if r.len == 0 {
		return 0, false
	}
	return r.buf[(r.top-1+len(r.buf))%len(r.buf)], true
}

// CopyFrom restores this stack from another (pipeline flush repair).
func (r *RAS) CopyFrom(o *RAS) {
	copy(r.buf, o.buf)
	r.top = o.top
	r.len = o.len
}

// Depth returns the current occupancy.
func (r *RAS) Depth() int { return r.len }
