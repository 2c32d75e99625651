package program

import (
	"sync"
	"sync/atomic"

	"hprefetch/internal/isa"
	"hprefetch/internal/xrand"
)

// The body builder expands a function's static shape (size + call sites)
// into a concrete intra-function layout: straight-line runs, biased
// conditional skips, small loops, call regions, and the final return.
// Expansion is a pure function of the function's seed, call offsets and
// size, so the linker, the loader and the execution engine all agree on
// every instruction address. A program keeps the bodies of the functions
// that have run (Program.Body), shared by every engine over it; it never
// expands the rest of its hundreds of thousands of functions.

// ItemKind classifies a body item.
type ItemKind uint8

const (
	// ItemRun is straight-line code of Bytes bytes starting at Off.
	ItemRun ItemKind = iota
	// ItemCondRun is a conditional branch at Off guarding a run over
	// [Off+4, Off+Bytes); "taken" skips the run (target Off+Bytes).
	// Bias is the fixed-point probability that the run executes.
	ItemCondRun
	// ItemLoopRun is a run over [Off, Off+Bytes) executed Arg times on
	// average, with the backedge branch in the last instruction slot.
	ItemLoopRun
	// ItemCall is a call region of CallRegionBytes at Off: a guard
	// branch (Off), the call instruction (Off+4) and, for repeated
	// calls, a backedge branch (Off+8). Arg indexes Program.Calls.
	ItemCall
	// ItemRet is the function's return instruction at Off.
	ItemRet
)

// CallRegionBytes is the code footprint of one call site: guard branch,
// call instruction, repeat backedge slot.
const CallRegionBytes = 3 * isa.InstrSize

// CallInstrOff is the offset of the call instruction within its region.
const CallInstrOff = isa.InstrSize

// Item is one element of an expanded function body.
type Item struct {
	// Off is the item's start offset within the function.
	Off uint32
	// Bytes is the region length for run-like items.
	Bytes uint32
	// Arg is the call site's index in Program.Calls (ItemCall) or the
	// mean trip count (ItemLoopRun).
	Arg uint32
	// Bias is the fixed-point execute/taken probability for ItemCondRun.
	Bias uint16
	// Kind classifies the item.
	Kind ItemKind
}

// AppendBody expands function id into its deterministic item list,
// appended to items (so a caller can expand into reused storage). The
// list for a given function never changes; Body caches it.
func (p *Program) AppendBody(items []Item, id isa.FuncID) []Item {
	f := &p.Funcs[id]
	rng := xrand.New(xrand.Mix(p.FuncSeed(id), 0xB0D135))
	cur := uint32(0)
	for i := f.FirstCall; i < f.FirstCall+f.NumCalls; i++ {
		off := p.Calls[i].Off
		items = fillGap(rng, items, cur, off)
		items = append(items, Item{Off: off, Bytes: CallRegionBytes, Arg: i, Kind: ItemCall})
		cur = off + CallRegionBytes
	}
	items = fillGap(rng, items, cur, f.RetOff())
	items = append(items, Item{Off: f.RetOff(), Bytes: isa.InstrSize, Kind: ItemRet})
	return items
}

// fillGap populates [start, end) with filler structure: runs broken by
// biased conditional skips and small loops. All offsets stay instruction
// aligned; the gap is covered exactly.
func fillGap(rng *xrand.RNG, items []Item, start, end uint32) []Item {
	const minStruct = 12 * isa.InstrSize // below this, just emit a run
	for start < end {
		rem := end - start
		if rem < minStruct {
			items = append(items, Item{Off: start, Bytes: rem, Kind: ItemRun})
			return items
		}
		chunk := uint32(rng.Range(4, 48)) * isa.InstrSize
		if chunk > rem {
			chunk = rem
		}
		switch {
		case rng.Bool(0.30) && chunk >= 4*isa.InstrSize:
			// Conditional skip. The bias mix matches real server code
			// as branch predictors see it: mostly strongly biased
			// (highly predictable), some moderately biased, and a few
			// data-dependent branches that defeat direction prediction.
			var bias float64
			switch r := rng.Float64(); {
			case r < 0.80:
				bias = 0.96 + 0.035*rng.Float64()
			case r < 0.95:
				bias = 0.85 + 0.11*rng.Float64()
			default:
				bias = 0.55 + 0.30*rng.Float64()
			}
			items = append(items, Item{
				Off:   start,
				Bytes: chunk,
				Bias:  uint16(bias * probScale),
				Kind:  ItemCondRun,
			})
		case rng.Bool(0.15) && chunk >= 4*isa.InstrSize:
			// Loops carry fixed per-site trip counts: with a global
			// history long enough to hold the taken run, a gshare-class
			// predictor learns the exit, as real predictors do.
			iters := uint32(rng.Range(3, 6))
			items = append(items, Item{Off: start, Bytes: chunk, Arg: iters, Kind: ItemLoopRun})
		default:
			items = append(items, Item{Off: start, Bytes: chunk, Kind: ItemRun})
		}
		start += chunk
	}
	return items
}

// Body returns the expanded body of function id. The first call for a
// function expands it and publishes it; every later call, from any
// goroutine, returns the same items, which callers must not modify.
// The program keeps each body it has expanded for as long as it lives,
// so every engine over it (every run of a workload, every lane of a
// request chain, a degraded load of the same program) shares one table.
// Funcs and Calls must not change once Body has been called.
func (p *Program) Body(id isa.FuncID) []Item {
	t := p.bodies.Load()
	if t == nil {
		t = p.newBodyTable()
	}
	if c := t.chunks[id/bodyChunkLen].Load(); c != nil && c.ready[id%bodyChunkLen].Load() {
		return c.body[id%bodyChunkLen]
	}
	return t.publish(p, id)
}

// bodyTable holds the bodies a program has expanded. Readers take a
// published body with two atomic loads; publishing is serialised by
// mu, which also guards the slab and the expansion buffer.
type bodyTable struct {
	// chunks[id/bodyChunkLen] holds the bodies of function id and its
	// neighbours, or nil until one of them is published. The functions
	// a workload runs cluster by ID, so a few chunks hold them all.
	chunks []atomic.Pointer[bodyChunk]

	mu sync.Mutex
	// slab holds the published bodies back to back, so publishing
	// allocates only when it fills up. Slabs double from minBodySlab to
	// maxBodySlab items.
	slab   []Item
	expand []Item
}

// bodyChunk holds the bodies of bodyChunkLen consecutive functions:
// body[i] is written once, before ready[i] is set.
type bodyChunk struct {
	ready [bodyChunkLen]atomic.Bool
	body  [bodyChunkLen][]Item
}

// bodyChunkLen is how many functions one bodyChunk covers; minBodySlab
// and maxBodySlab bound the items one body slab holds.
const (
	bodyChunkLen             = 256
	minBodySlab, maxBodySlab = 256, 4096
)

// newBodyTable installs the program's body table. Two first callers
// racing each build one; the loser drops its own and uses the winner's.
func (p *Program) newBodyTable() *bodyTable {
	n := (len(p.Funcs) + bodyChunkLen - 1) / bodyChunkLen
	t := &bodyTable{chunks: make([]atomic.Pointer[bodyChunk], n)}
	if p.bodies.CompareAndSwap(nil, t) {
		return t
	}
	return p.bodies.Load()
}

// publish expands function id of p into the slab and publishes it,
// unless another caller published it while this one waited for mu.
func (t *bodyTable) publish(p *Program, id isa.FuncID) []Item {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.chunks[id/bodyChunkLen].Load()
	if c == nil {
		c = new(bodyChunk)
		t.chunks[id/bodyChunkLen].Store(c)
	}
	i := id % bodyChunkLen
	if c.ready[i].Load() {
		return c.body[i]
	}
	t.expand = p.AppendBody(t.expand[:0], id)
	n := len(t.expand)
	if cap(t.slab)-len(t.slab) < n {
		size := min(max(2*cap(t.slab), minBodySlab), maxBodySlab)
		t.slab = make([]Item, 0, max(size, n))
	}
	start := len(t.slab)
	t.slab = append(t.slab, t.expand...)
	c.body[i] = t.slab[start : start+n : start+n]
	c.ready[i].Store(true)
	return c.body[i]
}
