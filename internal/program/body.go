package program

import (
	"hprefetch/internal/isa"
	"hprefetch/internal/xrand"
)

// The body builder expands a function's static shape (size + call sites)
// into a concrete intra-function layout: straight-line runs, biased
// conditional skips, small loops, call regions, and the final return.
// Expansion is a pure function of the function's seed, so the linker, the
// loader and the execution engine all agree on every instruction address
// without the program ever storing full bodies for its hundreds of
// thousands of functions.

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
	// calls, a backedge branch (Off+8). Arg indexes Function.Calls.
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
	// Arg is the call index (ItemCall) or mean trip count (ItemLoopRun).
	Arg uint32
	// Bias is the fixed-point execute/taken probability for ItemCondRun.
	Bias uint16
	// Kind classifies the item.
	Kind ItemKind
}

// AppendBody expands the function into its deterministic item list,
// appended to items (so a caller can expand into reused storage). The
// list for a given function value never changes; callers cache it.
func AppendBody(items []Item, f *Function) []Item {
	s := xrand.Mix(f.Seed, 0xB0D135)
	rng := xrand.New(s)
	cur := uint32(0)
	for i := range f.Calls {
		off := f.Calls[i].Off
		items = fillGap(rng, items, cur, off)
		items = append(items, Item{Off: off, Bytes: CallRegionBytes, Arg: uint32(i), Kind: ItemCall})
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
