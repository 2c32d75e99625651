// Package linker performs the link step of the paper's software pipeline
// (§5.2): it lays out the program's functions in the text segment, builds
// the static call graph "from the binary", runs the Bundle identification
// pass (Algorithm 1, internal/callgraph), and appends the .bundles segment
// recording the Bundle entry functions and the exact addresses of the
// call/return instructions to tag. Running the analysis at link time is
// what lets the scheme cover dynamically linked library code, which the
// generator models as the shared library pool.
package linker

import (
	"fmt"
	"slices"

	"hprefetch/internal/binfmt"
	"hprefetch/internal/callgraph"
	"hprefetch/internal/isa"
	"hprefetch/internal/program"
	"hprefetch/internal/xrand"
)

// DefaultTextBase is where the text segment is placed.
const DefaultTextBase = isa.Addr(0x0040_0000)

// Options configures the link step.
type Options struct {
	// Threshold is the Bundle divergence threshold in bytes
	// (default: callgraph.DefaultThreshold, the paper's 200KB).
	Threshold uint64
	// Cap overrides the reachable-size saturation cap (0 = 4x threshold).
	Cap uint64
	// TextBase overrides the text segment base (0 = DefaultTextBase).
	TextBase isa.Addr
	// NoShuffle lays functions out in FuncID order instead of the
	// default deterministic shuffle. Real binaries do not place whole
	// call trees contiguously; shuffling keeps spatial locality honest
	// for the prefetchers under study.
	NoShuffle bool
	// SkipBundles disables the Bundle identification pass, producing a
	// plain binary (used for baselines that need no tagging).
	SkipBundles bool
}

// Linked is the output of the link step.
type Linked struct {
	// Prog is the input program, now with assigned addresses.
	Prog *program.Program
	// Graph is the static call graph built during linking.
	Graph *callgraph.Graph
	// Analysis is the Bundle identification result (nil if skipped).
	Analysis *callgraph.Analysis
	// Segment is the .bundles segment (empty if skipped).
	Segment binfmt.BundleSegment
	// Image is the linked binary image including the .bundles segment
	// (nil from LinkSegment).
	Image *binfmt.Image
}

// Link lays out the program, runs the Bundle identification pass and
// writes the binary image: LinkSegment plus binfmt.FromProgram. The
// program is modified in place (addresses assigned).
func Link(p *program.Program, opt Options) (*Linked, error) {
	l, err := LinkSegment(p, opt)
	if err != nil {
		return nil, err
	}
	l.Image = binfmt.FromProgram(p)
	l.Image.Bundles = l.Segment
	return l, nil
}

// LinkSegment is the link step up to the .bundles segment: it lays out
// the program, builds the call graph and runs the Bundle identification
// pass, but writes no image, which the loader does not need. The
// program is modified in place (addresses assigned).
func LinkSegment(p *program.Program, opt Options) (*Linked, error) {
	if p.NumFuncs() == 0 {
		return nil, fmt.Errorf("linker: empty program")
	}
	threshold := opt.Threshold
	if threshold == 0 {
		threshold = callgraph.DefaultThreshold
	}
	base := opt.TextBase
	if base == 0 {
		base = DefaultTextBase
	}

	layout(p, base, !opt.NoShuffle)

	g := callgraph.FromProgram(p)
	out := &Linked{Prog: p, Graph: g}
	if !opt.SkipBundles {
		a, err := callgraph.Analyze(g, callgraph.Options{Threshold: threshold, Cap: opt.Cap})
		if err != nil {
			return nil, fmt.Errorf("linker: bundle analysis: %w", err)
		}
		out.Analysis = a
		out.Segment = binfmt.BundleSegment{
			Threshold:   threshold,
			Entries:     append([]isa.FuncID(nil), a.Entries...),
			TaggedAddrs: taggedAddrs(p, a),
		}
	}
	return out, nil
}

// layout assigns function addresses. The default deterministic shuffle
// interleaves unrelated functions the way independent compilation units
// do, so a handler's working set spans scattered cache blocks and spatial
// regions rather than one convenient contiguous range.
func layout(p *program.Program, base isa.Addr, shuffle bool) {
	// Two-zone layout: executable (hot-candidate) code first, cold and
	// orphan code after it — the clustering real linkers produce, which
	// keeps the hot working set within a compact address range even in
	// 100MB binaries. Each zone is shuffled internally so related
	// functions still land on scattered cache blocks and pages.
	nhot := 0
	for i := range p.Funcs {
		if p.Funcs[i].Kind != program.KindCold {
			nhot++
		}
	}
	order := make([]isa.FuncID, len(p.Funcs))
	hot, cold := order[:0:nhot], order[nhot:nhot]
	for i := range p.Funcs {
		if p.Funcs[i].Kind == program.KindCold {
			cold = append(cold, isa.FuncID(i))
		} else {
			hot = append(hot, isa.FuncID(i))
		}
	}
	if shuffle {
		rng := xrand.New(xrand.Mix(p.Seed, 0x1A10_07))
		for _, zone := range [][]isa.FuncID{hot, cold} {
			for i := len(zone) - 1; i > 0; i-- {
				j := rng.IntN(i + 1)
				zone[i], zone[j] = zone[j], zone[i]
			}
		}
	}
	// Each function's end offset is recorded as it is placed: the text
	// map a pruned program answers InFunc from.
	ends := make([]uint32, len(order))
	addr := base
	for k, id := range order {
		f := p.Func(id)
		f.Addr = addr
		addr += isa.Addr(f.Size)
		ends[k] = uint32(addr - base)
		addr = (addr + program.FuncAlign - 1) &^ (program.FuncAlign - 1)
	}
	p.TextBase = base
	p.TextSize = uint64(addr - base)
	p.SetAddrIndex(order, ends)
}

// taggedAddrs computes the instruction addresses to tag: the return
// instruction of every Bundle entry function, and every call instruction
// that can invoke an entry function (for indirect calls, any target being
// an entry suffices — the Bundle ID is derived at runtime from the
// address following the tagged instruction, so each dynamic target still
// yields its own Bundle).
func taggedAddrs(p *program.Program, a *callgraph.Analysis) []isa.Addr {
	entry := make([]bool, len(p.Funcs))
	for _, e := range a.Entries {
		entry[e] = true
	}
	var addrs []isa.Addr
	for i := range p.Funcs {
		f := &p.Funcs[i]
		if entry[i] {
			addrs = append(addrs, f.Addr+isa.Addr(f.RetOff()))
		}
		calls := p.CallsOf(isa.FuncID(i))
		for ci := range calls {
			c := &calls[ci]
			tagged := false
			if c.Indirect() {
				for _, t := range p.TargetSets[c.Targets].Funcs {
					if entry[t] {
						tagged = true
						break
					}
				}
			} else {
				tagged = entry[c.Callee]
			}
			if tagged {
				addrs = append(addrs, f.Addr+isa.Addr(c.Off)+program.CallInstrOff)
			}
		}
	}
	slices.Sort(addrs)
	return addrs
}
