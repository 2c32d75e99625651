// Package loader models the application-loading step of the paper's
// pipeline (§5.2): it consumes a linked binary image, reconstructs the
// runnable program, and applies the .bundles segment by "setting the
// reserved bit" on the flagged call/return instructions — realised here as
// a TagSet the execution engine consults when emitting those instructions.
package loader

import (
	"fmt"
	"sort"

	"hprefetch/internal/binfmt"
	"hprefetch/internal/isa"
	"hprefetch/internal/program"
)

// TagSet is the set of tagged instruction addresses, queryable in
// O(log n). The zero value is an empty set.
type TagSet struct {
	addrs []isa.Addr // sorted ascending
}

// NewTagSet builds a set from addresses (copied and sorted).
func NewTagSet(addrs []isa.Addr) *TagSet {
	s := &TagSet{addrs: append([]isa.Addr(nil), addrs...)}
	sort.Slice(s.addrs, func(i, j int) bool { return s.addrs[i] < s.addrs[j] })
	return s
}

// Contains reports whether addr carries the Bundle-entry tag.
func (s *TagSet) Contains(addr isa.Addr) bool {
	lo, hi := 0, len(s.addrs)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.addrs[mid] < addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s.addrs) && s.addrs[lo] == addr
}

// Len returns the number of tagged instructions.
func (s *TagSet) Len() int { return len(s.addrs) }

// Loaded is a program ready for execution.
type Loaded struct {
	// Prog is the linked program.
	Prog *program.Program
	// Tags holds the tagged call/return instruction addresses.
	Tags *TagSet
	// Entries lists the Bundle entry functions from the image.
	Entries []isa.FuncID
	// Threshold echoes the link-time divergence threshold.
	Threshold uint64
	// TagDrops counts tagged addresses the loader discarded because
	// they fell outside any function (degraded-mode loads only; the
	// strict Load path errors instead).
	TagDrops int
}

// Load reconstructs and validates a runnable program from a linked image.
func Load(im *binfmt.Image) (*Loaded, error) {
	if im.TextSize == 0 {
		return nil, fmt.Errorf("loader: image %q is not linked", im.Name)
	}
	p, err := im.Program()
	if err != nil {
		return nil, fmt.Errorf("loader: %w", err)
	}
	if int(im.Entry) >= p.NumFuncs() {
		return nil, fmt.Errorf("loader: entry %d out of range", im.Entry)
	}
	for i := range p.Funcs {
		f := &p.Funcs[i]
		if f.Addr < p.TextBase || uint64(f.Addr)+uint64(f.Size) > uint64(p.TextBase)+p.TextSize {
			return nil, fmt.Errorf("loader: function %d outside text segment", i)
		}
		for _, c := range p.CallsOf(isa.FuncID(i)) {
			if c.Indirect() {
				if int(c.Targets) >= len(p.TargetSets) {
					return nil, fmt.Errorf("loader: function %d has dangling target set %d", i, c.Targets)
				}
			} else if int(c.Callee) >= p.NumFuncs() {
				return nil, fmt.Errorf("loader: function %d has dangling callee %d", i, c.Callee)
			}
		}
	}
	for _, a := range im.Bundles.TaggedAddrs {
		if _, ok := p.FuncAt(a); !ok {
			return nil, fmt.Errorf("loader: tagged address %v outside any function", a)
		}
	}
	return LoadSegment(p, im.Bundles), nil
}

// LoadSegment is the common in-process path: it applies a .bundles
// segment straight from the linker to the already-linked program it
// was computed for, with no image round-trip. The segment's entries and
// tags are copied.
func LoadSegment(prog *program.Program, seg binfmt.BundleSegment) *Loaded {
	return &Loaded{
		Prog:      prog,
		Tags:      NewTagSet(seg.TaggedAddrs),
		Entries:   append([]isa.FuncID(nil), seg.Entries...),
		Threshold: seg.Threshold,
	}
}

// LoadLinked loads the .bundles segment of a linked image, sharing the
// already-linked program it was built from.
func LoadLinked(prog *program.Program, im *binfmt.Image) *Loaded {
	return LoadSegment(prog, im.Bundles)
}

// Segment returns the .bundles segment this program was loaded from:
// its threshold, Bundle entries and tagged addresses (in ascending
// order, as the linker writes them). It shares l's backing arrays, so
// the caller must not modify them; PerturbFn's contract already forbids
// that. A degraded load returns the tags it kept.
func (l *Loaded) Segment() binfmt.BundleSegment {
	var tags []isa.Addr
	if l.Tags != nil {
		tags = l.Tags.addrs
	}
	return binfmt.BundleSegment{Threshold: l.Threshold, Entries: l.Entries, TaggedAddrs: tags}
}

// PerturbFn mutates a copy of the .bundles segment before the loader
// applies it — the injection point for fault experiments. It must not
// retain or modify its argument's backing arrays.
type PerturbFn func(binfmt.BundleSegment) binfmt.BundleSegment

// LoadLinkedDegraded is LoadLinked with a perturbation hook and lenient
// validation: seg is first passed through perturb (nil = as is), then
// tagged addresses that land outside any function — the signature of a
// stale or corrupted Bundle table — are dropped and counted in TagDrops
// instead of failing the load. This models what a production loader
// must do: a binary whose prefetch metadata is bad still has to run,
// just without the bad hints. A pruned program answers for its whole
// text, so the drops are those of the full program.
func LoadLinkedDegraded(prog *program.Program, seg binfmt.BundleSegment, perturb PerturbFn) *Loaded {
	if perturb != nil {
		seg = perturb(seg)
	}
	tags := seg.TaggedAddrs
	drops := 0
	kept := make([]isa.Addr, 0, len(tags))
	for _, a := range tags {
		if prog.InFunc(a) {
			kept = append(kept, a)
		} else {
			drops++
		}
	}
	return &Loaded{
		Prog:      prog,
		Tags:      NewTagSet(kept),
		Entries:   append([]isa.FuncID(nil), seg.Entries...),
		Threshold: seg.Threshold,
		TagDrops:  drops,
	}
}
