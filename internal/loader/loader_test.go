package loader

import (
	"reflect"
	"testing"

	"hprefetch/internal/binfmt"
	"hprefetch/internal/isa"
	"hprefetch/internal/linker"
	"hprefetch/internal/program"
)

func linkedImage(t *testing.T) (*program.Program, *binfmt.Image) {
	t.Helper()
	cfg := program.DefaultConfig()
	cfg.Name = "load-test"
	cfg.Seed = 41
	cfg.OrphanFuncs = 100
	p, err := program.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := linker.Link(p, linker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p, l.Image
}

func TestLoadRoundTrip(t *testing.T) {
	p, im := linkedImage(t)
	// Full fidelity path: marshal, unmarshal, load.
	back, err := binfmt.Unmarshal(im.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	ld, err := Load(back)
	if err != nil {
		t.Fatal(err)
	}
	if ld.Prog.NumFuncs() != p.NumFuncs() {
		t.Fatal("function count changed across load")
	}
	if ld.Tags.Len() != len(im.Bundles.TaggedAddrs) {
		t.Fatalf("tag count %d != segment %d", ld.Tags.Len(), len(im.Bundles.TaggedAddrs))
	}
	for _, a := range im.Bundles.TaggedAddrs {
		if !ld.Tags.Contains(a) {
			t.Fatalf("tag %v lost in load", a)
		}
	}
	if ld.Threshold != im.Bundles.Threshold || len(ld.Entries) != len(im.Bundles.Entries) {
		t.Error("bundle metadata lost in load")
	}
}

func TestTagSetContains(t *testing.T) {
	s := NewTagSet([]isa.Addr{0x30, 0x10, 0x20})
	for _, a := range []isa.Addr{0x10, 0x20, 0x30} {
		if !s.Contains(a) {
			t.Errorf("missing %v", a)
		}
	}
	for _, a := range []isa.Addr{0x0, 0x11, 0x1F, 0x31, 0xFFFF} {
		if s.Contains(a) {
			t.Errorf("false positive at %v", a)
		}
	}
	var empty TagSet
	if empty.Contains(0x10) || empty.Len() != 0 {
		t.Error("zero-value TagSet misbehaves")
	}
}

func TestLoadRejectsUnlinked(t *testing.T) {
	cfg := program.DefaultConfig()
	cfg.Name = "unlinked"
	p, err := program.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(binfmt.FromProgram(p)); err == nil {
		t.Error("unlinked image loaded")
	}
}

func TestLoadRejectsBadTag(t *testing.T) {
	_, im := linkedImage(t)
	im.Bundles.TaggedAddrs = append(im.Bundles.TaggedAddrs, isa.Addr(0x1))
	if _, err := Load(im); err == nil {
		t.Error("tag outside text accepted")
	}
}

func TestLoadLinkedSharesProgram(t *testing.T) {
	p, im := linkedImage(t)
	ld := LoadLinked(p, im)
	if ld.Prog != p {
		t.Error("LoadLinked must share the program")
	}
	if ld.Tags.Len() == 0 {
		t.Error("LoadLinked lost tags")
	}
}

// TestSegmentRoundTrips: a program loaded from an image, by either
// path, gives back that image's .bundles segment.
func TestSegmentRoundTrips(t *testing.T) {
	p, im := linkedImage(t)
	if got := LoadLinked(p, im).Segment(); !reflect.DeepEqual(got, im.Bundles) {
		t.Errorf("LoadLinked: Segment() = %d entries, %d tags; image has %d, %d",
			len(got.Entries), len(got.TaggedAddrs), len(im.Bundles.Entries), len(im.Bundles.TaggedAddrs))
	}
	ld, err := Load(im)
	if err != nil {
		t.Fatal(err)
	}
	if got := ld.Segment(); !reflect.DeepEqual(got, im.Bundles) {
		t.Errorf("Load: Segment() differs from the image's segment")
	}
	if got := LoadLinkedDegraded(p, ld.Segment(), nil).Segment(); !reflect.DeepEqual(got, im.Bundles) {
		t.Errorf("a clean degraded load of Segment() changed the segment")
	}
}

// TestLoadLinkedDegraded asserts the lenient path applies the perturb
// hook, drops out-of-function tags with a count, and never errors on a
// corrupted Bundle table.
func TestLoadLinkedDegraded(t *testing.T) {
	p, im := linkedImage(t)

	// Nil hook, clean table: identical to LoadLinked.
	ld := LoadLinkedDegraded(p, im.Bundles, nil)
	if ld.TagDrops != 0 || ld.Tags.Len() != len(im.Bundles.TaggedAddrs) {
		t.Fatalf("clean degraded load dropped %d of %d tags", ld.TagDrops, len(im.Bundles.TaggedAddrs))
	}

	// Hook that shoves half the tags outside the text segment.
	rogue := isa.Addr(p.TextBase) + isa.Addr(p.TextSize) + 0x1000
	perturb := func(seg binfmt.BundleSegment) binfmt.BundleSegment {
		out := seg
		out.TaggedAddrs = append([]isa.Addr(nil), seg.TaggedAddrs...)
		for i := range out.TaggedAddrs {
			if i%2 == 0 {
				out.TaggedAddrs[i] = rogue
			}
		}
		return out
	}
	before := len(im.Bundles.TaggedAddrs)
	ld = LoadLinkedDegraded(p, im.Bundles, perturb)
	want := (before + 1) / 2
	if ld.TagDrops != want {
		t.Errorf("TagDrops = %d, want %d", ld.TagDrops, want)
	}
	if ld.Tags.Len() != before-want {
		t.Errorf("kept %d tags, want %d", ld.Tags.Len(), before-want)
	}
	if ld.Tags.Contains(rogue) {
		t.Error("out-of-function tag survived the degraded load")
	}
	// The original image must be untouched (the hook copies).
	if len(im.Bundles.TaggedAddrs) != before {
		t.Error("perturbation leaked into the source image")
	}

	// The strict path still refuses the same corruption.
	im2 := *im
	im2.Bundles = perturb(im.Bundles)
	if _, err := Load(&im2); err == nil {
		t.Error("strict Load accepted an out-of-function tag")
	}
}
