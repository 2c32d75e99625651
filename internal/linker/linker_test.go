package linker

import (
	"testing"

	"hprefetch/internal/isa"
	"hprefetch/internal/program"
)

func testProgram(t *testing.T, seed uint64) *program.Program {
	t.Helper()
	cfg := program.DefaultConfig()
	cfg.Name = "link-test"
	cfg.Seed = seed
	cfg.OrphanFuncs = 300
	p, err := program.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLayoutNonOverlapping(t *testing.T) {
	p := testProgram(t, 31)
	l, err := Link(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Linked() {
		t.Fatal("program not marked linked")
	}
	type span struct{ lo, hi isa.Addr }
	spans := make([]span, 0, p.NumFuncs())
	for i := range p.Funcs {
		f := &p.Funcs[i]
		if f.Addr < p.TextBase {
			t.Fatalf("function %d below text base", i)
		}
		if f.Addr%16 != 0 {
			t.Fatalf("function %d unaligned at %v", i, f.Addr)
		}
		spans = append(spans, span{f.Addr, f.Addr + isa.Addr(f.Size)})
	}
	// Sort by start and check pairwise disjointness.
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			a, b := spans[i], spans[j]
			if a.lo < b.hi && b.lo < a.hi {
				t.Fatalf("functions overlap: [%v,%v) and [%v,%v)", a.lo, a.hi, b.lo, b.hi)
			}
		}
		if i > 200 {
			break // quadratic check bounded; FuncAt test covers the rest
		}
	}
	_ = l
}

func TestFuncAtAfterLink(t *testing.T) {
	p := testProgram(t, 32)
	if _, err := Link(p, Options{}); err != nil {
		t.Fatal(err)
	}
	for i := range p.Funcs {
		f := &p.Funcs[i]
		for _, probe := range []isa.Addr{f.Addr, f.Addr + isa.Addr(f.Size) - 1, f.Addr + isa.Addr(f.Size/2)} {
			id, ok := p.FuncAt(probe)
			if !ok || id != isa.FuncID(i) {
				t.Fatalf("FuncAt(%v) = %d,%v; want %d", probe, id, ok, i)
			}
		}
	}
	if _, ok := p.FuncAt(p.TextBase - 1); ok {
		t.Error("FuncAt before text base succeeded")
	}
	if _, ok := p.FuncAt(p.TextBase + isa.Addr(p.TextSize)); ok {
		t.Error("FuncAt past text end succeeded")
	}
}

func TestShuffleChangesLayoutButNotStructure(t *testing.T) {
	a := testProgram(t, 33)
	b := testProgram(t, 33)
	if _, err := Link(a, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Link(b, Options{NoShuffle: true}); err != nil {
		t.Fatal(err)
	}
	different := false
	for i := range a.Funcs {
		if a.Funcs[i].Addr != b.Funcs[i].Addr {
			different = true
			break
		}
	}
	if !different {
		t.Error("shuffled layout identical to ID-order layout")
	}
	// The shuffle must be deterministic.
	c := testProgram(t, 33)
	if _, err := Link(c, Options{}); err != nil {
		t.Fatal(err)
	}
	for i := range a.Funcs {
		if a.Funcs[i].Addr != c.Funcs[i].Addr {
			t.Fatal("shuffled layout not deterministic")
		}
	}
}

func TestBundleSegmentContents(t *testing.T) {
	p := testProgram(t, 34)
	l, err := Link(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seg := &l.Image.Bundles
	if seg.Empty() {
		t.Fatal("bundle segment empty on default config")
	}
	if seg.Threshold != 200<<10 {
		t.Errorf("threshold = %d", seg.Threshold)
	}
	// Every entry function's return instruction must be tagged.
	tagged := map[isa.Addr]bool{}
	for _, a := range seg.TaggedAddrs {
		tagged[a] = true
	}
	for _, e := range seg.Entries {
		f := p.Func(e)
		retAddr := f.Addr + isa.Addr(f.RetOff())
		if !tagged[retAddr] {
			t.Errorf("entry %d return at %v not tagged", e, retAddr)
		}
	}
	// Every direct call to an entry must be tagged; calls to non-entries
	// must not be (unless the same address somehow aliases, which the
	// disjoint layout precludes).
	for i := range p.Funcs {
		f := &p.Funcs[i]
		for _, c := range p.CallsOf(isa.FuncID(i)) {
			if c.Indirect() {
				continue
			}
			addr := f.Addr + isa.Addr(c.Off) + program.CallInstrOff
			if l.Analysis.IsEntry(c.Callee) != tagged[addr] {
				t.Errorf("call at %v to %d: tag mismatch (entry=%v)",
					addr, c.Callee, l.Analysis.IsEntry(c.Callee))
			}
		}
	}
	// Tagged addrs sorted ascending.
	for i := 1; i < len(seg.TaggedAddrs); i++ {
		if seg.TaggedAddrs[i] <= seg.TaggedAddrs[i-1] {
			t.Fatal("tagged addresses not strictly sorted")
		}
	}
}

func TestSkipBundles(t *testing.T) {
	p := testProgram(t, 35)
	l, err := Link(p, Options{SkipBundles: true})
	if err != nil {
		t.Fatal(err)
	}
	if l.Analysis != nil || !l.Image.Bundles.Empty() {
		t.Error("SkipBundles still produced bundle data")
	}
}

func TestLinkEmptyProgram(t *testing.T) {
	if _, err := Link(&program.Program{}, Options{}); err == nil {
		t.Error("empty program linked without error")
	}
}

func TestLinkOptions(t *testing.T) {
	p := testProgram(t, 36)
	l, err := Link(p, Options{TextBase: 0x10000000, Threshold: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if p.TextBase != 0x10000000 {
		t.Errorf("text base %v", p.TextBase)
	}
	if l.Image.Bundles.Threshold != 64<<10 {
		t.Errorf("threshold %d", l.Image.Bundles.Threshold)
	}
	// A lower threshold must find at least as many entries as the
	// default 200KB one.
	q := testProgram(t, 36)
	ld, err := Link(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Analysis.Entries) < len(ld.Analysis.Entries) {
		t.Errorf("64KB threshold found %d entries, 200KB found %d",
			len(l.Analysis.Entries), len(ld.Analysis.Entries))
	}
}

func TestHotColdZoning(t *testing.T) {
	p := testProgram(t, 37)
	if _, err := Link(p, Options{}); err != nil {
		t.Fatal(err)
	}
	// Every non-cold function must be laid out below every cold one.
	var maxHot, minCold isa.Addr = 0, ^isa.Addr(0)
	for i := range p.Funcs {
		f := &p.Funcs[i]
		if f.Kind == program.KindCold {
			if f.Addr < minCold {
				minCold = f.Addr
			}
		} else if f.Addr > maxHot {
			maxHot = f.Addr
		}
	}
	if maxHot >= minCold {
		t.Errorf("hot zone (max %v) overlaps cold zone (min %v)", maxHot, minCold)
	}
}
