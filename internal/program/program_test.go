package program

import (
	"slices"
	"testing"
	"testing/quick"

	"hprefetch/internal/isa"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Name = "test"
	cfg.Seed = 7
	cfg.OrphanFuncs = 200
	cfg.LibFuncs = 80
	cfg.ColdTrees = 3
	cfg.ColdTreeFuncs = 40
	return cfg
}

func TestGenerateDeterminism(t *testing.T) {
	a, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.NumFuncs() != b.NumFuncs() {
		t.Fatalf("function counts differ: %d vs %d", a.NumFuncs(), b.NumFuncs())
	}
	for i := range a.Funcs {
		if a.Funcs[i] != b.Funcs[i] {
			t.Fatalf("function %d differs between identical generations", i)
		}
	}
	if !slices.Equal(a.Calls, b.Calls) {
		t.Fatal("call sites differ between identical generations")
	}
}

func TestGenerateStructure(t *testing.T) {
	p, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != 0 || p.Funcs[p.Entry].Kind != KindRoot {
		t.Error("entry must be the root function")
	}
	if len(p.Stages) != 5 {
		t.Fatalf("got %d stages, want 5", len(p.Stages))
	}
	for i, s := range p.Stages {
		if p.Funcs[s.Func].Kind != KindStage {
			t.Errorf("stage %d function has kind %v", i, p.Funcs[s.Func].Kind)
		}
		if s.Diverges {
			if len(s.Handlers) != p.RequestTypes {
				t.Errorf("stage %s has %d handlers, want %d", s.Name, len(s.Handlers), p.RequestTypes)
			}
			for _, h := range s.Handlers {
				if p.Funcs[h].Kind != KindHandler {
					t.Errorf("handler %d has kind %v", h, p.Funcs[h].Kind)
				}
			}
		} else if len(s.Handlers) != 0 {
			t.Errorf("non-diverging stage %s has handlers", s.Name)
		}
	}
}

func TestGenerateLayering(t *testing.T) {
	// Dynamic execution relies on hot call edges never pointing to a
	// lower (or equal) FuncID, which guarantees acyclic hot execution.
	p, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Funcs {
		for _, c := range p.CallsOf(isa.FuncID(i)) {
			if c.Prob == 0 {
				continue // cold edges may point anywhere
			}
			if c.Indirect() {
				for _, tgt := range p.TargetSets[c.Targets].Funcs {
					if int(tgt) <= i {
						t.Fatalf("func %d hot indirect edge to non-deeper %d", i, tgt)
					}
				}
			} else if int(c.Callee) <= i {
				t.Fatalf("func %d hot edge to non-deeper %d", i, c.Callee)
			}
		}
	}
}

func TestCallSiteInvariants(t *testing.T) {
	p, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Funcs {
		f := &p.Funcs[i]
		prev := int64(-int64(CallRegionBytes))
		for j, c := range p.CallsOf(isa.FuncID(i)) {
			if c.Off%isa.InstrSize != 0 {
				t.Fatalf("func %d call %d offset %d unaligned", i, j, c.Off)
			}
			if int64(c.Off) < prev+CallRegionBytes {
				t.Fatalf("func %d call %d at %d overlaps previous at %d", i, j, c.Off, prev)
			}
			if c.Off < isa.InstrSize || c.Off+CallRegionBytes > f.RetOff() {
				t.Fatalf("func %d call %d offset %d out of body (size %d)", i, j, c.Off, f.Size)
			}
			prev = int64(c.Off)
			if !c.Indirect() && int(c.Callee) >= p.NumFuncs() {
				t.Fatalf("func %d call %d dangling callee %d", i, j, c.Callee)
			}
			if c.Indirect() && int(c.Targets) >= len(p.TargetSets) {
				t.Fatalf("func %d call %d dangling target set", i, j)
			}
		}
		if f.Size%isa.InstrSize != 0 || f.Size < MinFuncSize {
			t.Fatalf("func %d size %d invalid", i, f.Size)
		}
	}
}

func TestBodyCoversFunction(t *testing.T) {
	p, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	next := uint32(0)
	for i := range p.Funcs {
		f := &p.Funcs[i]
		if f.FirstCall != next {
			t.Fatalf("func %d calls start at %d, the previous function's end at %d", i, f.FirstCall, next)
		}
		next += f.NumCalls
		calls := p.CallsOf(isa.FuncID(i))
		items := p.AppendBody(nil, isa.FuncID(i))
		if len(items) == 0 {
			t.Fatalf("func %d has empty body", i)
		}
		cur := uint32(0)
		callIdx := 0
		for k, it := range items {
			if it.Off != cur {
				t.Fatalf("func %d item %d at %d, expected contiguous %d", i, k, it.Off, cur)
			}
			switch it.Kind {
			case ItemCall:
				if it.Arg != f.FirstCall+uint32(callIdx) {
					t.Fatalf("func %d call %d has program-wide index %d, want %d",
						i, callIdx, it.Arg, f.FirstCall+uint32(callIdx))
				}
				if it.Off != calls[callIdx].Off {
					t.Fatalf("func %d call %d body offset %d != static %d",
						i, callIdx, it.Off, calls[callIdx].Off)
				}
				callIdx++
			case ItemRet:
				if k != len(items)-1 || it.Off != f.RetOff() {
					t.Fatalf("func %d return misplaced", i)
				}
			case ItemCondRun:
				if it.Bytes < 2*isa.InstrSize {
					t.Fatalf("func %d cond-run too small", i)
				}
			case ItemLoopRun:
				if it.Arg < 2 || it.Bytes < isa.InstrSize {
					t.Fatalf("func %d loop invalid", i)
				}
			}
			cur = it.Off + it.Bytes
		}
		if cur != f.Size {
			t.Fatalf("func %d body covers %d bytes of %d", i, cur, f.Size)
		}
		if callIdx != len(calls) {
			t.Fatalf("func %d body has %d calls, static %d", i, callIdx, len(calls))
		}
	}
	if int(next) != len(p.Calls) {
		t.Fatalf("functions own %d of %d call sites", next, len(p.Calls))
	}
}

func TestBodyDeterminism(t *testing.T) {
	p, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	id := p.Stages[1].Func
	a, b := p.AppendBody(nil, id), p.AppendBody(nil, id)
	if len(a) != len(b) {
		t.Fatal("body lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("body item %d differs across builds", i)
		}
	}
}

func TestAssignCallOffsetsProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8, extra uint16) bool {
		n := int(nRaw%20) + 1
		size := uint32((n+3)*4*isa.InstrSize) + uint32(extra%4096)&^3
		calls := make([]Call, n)
		AssignCallOffsets(seed, size, calls)
		prev := int64(-int64(CallRegionBytes))
		for _, c := range calls {
			if c.Off%isa.InstrSize != 0 ||
				int64(c.Off) < prev+CallRegionBytes ||
				c.Off < isa.InstrSize ||
				c.Off+CallRegionBytes+isa.InstrSize > size {
				return false
			}
			prev = int64(c.Off)
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 500}
}

func TestFuncAtUnlinked(t *testing.T) {
	p, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.FuncAt(0x1000); ok {
		t.Error("FuncAt must fail on unlinked programs")
	}
}

func TestTypeWeights(t *testing.T) {
	p, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.TypeWeights) != p.RequestTypes {
		t.Fatalf("weights %d != types %d", len(p.TypeWeights), p.RequestTypes)
	}
	var sum float64
	for _, w := range p.TypeWeights {
		sum += w
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("weights sum to %v", sum)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Name = "" },
		func(c *Config) { c.RequestTypes = 0 },
		func(c *Config) { c.Stages = nil },
		func(c *Config) { c.FuncSizeMin = 4 },
		func(c *Config) { c.FuncSizeMax = c.FuncSizeMin - 4 },
		func(c *Config) { c.CallProbMin = 0 },
		func(c *Config) { c.CallProbMax = 1.2 },
		func(c *Config) { c.HandlerDepthMin = 0 },
		func(c *Config) { c.HandlerFanoutMax = 0 },
	}
	for i, mutate := range bad {
		cfg := testConfig()
		mutate(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestFuncNameStability(t *testing.T) {
	p, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.FuncName(p.Entry) != "serve_loop" {
		t.Errorf("root name = %q", p.FuncName(p.Entry))
	}
	for i := 0; i < p.NumFuncs(); i += 97 {
		id := isa.FuncID(i)
		if p.FuncName(id) != p.FuncName(id) || p.FuncName(id) == "" {
			t.Fatalf("unstable or empty name for %d", i)
		}
	}
}

func TestGenerateGrowsFuncsOnce(t *testing.T) {
	chain := ChainConfig{Base: DefaultConfig(), Depth: 2, Fanout: 2, ServiceCommonFuncs: 30, ServiceHandlerFuncs: 20}
	for _, gen := range []struct {
		cfg Config
		run func() (*Program, error)
	}{
		{DefaultConfig(), func() (*Program, error) { return Generate(DefaultConfig()) }},
		{testConfig(), func() (*Program, error) { return Generate(testConfig()) }},
		{chain.Base, func() (*Program, error) { return GenerateChain(chain) }},
	} {
		p, err := gen.run()
		if err != nil {
			t.Fatal(err)
		}
		// The presize counts the pools exactly.
		pool := 0
		for i := range p.Funcs {
			if k := p.Funcs[i].Kind; k == KindCold || k == KindLib {
				pool++
			}
		}
		if want := gen.cfg.poolFuncs(); pool != want {
			t.Errorf("%s: %d pool functions, poolFuncs says %d", p.Name, pool, want)
		}
		// The table never ends with more spare room than appending one
		// function at a time would have left it.
		var grown []Function
		for range p.Funcs {
			grown = append(grown, Function{})
		}
		if cap(p.Funcs) > cap(grown) {
			t.Errorf("%s: %d functions in a table of %d, append leaves %d",
				p.Name, len(p.Funcs), cap(p.Funcs), cap(grown))
		}
	}
}

func TestSetAddrIndexMatchesSortedIndex(t *testing.T) {
	p, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Lay the functions out in a scrambled order, as the linker does.
	order := make([]isa.FuncID, p.NumFuncs())
	for i := range order {
		order[i] = isa.FuncID((i * 7919) % len(order))
	}
	base := isa.Addr(0x40_0000)
	addr := base
	ends := make([]uint32, len(order))
	for k, id := range order {
		p.Funcs[id].Addr = addr
		addr += isa.Addr(p.Funcs[id].Size)
		ends[k] = uint32(addr - base)
		addr = (addr + FuncAlign - 1) &^ (FuncAlign - 1)
	}
	p.TextBase, p.TextSize = base, uint64(addr-base)
	p.BuildAddrIndex()
	sorted := slices.Clone(p.addrIndex)
	if !slices.Equal(sorted, order) {
		t.Fatal("sorted index differs from the layout order")
	}
	if !slices.Equal(p.textEnds, ends) {
		t.Fatal("sorted text map differs from the layout's end offsets")
	}
	idOrder := make([]isa.FuncID, p.NumFuncs())
	for i := range idOrder {
		idOrder[i] = isa.FuncID(i)
	}
	for name, candidate := range map[string][]isa.FuncID{
		"layout order": slices.Clone(order),
		"ID order":     idOrder,              // not ascending: falls back to the sort
		"too short":    order[:len(order)-1], // not every function: falls back
	} {
		p.addrIndex, p.textEnds = nil, nil
		p.SetAddrIndex(candidate, slices.Clone(ends))
		if !slices.Equal(p.addrIndex, sorted) || !slices.Equal(p.textEnds, ends) {
			t.Errorf("%s: index or text map differs from the sorted one", name)
		}
	}
	if id, ok := p.FuncAt(p.Funcs[order[5]].Addr + 4); !ok || id != order[5] {
		t.Errorf("FuncAt = %d, %v; want %d", id, ok, order[5])
	}
}

// TestPruneNeedsPackedLayout: Prune derives every function's start from
// the end of the one before it, so it accepts a layout packed at
// FuncAlign and refuses one that is not, leaving the program whole.
func TestPruneNeedsPackedLayout(t *testing.T) {
	for _, align := range []isa.Addr{FuncAlign, isa.InstrSize} {
		p, err := Generate(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		order := make([]isa.FuncID, p.NumFuncs())
		for i := range order {
			order[i] = isa.FuncID((i * 7919) % len(order))
		}
		base := isa.Addr(0x40_0000)
		addr := base
		ends := make([]uint32, len(order))
		for k, id := range order {
			p.Funcs[id].Addr = addr
			ends[k] = uint32(addr + isa.Addr(p.Funcs[id].Size) - base)
			addr = (addr + isa.Addr(p.Funcs[id].Size) + align - 1) &^ (align - 1)
		}
		p.TextBase, p.TextSize = base, uint64(addr-base)
		p.SetAddrIndex(order, ends)
		n := p.NumFuncs()
		err = p.Prune()
		switch {
		case align == FuncAlign && (err != nil || p.NumFuncs() >= n || p.TextFuncs() != n):
			t.Errorf("packed layout: Prune = %v, keeps %d of %d functions", err, p.NumFuncs(), p.TextFuncs())
		case align != FuncAlign && (err == nil || p.NumFuncs() != n):
			t.Errorf("unpadded layout: Prune = %v, keeps %d of %d functions", err, p.NumFuncs(), n)
		}
	}
}
