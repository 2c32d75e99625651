package program

import (
	"fmt"
	"slices"

	"hprefetch/internal/isa"
	"hprefetch/internal/xrand"
)

// StageSpec configures one pipeline stage of a generated application.
type StageSpec struct {
	// Name labels the stage ("Read", "Exec", ...).
	Name string
	// Diverges marks the stage as a request-type dispatch point: it
	// calls a per-type handler subtree through an indirect call.
	Diverges bool
	// CommonFuncs is the size (in functions) of the stage-common helper
	// tree executed for every request regardless of type.
	CommonFuncs int
	// HandlerFuncs is the approximate size (in functions) of each
	// per-type handler subtree (only used when Diverges).
	HandlerFuncs int
}

// Config parameterises the synthetic application generator. The eleven
// workload presets in internal/workloads are instances of this Config.
type Config struct {
	// Name labels the workload.
	Name string
	// Seed is the master generation seed.
	Seed uint64
	// RequestTypes is the number of distinct request types (statement
	// kinds, endpoint classes, ...).
	RequestTypes int
	// TypeZipf skews the request mix (0 = uniform; ~0.8 = realistic).
	TypeZipf float64
	// Stages is the request pipeline.
	Stages []StageSpec
	// LibFuncs is the shared library pool size.
	LibFuncs int
	// LibCallsMin/Max bound how many library callees each hot function
	// gets.
	LibCallsMin, LibCallsMax int
	// ColdTrees is the number of shared cold subtrees (error paths,
	// unused features) hanging off hot code with probability-zero edges.
	ColdTrees int
	// ColdTreeFuncs is the approximate function count per cold subtree.
	ColdTreeFuncs int
	// OrphanFuncs is the count of additional functions forming separate
	// static call-graph roots (registered callbacks, dead library
	// surface). They pad the static function count the way real
	// binaries do and exercise the multi-root rule of Algorithm 1.
	OrphanFuncs int
	// OrphanTreeFuncs is the approximate size of each orphan tree; the
	// orphan pool is carved into trees of about this size.
	OrphanTreeFuncs int
	// FuncSizeMin/Max bound generated function code sizes in bytes.
	FuncSizeMin, FuncSizeMax int
	// HandlerDepthMin/Max bound handler-subtree depth.
	HandlerDepthMin, HandlerDepthMax int
	// HandlerFanoutMin/Max bound handler-subtree fanout.
	HandlerFanoutMin, HandlerFanoutMax int
	// CallProbMin/Max bound the execution probability of hot call
	// edges; the gap below 1.0 is what makes successive executions of
	// the same functionality differ slightly (the paper's intra-Bundle
	// control-flow variation).
	CallProbMin, CallProbMax float64
	// CrossLinkProb adds occasional calls between sibling handler
	// subtrees (shared sub-functionality across request types).
	CrossLinkProb float64
}

// Validate reports the first configuration problem found, or nil.
func (c *Config) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("program: config needs a name")
	case c.RequestTypes < 1:
		return fmt.Errorf("program %s: RequestTypes must be >= 1", c.Name)
	case len(c.Stages) == 0:
		return fmt.Errorf("program %s: at least one stage required", c.Name)
	case c.FuncSizeMin < MinFuncSize:
		return fmt.Errorf("program %s: FuncSizeMin %d below minimum %d", c.Name, c.FuncSizeMin, MinFuncSize)
	case c.FuncSizeMax < c.FuncSizeMin:
		return fmt.Errorf("program %s: FuncSizeMax below FuncSizeMin", c.Name)
	case c.CallProbMin <= 0 || c.CallProbMax > 1 || c.CallProbMax < c.CallProbMin:
		return fmt.Errorf("program %s: call probability bounds invalid", c.Name)
	case c.HandlerDepthMin < 1 || c.HandlerDepthMax < c.HandlerDepthMin:
		return fmt.Errorf("program %s: handler depth bounds invalid", c.Name)
	case c.HandlerFanoutMin < 1 || c.HandlerFanoutMax < c.HandlerFanoutMin:
		return fmt.Errorf("program %s: handler fanout bounds invalid", c.Name)
	}
	return nil
}

// DefaultConfig returns a mid-sized server application configuration,
// useful as a starting point for custom workloads and in examples.
func DefaultConfig() Config {
	return Config{
		Name:         "default",
		Seed:         1,
		RequestTypes: 10,
		TypeZipf:     0.70,
		Stages: []StageSpec{
			{Name: "Read", CommonFuncs: 165},
			{Name: "Dispatch", Diverges: true, CommonFuncs: 90, HandlerFuncs: 70},
			{Name: "Compile", CommonFuncs: 420},
			{Name: "Exec", Diverges: true, CommonFuncs: 150, HandlerFuncs: 95},
			{Name: "Finish", CommonFuncs: 150},
		},
		LibFuncs:         1100,
		LibCallsMin:      1,
		LibCallsMax:      2,
		ColdTrees:        8,
		ColdTreeFuncs:    350,
		OrphanFuncs:      3000,
		OrphanTreeFuncs:  60,
		FuncSizeMin:      64,
		FuncSizeMax:      512,
		HandlerDepthMin:  3,
		HandlerDepthMax:  5,
		HandlerFanoutMin: 2,
		HandlerFanoutMax: 4,
		CallProbMin:      0.90,
		CallProbMax:      0.97,
		CrossLinkProb:    0.08,
	}
}

// builder holds the in-progress program during generation.
type builder struct {
	cfg   *Config
	rng   *xrand.RNG
	prog  *Program
	libs  []isa.FuncID // shared library pool
	colds []isa.FuncID // cold subtree roots
}

// Generate builds the synthetic application described by cfg. The result
// is unlinked: function addresses are assigned later by the linker.
func Generate(cfg Config) (*Program, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &builder{
		cfg: &cfg,
		rng: xrand.New(xrand.Mix(cfg.Seed, 0xC0FFEE)),
		prog: &Program{
			Name:         cfg.Name,
			Seed:         cfg.Seed,
			RequestTypes: cfg.RequestTypes,
		},
	}
	b.prog.TypeWeights = xrand.ZipfWeights(cfg.RequestTypes, cfg.TypeZipf)

	// Library pool first conceptually, but IDs must be layered so that
	// dynamic execution never recurses: every call edge goes to a
	// strictly larger FuncID. We therefore reserve the library and cold
	// pools up front by generating them after the hot structure and
	// only handing out their IDs. Easiest correct order: pre-create the
	// pools at the END of the ID space by generating hot code first and
	// recording forward references. To keep generation single-pass, we
	// instead create pools first as "placeholders" — but placeholders
	// complicate sizing. The pragmatic layering used here:
	//
	//	root < stages < handlers/helpers < cold < libs < orphans
	//
	// Hot code references cold/lib IDs that do not exist yet; we know
	// exactly how many hot functions there will be only after building
	// them, so library references are patched in a second pass.
	b.buildHot()
	b.buildColdAndLibs()
	b.patchPoolRefs()
	b.buildOrphans()
	b.packCalls()
	return b.prog, nil
}

// Placeholder callee values patched to real pool FuncIDs after the pools
// are generated. Values below refBase are real FuncIDs.
const (
	refBase = isa.FuncID(0xF0000000)
	refLib  = refBase + 0
	refCold = refBase + 1
)

// newFunc appends a function and returns its ID.
func (b *builder) newFunc(kind FuncKind, stage int16, size uint32) isa.FuncID {
	id := isa.FuncID(len(b.prog.Funcs))
	b.prog.Funcs = append(b.prog.Funcs, Function{Size: size, Kind: kind, Stage: stage})
	return id
}

// funcSize draws a function size in bytes, aligned to the instruction
// size, with room for at least nCalls call sites.
func (b *builder) funcSize(nCalls int) uint32 {
	sz := b.rng.Range(b.cfg.FuncSizeMin, b.cfg.FuncSizeMax)
	min := (nCalls + 3) * 4 * isa.InstrSize
	if sz < min {
		sz = min
	}
	return uint32(sz+isa.InstrSize-1) &^ (isa.InstrSize - 1)
}

// prob draws a hot-edge execution probability in fixed point. Most call
// sites execute almost always (their guards predict well); a minority
// draw from the configured variable band, which is what makes successive
// executions of the same functionality touch slightly different code —
// the paper's intra-Bundle control-flow variation.
func (b *builder) prob() uint16 {
	if b.rng.Bool(0.70) {
		return uint16((0.975 + 0.02*b.rng.Float64()) * probScale)
	}
	p := b.cfg.CallProbMin + b.rng.Float64()*(b.cfg.CallProbMax-b.cfg.CallProbMin)
	return uint16(p * probScale)
}

// buildHot creates the root, the stages, and every handler subtree.
func (b *builder) buildHot() {
	cfg := b.cfg
	root := b.newFunc(KindRoot, NoStage, 256)
	b.prog.Entry = root

	// Stage top-level functions, created first so the root can call
	// them in pipeline order with near-certain probability.
	stageIDs := make([]isa.FuncID, len(cfg.Stages))
	for i, ss := range cfg.Stages {
		stageIDs[i] = b.newFunc(KindStage, int16(i), b.funcSize(6))
		b.prog.Stages = append(b.prog.Stages, Stage{Name: ss.Name, Func: stageIDs[i], Diverges: ss.Diverges})
	}
	rootCalls := make([]Call, 0, len(stageIDs))
	for _, sid := range stageIDs {
		rootCalls = append(rootCalls, Call{Callee: sid, Prob: fixedProb(0.995), Repeat: 1})
	}
	b.setCalls(root, rootCalls)

	for i, ss := range cfg.Stages {
		b.buildStage(i, ss, stageIDs[i])
	}
}

// buildStage populates one stage: its common helper tree and, for
// diverging stages, the per-type handler subtrees plus the dispatch table.
func (b *builder) buildStage(idx int, ss StageSpec, stageFn isa.FuncID) {
	var calls []Call

	// Stage-common helpers: executed for every request.
	if ss.CommonFuncs > 0 {
		commonRoot := b.buildTree(KindHelper, int16(idx), ss.CommonFuncs, 0.97)
		calls = append(calls, Call{Callee: commonRoot, Prob: fixedProb(0.99), Repeat: 1})
	}

	if ss.Diverges {
		handlers := make([]isa.FuncID, b.cfg.RequestTypes)
		for t := range handlers {
			handlers[t] = b.buildTree(KindHandler, int16(idx), ss.HandlerFuncs, 0)
		}
		b.prog.Stages[idx].Handlers = handlers
		tsIdx := uint32(len(b.prog.TargetSets))
		b.prog.TargetSets = append(b.prog.TargetSets, TargetSet{ByType: true, Funcs: handlers})
		calls = append(calls, Call{Callee: isa.NoFunc, Targets: tsIdx, Prob: fixedProb(0.995), Repeat: 1})
		b.crossLink(handlers)
	}

	// Every hot function also leans on the shared libraries and hangs
	// cold error paths; those references are patched after the pools
	// exist.
	calls = b.addPoolRefs(calls, true)
	b.setCalls(stageFn, calls)
}

// buildTree creates a helper subtree of roughly n functions and returns
// its root. rootKind tags the root (handler roots differ from plain
// helpers). hotness overrides call probabilities when > 0.
func (b *builder) buildTree(rootKind FuncKind, stage int16, n int, hotness float64) isa.FuncID {
	cfg := b.cfg
	depth := b.rng.Range(cfg.HandlerDepthMin, cfg.HandlerDepthMax)
	// Build top-down, breadth-first, spending the function budget.
	rootID := b.newFunc(rootKind, stage, b.funcSize(4))
	type node struct {
		id    isa.FuncID
		depth int
	}
	frontier := []node{{rootID, 0}}
	budget := n - 1
	for len(frontier) > 0 && budget > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		if cur.depth >= depth {
			continue
		}
		fanout := b.rng.Range(cfg.HandlerFanoutMin, cfg.HandlerFanoutMax)
		if fanout > budget {
			fanout = budget
		}
		var calls []Call
		children := make([]isa.FuncID, 0, fanout)
		for i := 0; i < fanout; i++ {
			child := b.newFunc(KindHelper, stage, b.funcSize(3))
			budget--
			children = append(children, child)
			frontier = append(frontier, node{child, cur.depth + 1})
		}
		// A share of the children hang off polymorphic (data-dependent
		// indirect) call sites invoked several times per visit: the
		// dynamic target sequence is unpredictable, but across a few
		// invocations the union of touched code is stable. This is the
		// paper's central workload property — fine-grained triggers see
		// divergent futures while coarse Bundle footprints stay similar
		// (Figure 4 vs Table 4).
		if len(children) >= 2 && b.rng.Bool(0.30) {
			tsIdx := uint32(len(b.prog.TargetSets))
			b.prog.TargetSets = append(b.prog.TargetSets, TargetSet{Funcs: children})
			// Invoked about once per target (random phase, see the
			// engine): the per-invocation target is unpredictable but
			// the union per visit is nearly complete, so coarse
			// footprints stay stable while fine-grained sequence
			// predictors see divergent futures.
			calls = append(calls, Call{
				Callee:  isa.NoFunc,
				Targets: tsIdx,
				Prob:    fixedProb(0.99),
				Repeat:  uint8(2 * len(children)),
			})
		} else {
			for _, child := range children {
				p := b.prob()
				if hotness > 0 {
					p = uint16(hotness * probScale)
				}
				// Mostly single calls; occasional small repeats add
				// function-level reuse without compounding depth-wise.
				rep := uint8(1)
				if b.rng.Bool(0.2) {
					rep = uint8(b.rng.Range(2, 3))
				}
				calls = append(calls, Call{Callee: child, Prob: p, Repeat: rep})
			}
		}
		calls = b.addPoolRefs(calls, cur.depth <= 1)
		b.setCalls(cur.id, calls)
	}
	// Leaves left in the frontier get only library/cold references.
	for _, leaf := range frontier {
		b.setCalls(leaf.id, b.addPoolRefs(nil, false))
	}
	return rootID
}

// crossLink adds occasional shared-functionality calls between sibling
// handler subtrees (request types reusing each other's helpers).
func (b *builder) crossLink(handlers []isa.FuncID) {
	if b.cfg.CrossLinkProb <= 0 || len(handlers) < 2 {
		return
	}
	for i, h := range handlers {
		if !b.rng.Bool(b.cfg.CrossLinkProb * float64(len(handlers))) {
			continue
		}
		other := handlers[(i+1+b.rng.IntN(len(handlers)-1))%len(handlers)]
		// The link must preserve the caller<callee ID layering; swap
		// direction if needed.
		from, to := h, other
		if from > to {
			from, to = to, from
		}
		b.addCall(from, Call{Callee: to, Prob: fixedProb(0.25), Repeat: 1})
	}
}

// addCall appends a call site to an already-finalised function, growing
// it if needed and recomputing all call-site offsets. Unless the
// function's sites are the last in Program.Calls, they move to the end
// first; packCalls drops the copies left behind.
func (b *builder) addCall(id isa.FuncID, c Call) {
	p := b.prog
	f := &p.Funcs[id]
	first := int(f.FirstCall)
	if first+int(f.NumCalls) != len(p.Calls) {
		first = len(p.Calls)
		p.Calls = append(p.Calls, p.CallsOf(id)...)
	}
	p.Calls = append(p.Calls, c)
	b.endCalls(id, first)
}

// addPoolRefs appends placeholder library and cold-path references to a
// call list. withCold controls whether cold edges are attached (upper
// hot nodes carry them; attaching them everywhere would balloon static
// reachable sizes uniformly and erase divergence structure).
func (b *builder) addPoolRefs(calls []Call, withCold bool) []Call {
	nLibs := b.rng.Range(b.cfg.LibCallsMin, b.cfg.LibCallsMax)
	for i := 0; i < nLibs; i++ {
		rep := uint8(1)
		if b.rng.Bool(0.4) {
			rep = uint8(b.rng.Range(2, 5))
		}
		calls = append(calls, Call{Callee: refLib, Targets: uint32(b.rng.Uint64()), Prob: b.prob(), Repeat: rep})
	}
	if withCold && b.cfg.ColdTrees > 0 && b.rng.Bool(0.8) {
		calls = append(calls, Call{Callee: refCold, Targets: uint32(b.rng.Uint64()), Prob: 0, Repeat: 1})
	}
	return calls
}

// setCalls finalises a function's call list: appends the sites to
// Program.Calls, sizes the function to fit, and assigns instruction-
// aligned offsets. Each function's calls are finalised exactly once;
// later additions go through addCall.
func (b *builder) setCalls(id isa.FuncID, calls []Call) {
	first := len(b.prog.Calls)
	b.prog.Calls = append(b.prog.Calls, calls...)
	b.endCalls(id, first)
}

// endCalls is setCalls for sites already appended to Program.Calls:
// those from index first to the end are function id's.
func (b *builder) endCalls(id isa.FuncID, first int) {
	f := &b.prog.Funcs[id]
	f.FirstCall, f.NumCalls = uint32(first), uint32(len(b.prog.Calls)-first)
	need := (f.NumCalls + 3) * 4 * isa.InstrSize
	if f.Size < need {
		f.Size = need
	}
	AssignCallOffsets(b.prog.FuncSeed(id), f.Size, b.prog.CallsOf(id))
}

// packCalls rewrites Program.Calls in function-ID order at its exact
// length. Generation appends each function's sites when they are
// finalised, which is not ID order, and addCall leaves moved sites
// behind.
func (b *builder) packCalls() {
	p := b.prog
	n := 0
	for i := range p.Funcs {
		n += int(p.Funcs[i].NumCalls)
	}
	calls := make([]Call, 0, n)
	for i := range p.Funcs {
		f := &p.Funcs[i]
		start := uint32(len(calls))
		calls = append(calls, p.CallsOf(isa.FuncID(i))...)
		f.FirstCall = start
	}
	p.Calls = calls
}

// AssignCallOffsets deterministically places call sites within a function
// body: sites are spread across the usable range in order, with seeded
// jitter. Each site owns a CallRegionBytes region (guard branch, call,
// repeat backedge); regions never overlap each other, the prologue, or
// the return slot. Exported for the body builder and tests, which must
// agree with the linker on call-instruction addresses.
func AssignCallOffsets(seed uint64, size uint32, calls []Call) {
	n := len(calls)
	if n == 0 {
		return
	}
	s := xrand.Mix(seed, 0x0FF5)
	lo := uint32(isa.InstrSize)                  // after prologue
	hi := size - isa.InstrSize - CallRegionBytes // region fits before return slot
	span := hi - lo
	slot := span / uint32(n)
	prev := int64(lo) - int64(CallRegionBytes)
	for i := range calls {
		base := lo + uint32(i)*slot
		maxJitter := uint64(slot / 2)
		if maxJitter < isa.InstrSize {
			maxJitter = isa.InstrSize
		}
		jitter := uint32(xrand.SplitMix64(&s) % maxJitter)
		off := (base + jitter) &^ (isa.InstrSize - 1)
		if int64(off) < prev+CallRegionBytes {
			off = uint32(prev) + CallRegionBytes
		}
		if off > hi {
			off = hi
		}
		calls[i].Off = off
		prev = int64(off)
	}
}

// poolFuncs returns how many functions the pools add after the hot
// structure: buildColdTree(n) creates max(n, 1) functions, the library
// pool LibFuncs and the orphan trees OrphanFuncs in total.
func (c *Config) poolFuncs() int {
	return max(c.ColdTrees, 0)*max(c.ColdTreeFuncs, 1) + max(c.LibFuncs, 0) + max(c.OrphanFuncs, 0)
}

// poolCalls bounds the call-array entries the pools take: a tree edge
// into every pool function but a tree root, at most two calls per
// library, and per orphan tree the five calls buildOrphans adds plus
// the root's and one interior node's sites (at most six each), which
// addCall moves to the end of the array.
func (c *Config) poolCalls() int {
	treeSize := max(c.OrphanTreeFuncs, 2)
	orphanTrees := (max(c.OrphanFuncs, 0) + treeSize - 1) / treeSize
	return c.poolFuncs() + max(c.LibFuncs, 0) + 17*orphanTrees
}

// buildColdAndLibs creates the shared cold subtrees and the library pool.
func (b *builder) buildColdAndLibs() {
	cfg := b.cfg
	// The pools are the bulk of a large program and their size is known
	// exactly, so the function table grows once here instead of being
	// copied at every doubling; so does the call array.
	b.prog.Funcs = slices.Grow(b.prog.Funcs, cfg.poolFuncs())
	b.prog.Calls = slices.Grow(b.prog.Calls, cfg.poolCalls())
	// Cold subtrees: high fan-out trees of never-executed code. Their
	// internal structure deliberately contains its own divergence
	// points so that static Bundle identification, exactly like on a
	// real binary, marks entries in code that never runs.
	for t := 0; t < cfg.ColdTrees; t++ {
		root := b.buildColdTree(cfg.ColdTreeFuncs)
		b.colds = append(b.colds, root)
	}
	// Library pool: flat-ish, occasionally calling deeper libraries.
	start := len(b.prog.Funcs)
	for i := 0; i < cfg.LibFuncs; i++ {
		b.libs = append(b.libs, b.newFunc(KindLib, NoStage, b.funcSize(2)))
	}
	for i := 0; i < cfg.LibFuncs; i++ {
		first := len(b.prog.Calls)
		// Libraries call strictly deeper libraries, keeping the edge
		// layering acyclic for dynamic execution.
		remaining := cfg.LibFuncs - i - 1
		if remaining > 0 && b.rng.Bool(0.35) {
			n := 1
			if remaining > 1 && b.rng.Bool(0.3) {
				n = 2
			}
			for j := 0; j < n; j++ {
				callee := isa.FuncID(start + i + 1 + b.rng.IntN(remaining))
				b.prog.Calls = append(b.prog.Calls, Call{Callee: callee, Prob: b.prob(), Repeat: 1})
			}
		}
		b.endCalls(isa.FuncID(start+i), first)
	}
}

// buildColdTree creates one never-executed subtree and returns its root.
func (b *builder) buildColdTree(n int) isa.FuncID {
	root := b.newFunc(KindCold, NoStage, b.funcSize(6))
	ids := []isa.FuncID{root}
	// Breadth-first expansion: every parent is finalised exactly once.
	for next := 0; len(ids) < n; next++ {
		parent := ids[next]
		fanout := b.rng.Range(2, 6)
		first := len(b.prog.Calls)
		for i := 0; i < fanout && len(ids) < n; i++ {
			child := b.newFunc(KindCold, NoStage, b.funcSize(2))
			ids = append(ids, child)
			b.prog.Calls = append(b.prog.Calls, Call{Callee: child, Prob: 0, Repeat: 1})
		}
		b.endCalls(parent, first)
	}
	return root
}

// patchPoolRefs rewrites the placeholder library/cold references created
// during hot-structure generation into real pool FuncIDs, chosen with
// per-caller locality (each hot function repeatedly uses the same small
// library working set, like real code does).
func (b *builder) patchPoolRefs() {
	for i := range b.prog.Funcs {
		seed := b.prog.FuncSeed(isa.FuncID(i))
		calls := b.prog.CallsOf(isa.FuncID(i))
		for j := range calls {
			c := &calls[j]
			switch c.Callee {
			case refLib:
				if len(b.libs) == 0 {
					c.Callee = isa.FuncID(i) // degenerate: drop to self-free no-op below
					c.Prob = 0
					continue
				}
				// Locality: hash the caller with the placeholder salt
				// so the same caller always picks the same libraries.
				h := xrand.Mix(seed, uint64(c.Targets))
				c.Callee = b.libs[h%uint64(len(b.libs))]
				c.Targets = 0
			case refCold:
				if len(b.colds) == 0 {
					c.Prob = 0
					c.Callee = isa.FuncID(i)
					continue
				}
				h := xrand.Mix(seed, uint64(c.Targets), 0xC01D)
				c.Callee = b.colds[h%uint64(len(b.colds))]
				c.Targets = 0
			}
		}
	}
}

// buildOrphans creates separate static call-graph roots: registered but
// never-invoked code that pads the binary like real library surface.
// Orphan trees link into the big shared cold trees the way all code in a
// real binary statically reaches the language runtime: that shared mass
// pushes their reachable sizes past the Bundle threshold, so the static
// analysis finds entry points inside never-executed code too — the
// paper's 2-6% static-bundle fractions come mostly from such code.
func (b *builder) buildOrphans() {
	remaining := b.cfg.OrphanFuncs
	treeSize := b.cfg.OrphanTreeFuncs
	if treeSize < 2 {
		treeSize = 2
	}
	for remaining > 0 {
		n := treeSize
		if n > remaining {
			n = remaining
		}
		root := b.buildColdTree(n)
		if len(b.colds) > 0 {
			// The root reaches several shared cold trees (as all real
			// code statically reaches the language runtime) and one
			// interior node reaches a different subset, creating
			// genuine static divergences inside never-executed code.
			for i := 0; i < 3; i++ {
				c := b.colds[b.rng.IntN(len(b.colds))]
				b.addCall(root, Call{Callee: c, Prob: 0, Repeat: 1})
			}
			interior := root + isa.FuncID(1+b.rng.IntN(n))
			if int(interior) < len(b.prog.Funcs) {
				for i := 0; i < 2; i++ {
					c := b.colds[b.rng.IntN(len(b.colds))]
					b.addCall(interior, Call{Callee: c, Prob: 0, Repeat: 1})
				}
			}
		}
		remaining -= n
	}
}

// fixedProb converts a probability to the fixed-point call encoding.
func fixedProb(p float64) uint16 { return uint16(p * probScale) }
