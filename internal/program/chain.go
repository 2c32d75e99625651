package program

import (
	"fmt"

	"hprefetch/internal/isa"
	"hprefetch/internal/xrand"
)

// ChainConfig parameterises the microservice chain generator: a tree of
// per-service code regions connected by RPC-style handoff edges. Each
// service is materialised as its own pipeline stage — a distinct
// instruction footprint (common helper tree plus per-request-type
// handler subtrees) entered through one stage function — and every
// request walks the whole service tree, so Stage() transitions mark the
// RPC hops. Unlike the monolithic Config pipeline, where the root calls
// every stage in sequence, chain services nest: the root calls only the
// frontend service and each service calls its children, which is what
// gives chained requests their depth-proportional footprint churn.
type ChainConfig struct {
	// Base supplies everything except the pipeline shape: pools, sizes,
	// probabilities, request mix, Name and Seed. Base.Stages is ignored
	// (the chain synthesises one stage per service).
	Base Config
	// Depth is the number of services along each root-to-leaf path (>= 1).
	Depth int
	// Fanout is how many downstream services each non-leaf service
	// calls (>= 1; 1 yields a linear chain).
	Fanout int
	// ServiceCommonFuncs sizes each service's request-independent helper
	// tree (functions).
	ServiceCommonFuncs int
	// ServiceHandlerFuncs sizes each per-request-type handler subtree
	// within a service (functions).
	ServiceHandlerFuncs int
}

// maxChainServices bounds the service tree (stages are int16-indexed and
// every service multiplies the hot footprint).
const maxChainServices = 64

// Services returns the total service count of the configured tree.
func (c *ChainConfig) Services() int {
	if c.Depth < 1 || c.Fanout < 1 {
		return 0
	}
	if c.Fanout == 1 {
		return c.Depth
	}
	n, layer := 0, 1
	for d := 0; d < c.Depth; d++ {
		n += layer
		if n > maxChainServices {
			return n
		}
		layer *= c.Fanout
	}
	return n
}

// Validate reports the first chain-configuration problem found, or nil.
func (c *ChainConfig) Validate() error {
	switch {
	case c.Depth < 1:
		return fmt.Errorf("program %s: chain depth must be >= 1", c.Base.Name)
	case c.Fanout < 1:
		return fmt.Errorf("program %s: chain fanout must be >= 1", c.Base.Name)
	case c.ServiceCommonFuncs < 1:
		return fmt.Errorf("program %s: ServiceCommonFuncs must be >= 1", c.Base.Name)
	case c.ServiceHandlerFuncs < 1:
		return fmt.Errorf("program %s: ServiceHandlerFuncs must be >= 1", c.Base.Name)
	}
	if n := c.Services(); n > maxChainServices {
		return fmt.Errorf("program %s: chain of depth %d fanout %d needs %d services (max %d)",
			c.Base.Name, c.Depth, c.Fanout, n, maxChainServices)
	}
	return nil
}

// GenerateChain builds the synthetic microservice application described
// by c. The result is unlinked, exactly like Generate's, and reuses the
// same pools (libraries, cold trees, orphans), so every downstream
// consumer — linker, Bundle analysis, loader, engine — works unchanged.
func GenerateChain(c ChainConfig) (*Program, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	cfg := c.Base
	// One synthesised stage per service, breadth-first: the stage index
	// IS the service id, so Stage() samples identify the running service.
	n := c.Services()
	cfg.Stages = make([]StageSpec, n)
	for i := range cfg.Stages {
		cfg.Stages[i] = StageSpec{
			Name:         fmt.Sprintf("svc%02d", i),
			Diverges:     true,
			CommonFuncs:  c.ServiceCommonFuncs,
			HandlerFuncs: c.ServiceHandlerFuncs,
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &builder{
		cfg: &cfg,
		rng: xrand.New(xrand.Mix(cfg.Seed, 0xC4A1)),
		prog: &Program{
			Name:         cfg.Name,
			Seed:         cfg.Seed,
			RequestTypes: cfg.RequestTypes,
		},
	}
	b.prog.TypeWeights = xrand.ZipfWeights(cfg.RequestTypes, cfg.TypeZipf)
	b.buildChainHot(&c)
	b.buildColdAndLibs()
	b.patchPoolRefs()
	b.buildOrphans()
	b.packCalls()
	return b.prog, nil
}

// buildChainHot creates the root, every service entry, and each
// service's body. All entries are created first, in breadth-first
// order, so every RPC edge (parent entry -> child entry) and every body
// edge (entry -> trees created later) respects the caller<callee ID
// layering dynamic execution requires.
func (b *builder) buildChainHot(c *ChainConfig) {
	root := b.newFunc(KindRoot, NoStage, 256)
	b.prog.Entry = root

	n := len(b.cfg.Stages)
	entries := make([]isa.FuncID, n)
	for i := range entries {
		entries[i] = b.newFunc(KindStage, int16(i), b.funcSize(6))
		b.prog.Stages = append(b.prog.Stages, Stage{
			Name:     b.cfg.Stages[i].Name,
			Func:     entries[i],
			Diverges: true,
		})
	}
	// The request loop calls only the frontend service; everything else
	// is reached through RPC handoff.
	b.setCalls(root, []Call{{Callee: entries[0], Prob: fixedProb(0.995), Repeat: 1}})

	for i := range entries {
		b.buildService(c, i, entries)
	}
}

// buildService populates service idx: its common helper tree, the
// per-type handler dispatch, and the RPC edges to its children in the
// breadth-first service tree.
func (b *builder) buildService(c *ChainConfig, idx int, entries []isa.FuncID) {
	var calls []Call

	commonRoot := b.buildTree(KindHelper, int16(idx), c.ServiceCommonFuncs, 0.97)
	calls = append(calls, Call{Callee: commonRoot, Prob: fixedProb(0.99), Repeat: 1})

	handlers := make([]isa.FuncID, b.cfg.RequestTypes)
	for t := range handlers {
		handlers[t] = b.buildTree(KindHandler, int16(idx), c.ServiceHandlerFuncs, 0)
	}
	b.prog.Stages[idx].Handlers = handlers
	tsIdx := uint32(len(b.prog.TargetSets))
	b.prog.TargetSets = append(b.prog.TargetSets, TargetSet{ByType: true, Funcs: handlers})
	calls = append(calls, Call{Callee: isa.NoFunc, Targets: tsIdx, Prob: fixedProb(0.995), Repeat: 1})
	b.crossLink(handlers)

	// RPC handoff: near-certain calls to each child service, so every
	// request walks the full tree and the instruction stream hops
	// between service footprints mid-request.
	for j := idx*c.Fanout + 1; j <= idx*c.Fanout+c.Fanout && j < len(entries); j++ {
		calls = append(calls, Call{Callee: entries[j], Prob: fixedProb(0.995), Repeat: 1})
	}

	calls = b.addPoolRefs(calls, true)
	b.setCalls(entries[idx], calls)
}
