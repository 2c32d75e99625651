package sim

import (
	"fmt"

	"hprefetch/internal/bpu"
	"hprefetch/internal/cache"
	"hprefetch/internal/freelist"
	"hprefetch/internal/isa"
)

// tableShape is the sizing of a machine's fixed storage. Two machines
// whose Params give the same shape can use the same tableSet.
type tableShape struct {
	l1iSets, l1iWays   int
	l2Sets, l2Ways     int
	llcSets, llcWays   int
	itlbSets, itlbWays int
	mshrs              int
	bp                 bpu.Config
	pfQueue            int
	window             int
}

func shapeOf(prm *Params) tableShape {
	return tableShape{
		l1iSets: prm.L1ISets, l1iWays: prm.L1IWays,
		l2Sets: prm.L2Sets, l2Ways: prm.L2Ways,
		llcSets: prm.LLCSets, llcWays: prm.LLCWays,
		itlbSets: prm.ITLBEntries / prm.ITLBWays, itlbWays: prm.ITLBWays,
		mshrs:   prm.MSHRs,
		bp:      prm.BP,
		pfQueue: max(prm.PFQueueEntries, 0),
		window:  prm.FTQEntries + windowChunk,
	}
}

// tableSet is a machine's fixed-size storage: about 1.35 MB of cache,
// TLB and predictor tables at DefaultParams, which a short run would
// otherwise spend much of its time allocating and zeroing. Released
// machines return their set to tablePool and New reuses it, reset, for
// the next machine of the same shape.
type tableSet struct {
	shape              tableShape
	l1i, l2, llc, itlb *cache.Table
	mshr               *cache.MSHRFile
	bp                 *bpu.Unit
	specRAS, archRAS   *bpu.RAS
	pfQueue            []pfReq
	histBlocks         []isa.Block
	histTimes          []uint64
	reqStall           map[uint64]uint64
	buf                window
}

// tablePool holds the sets of released machines. A set of another
// shape than the one asked for is dropped, not kept.
var tablePool freelist.List[*tableSet]

// getTables returns a set shaped for prm: the most recently released
// one, reset, when it has that shape, or a new one.
func getTables(prm *Params) (*tableSet, error) {
	shape := shapeOf(prm)
	if t, ok := tablePool.Get(); ok && t.shape == shape {
		t.reset()
		return t, nil
	}
	return newTables(shape)
}

func newTables(s tableShape) (*tableSet, error) {
	t := &tableSet{shape: s}
	var err error
	for _, c := range []struct {
		tab **cache.Table
		cfg cache.Config
	}{
		{&t.l1i, cache.Config{Name: "L1I", Sets: s.l1iSets, Ways: s.l1iWays}},
		{&t.l2, cache.Config{Name: "L2", Sets: s.l2Sets, Ways: s.l2Ways}},
		{&t.llc, cache.Config{Name: "LLC", Sets: s.llcSets, Ways: s.llcWays}},
		{&t.itlb, cache.Config{Name: "ITLB", Sets: s.itlbSets, Ways: s.itlbWays}},
	} {
		if *c.tab, err = cache.New(c.cfg); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	t.mshr = cache.NewMSHRFile(s.mshrs)
	t.bp = bpu.New(s.bp)
	t.specRAS = bpu.NewRAS(s.bp.RASDepth)
	t.archRAS = bpu.NewRAS(s.bp.RASDepth)
	t.pfQueue = make([]pfReq, s.pfQueue)
	t.histBlocks = make([]isa.Block, historyLen)
	t.histTimes = make([]uint64, historyLen)
	t.reqStall = make(map[uint64]uint64)
	t.buf = window{
		ev:   make([]isa.BlockEvent, s.window),
		req:  make([]uint64, s.window),
		done: make([]bool, s.window),
		reqs: make([]uint64, s.window),
	}
	return t, nil
}

// reset returns every structure to the state newTables builds it in.
// The prefetch queue, the history ring and the window buffer keep stale
// entries: a machine reads only what it wrote to them itself.
func (t *tableSet) reset() {
	t.l1i.Reset()
	t.l2.Reset()
	t.llc.Reset()
	t.itlb.Reset()
	t.mshr.Reset()
	t.bp.Reset()
	t.specRAS.Reset()
	t.archRAS.Reset()
	clear(t.reqStall)
}

// Release returns the machine's tables to a pool that New draws on, so
// the next machine of the same shape reuses them instead of allocating
// its own. Call it once the machine's statistics have been read (Stats
// stays valid after Release) and nothing will call the machine again;
// releasing a released machine does nothing. The machine keeps no
// reference to its tables, so a Run after Release panics.
func (m *Machine) Release() {
	if m.tables == nil {
		return
	}
	tablePool.Put(m.tables)
	m.tables = nil
	m.bp, m.specRAS, m.archRAS = nil, nil, nil
	m.l1i, m.l2, m.llc, m.itlb, m.mshr = nil, nil, nil, nil, nil
	m.pfQueue, m.histBlocks, m.histTimes, m.reqStall = nil, nil, nil, nil
	m.win, m.buf = window{}, window{}
}
