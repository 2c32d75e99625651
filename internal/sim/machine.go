package sim

import (
	"context"
	"errors"
	"fmt"

	"hprefetch/internal/bpu"
	"hprefetch/internal/cache"
	"hprefetch/internal/fault"
	"hprefetch/internal/isa"
	"hprefetch/internal/prefetch"
)

// blockKind classifies why the prediction cursor stopped.
type blockKind uint8

const (
	notBlocked blockKind = iota
	blockMispredict
	blockBTBMiss
	blockIndirect
	blockRAS
)

// historyLen sizes the retired-block history used for latency-aware
// trigger selection (EIP's training input).
const historyLen = 512

// pfReq is a queued evaluated-prefetcher request.
type pfReq struct {
	block isa.Block
	seq   uint64 // blockSeq at request (trigger) time
}

// Machine is one simulated core: execution engine, decoupled front-end,
// instruction-side memory hierarchy, and an optional prefetcher under
// evaluation.
type Machine struct {
	prm Params
	src EventSource
	bp  *bpu.Unit
	pf  prefetch.Prefetcher
	st  *Stats

	// inj is the optional fault injector perturbing prefetch issue,
	// fill latency and MSHR availability; nil injects nothing.
	inj *fault.Injector
	// err latches the first internal failure (e.g. MSHR bookkeeping
	// drift); Run stops and returns it instead of panicking.
	err error
	// ctx, when non-nil, is polled every ctxCheckInterval retired events;
	// cancellation or deadline expiry stops Run cleanly with the
	// context's error. Statistics up to the stop stay valid.
	ctx context.Context

	specHist, archHist bpu.History
	specRAS, archRAS   *bpu.RAS
	specSynced         bool

	l1i, l2, llc, itlb *cache.Table
	mshr               *cache.MSHRFile
	// tables owns the storage above and below (New takes it from the
	// pool, Release gives it back); nil once the machine is released.
	tables *tableSet

	// Two clocks: `now` is the front-end clock (fetch throughput plus
	// exposed front-end stalls) — it times prefetch issue, fills and
	// demand accesses, so FDIP's lookahead is bounded by real fetch
	// time, not by back-end execution. `backendExtra` accumulates the
	// back-end's base CPI contribution; total runtime for IPC is the
	// sum (a serialised first-order model of a front-end-bound core).
	now          uint64 // scaled front-end cycles
	backendExtra uint64
	statsBase    uint64 // total time at the last ResetStats
	cursorClock  uint64 // prediction bandwidth: 1 fetch region per cycle
	blockSeq     uint64
	lastBlock    isa.Block
	haveLast     bool
	nextPFSlot   uint64
	missLatEst   uint64

	// The cursor's last FDIP probe (see probeFDIP): its block, whether it
	// left the block resident, and the L1-I's Removals count after it.
	probeBlk      isa.Block
	probeHeld     bool
	probeRemovals uint64

	// fetchScale is the scaled front-end time to fetch one instruction,
	// CycleScale/FetchWidth (New rejects widths that leave a remainder).
	fetchScale uint64

	// Lookahead window over the event stream: win.ev[bpos:] are events
	// taken from the source but not yet fetched, and the first predOff
	// of them are in the FTQ (the cursor has passed them). bpull is the
	// pull high-water, one past the furthest event either cursor has
	// looked at, and reqBase the source's Requests count before
	// win.ev[0]; together they make Stats.Requests count the requests
	// started up to the high-water, however far ahead the source
	// filled. A batch source's window aliases its decoded storage; any
	// other source fills buf, which the machine owns.
	win     window
	buf     window
	bpos    int
	bpull   int
	reqBase uint64
	predOff int
	blocked blockKind
	scratch isa.BlockEvent // fault-injection copy, so flips never touch the window

	// Per-request stall attribution: curReq/curDone are the marks of
	// the event being fetched; reqStall accumulates each in-flight
	// request's exposed fetch stall. The map deliberately survives
	// ResetStats so a request spanning the warmup/measure boundary
	// completes with its full stall.
	curReq   uint64
	curDone  bool
	reqStall map[uint64]uint64

	// srcErr is the source's optional Err method, resolved once at
	// construction so the run loop's exhaustion path never type-asserts.
	srcErr func() error

	// Evaluated-prefetcher request queue, a ring of PFQueueEntries:
	// requests park here when the MSHR file is full and drain as fills
	// complete. Each remembers the block sequence at request time (the
	// paper measures prefetch distance from the trigger, not from
	// eventual issue).
	pfQueue []pfReq
	pfHead  int
	pfLen   int

	// LateHook, when set, is called on every late demand fill with the
	// block, the origin of the in-flight request, and the serving
	// level. It exists for diagnostics and tests only.
	LateHook func(blk isa.Block, origin cache.Origin, level uint8)

	// Retired-block history ring (monotonic times).
	histBlocks []isa.Block
	histTimes  []uint64
	histLen    int
	histHead   int
}

// window is the machine's lookahead storage in struct-of-arrays form:
// the events, each event's request id and request-done flip, and the
// source's Requests count after each event.
type window struct {
	ev   []isa.BlockEvent
	req  []uint64
	done []bool
	reqs []uint64
}

// defaultWindowChunk is how many events a filling source writes per
// refill, picked by a sweep of live FDIP runs (EXPERIMENTS.md): from 256
// on, the refill's slide of at most FTQEntries events and its interface
// call no longer show per event, while from 2048 on the window (57
// bytes per event) starts to crowd the host's L2. At 256 it takes about
// 16 KB per machine.
const defaultWindowChunk = 256

// windowChunk is defaultWindowChunk; it is a variable only so tests
// can shrink the window and put a refill at every lookahead position.
var windowChunk = defaultWindowChunk

// New builds a machine over any event source — the live engine, a
// trace-file reader, or a recorder teeing one to disk. pf may be nil
// (FDIP-only baseline). Its tables come reset from a released machine
// of the same shape when there is one; Release the machine when done
// with it so the next one can.
func New(prm Params, src EventSource, pf prefetch.Prefetcher) (*Machine, error) {
	if prm.FetchWidth <= 0 || CycleScale%prm.FetchWidth != 0 {
		return nil, fmt.Errorf("sim: fetch width %d must divide %d", prm.FetchWidth, CycleScale)
	}
	if prm.FTQEntries <= 0 {
		return nil, fmt.Errorf("sim: FTQ must have at least one entry")
	}
	if prm.PrefetchPerCycle <= 0 {
		return nil, fmt.Errorf("sim: prefetch bandwidth must be positive")
	}
	if prm.MSHRs <= 0 {
		return nil, fmt.Errorf("sim: MSHR file must have at least one entry")
	}
	if prm.ITLBWays <= 0 || prm.ITLBEntries%prm.ITLBWays != 0 {
		return nil, fmt.Errorf("sim: ITLB %d entries not divisible into %d ways", prm.ITLBEntries, prm.ITLBWays)
	}
	t, err := getTables(&prm)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		prm:        prm,
		src:        src,
		bp:         t.bp,
		pf:         pf,
		st:         NewStats(),
		specRAS:    t.specRAS,
		archRAS:    t.archRAS,
		l1i:        t.l1i,
		l2:         t.l2,
		llc:        t.llc,
		itlb:       t.itlb,
		mshr:       t.mshr,
		tables:     t,
		missLatEst: prm.LLCLatency * CycleScale,
		fetchScale: CycleScale / uint64(prm.FetchWidth),
		reqBase:    src.Requests(),
		reqStall:   t.reqStall,
		pfQueue:    t.pfQueue,
		histBlocks: t.histBlocks,
		histTimes:  t.histTimes,
	}
	if es, ok := src.(interface{ Err() error }); ok {
		m.srcErr = es.Err
	}
	if bs, ok := src.(BatchSource); ok {
		m.win.ev, m.win.req, m.win.done, m.win.reqs = bs.Batch()
	} else {
		m.buf = t.buf
	}
	return m, nil
}

// Stats returns the current statistics.
func (m *Machine) Stats() *Stats { return m.st }

// SetPrefetcher attaches the prefetcher under evaluation. Prefetchers
// need the machine at construction time, so the usual sequence is
// New(prm, eng, nil) followed by SetPrefetcher.
func (m *Machine) SetPrefetcher(pf prefetch.Prefetcher) { m.pf = pf }

// SetFaults attaches a fault injector (nil detaches). The injector is
// deliberately kept out of Params so machine configuration stays a
// plain comparable value.
func (m *Machine) SetFaults(inj *fault.Injector) { m.inj = inj }

// Err returns the first internal failure latched by the machine, if
// any. Run also returns it.
func (m *Machine) Err() error { return m.err }

// ctxCheckInterval is how many fetch iterations pass between context
// polls during Run. Checking every iteration would put an atomic load on
// the simulator's hottest loop; at ~10M simulated instructions/second a
// few thousand iterations keeps cancellation latency well under a
// millisecond.
const ctxCheckInterval = 4096

// SetContext attaches a context to the machine. Run polls it
// periodically and stops with ctx.Err() once it is cancelled or its
// deadline passes (nil detaches, the default). The machine itself stays
// valid — only the caller's patience ran out, not the simulation.
func (m *Machine) SetContext(ctx context.Context) { m.ctx = ctx }

// fail latches the first internal error; Run surfaces it.
func (m *Machine) fail(err error) {
	if m.err == nil {
		m.err = err
	}
}

// Params returns the machine configuration.
func (m *Machine) Params() Params { return m.prm }

// ResetStats discards statistics while keeping all warmed-up state
// (caches, predictors, prefetcher metadata) — the paper's warmup/measure
// protocol.
func (m *Machine) ResetStats() {
	m.st = NewStats()
	m.statsBase = m.now + m.backendExtra
	m.l1i.Hits, m.l1i.Misses = 0, 0
	m.l2.Hits, m.l2.Misses = 0, 0
	m.llc.Hits, m.llc.Misses = 0, 0
	m.itlb.Hits, m.itlb.Misses = 0, 0
}

// Run simulates until at least n more instructions have retired. It
// stops early and reports the failure if the machine's internal
// bookkeeping ever breaks (statistics up to that point stay valid).
func (m *Machine) Run(n uint64) error {
	m.mustHoldTables()
	target := m.st.Instructions + n
	startReq := m.pulledRequests()
	var ctxErr error
	var steps uint64
	for m.st.Instructions < target && m.err == nil {
		if m.ctx != nil && steps%ctxCheckInterval == 0 {
			if ctxErr = m.ctx.Err(); ctxErr != nil {
				break
			}
		}
		steps++
		m.advanceCursor()
		if m.err != nil {
			break
		}
		// Pop the oldest event.
		if m.bpos >= len(m.win.ev) && !m.refill() {
			break
		}
		if m.bpos+1 > m.bpull {
			m.bpull = m.bpos + 1
		}
		ev := &m.win.ev[m.bpos]
		m.curReq = m.win.req[m.bpos]
		m.curDone = m.win.done[m.bpos]
		m.bpos++
		wasInFTQ := false
		if m.predOff > 0 {
			m.predOff--
			wasInFTQ = true
		}
		if m.inj != nil {
			// fetch may flip the Tagged bit under fault injection; give
			// it a scratch copy so the window (possibly a shared decoded
			// trace) stays intact.
			m.scratch = *ev
			ev = &m.scratch
		}
		m.fetch(ev, wasInFTQ)
	}
	m.st.Requests += m.pulledRequests() - startReq
	m.st.ScaledCycles = m.now + m.backendExtra - m.statsBase
	if m.err != nil {
		return m.err
	}
	return ctxErr
}

// mustHoldTables panics on a released machine, whose tables may belong
// to another machine by now.
func (m *Machine) mustHoldTables() {
	if m.tables == nil {
		panic("sim: machine used after Release")
	}
}

// pulledRequests is the source's Requests count at the pull high-water.
func (m *Machine) pulledRequests() uint64 {
	if m.bpull == 0 {
		return m.reqBase
	}
	return m.win.reqs[m.bpull-1]
}

// Unpulled returns how many events the window holds beyond the pull
// high-water: events the source filled ahead that neither cursor has
// looked at. A tee (tracefile.Recorder) ends its recording that many
// events short of what it delivered, where the pulled stream ends.
func (m *Machine) Unpulled() int { return len(m.win.ev) - m.bpull }

// refill slides the unfetched tail of the window (the FTQ, at most
// FTQEntries events) to the front of the machine's buffer and has the
// source fill the rest. It reports false, with the end-of-stream error
// latched, once the source has nothing more; a batch source's single
// window never refills.
func (m *Machine) refill() bool {
	if m.buf.ev == nil {
		m.dry()
		return false
	}
	if m.bpos > 0 {
		m.reqBase = m.win.reqs[m.bpos-1]
	}
	w, b := m.win, m.buf
	tail := copy(b.ev, w.ev[m.bpos:])
	copy(b.req, w.req[m.bpos:])
	copy(b.done, w.done[m.bpos:])
	copy(b.reqs, w.reqs[m.bpos:])
	end := tail + m.src.Fill(b.ev[tail:], b.req[tail:], b.done[tail:], b.reqs[tail:])
	m.win = window{ev: b.ev[:end], req: b.req[:end], done: b.done[:end], reqs: b.reqs[:end]}
	m.bpull -= m.bpos
	m.bpos = 0
	if end == tail {
		m.dry()
		return false
	}
	return true
}

// advanceCursor runs the prediction cursor ahead of fetch, enqueuing
// fetch regions into the FTQ (each enqueue is an FDIP prefetch) until the
// FTQ fills, a prediction fails, or a taken branch is invisible to the
// BTB — the fundamental FDIP lookahead limits (§2.1).
func (m *Machine) advanceCursor() {
	for m.blocked == notBlocked && m.predOff < m.prm.FTQEntries {
		if !m.specSynced {
			m.specHist = m.archHist
			m.specRAS.CopyFrom(m.archRAS)
			m.specSynced = true
		}
		i := m.bpos + m.predOff
		if i >= len(m.win.ev) {
			if !m.refill() {
				return
			}
			i = m.predOff
		}
		if i+1 > m.bpull {
			m.bpull = i + 1
		}
		ev := &m.win.ev[i]
		m.predOff++
		// The branch predictor produces one fetch region per cycle;
		// FTQ refill after a flush is not instantaneous.
		if m.cursorClock < m.now {
			m.cursorClock = m.now
		}
		m.cursorClock += CycleScale
		if !m.prm.DisableFDIP && !m.prm.PerfectL1I {
			m.probeFDIP(ev.Block())
		}
		m.blocked = m.predictSpec(ev)
	}
}

// probeFDIP is the prediction cursor's fill request for blk. Events often
// repeat the block before them. A block the cursor's last probe left in
// the L1-I or an MSHR is still there while the L1-I has lost no line,
// since an MSHR entry leaves only by installing into the L1-I; probing it
// again would change nothing, so that probe is skipped.
func (m *Machine) probeFDIP(blk isa.Block) {
	if m.probeHeld && blk == m.probeBlk && m.l1i.Removals() == m.probeRemovals {
		return
	}
	r := m.issueFill(blk, cache.OriginFDIP, m.cursorClock)
	if r == fillIssued {
		m.st.FDIPIssued++
	}
	m.probeBlk, m.probeHeld, m.probeRemovals = blk, r != fillDropped, m.l1i.Removals()
}

// dry latches the end-of-stream error, marking the whole window pulled
// (the stream was read to its end).
func (m *Machine) dry() {
	m.bpos = len(m.win.ev)
	m.bpull = len(m.win.ev)
	cause := errors.New("event source ran dry")
	if m.srcErr != nil {
		if err := m.srcErr(); err != nil {
			cause = err
		}
	}
	m.fail(fmt.Errorf("sim: event stream ended after %d instructions: %w",
		m.src.Instructions(), cause))
}

// SkipFunctional advances the stream by at least n instructions without
// timed simulation: every skipped event trains the architectural
// predictors (BTB, direction, indirect, RAS) and functionally touches
// the instruction-side hierarchy (ITLB, L1I, L2, LLC with LRU updates),
// but no cycles, stalls, fills-in-flight, or per-request attribution
// accrue. Interval (SMARTS-style) sampling alternates SkipFunctional
// with short timed Run sections; the warm microarchitectural state
// carries across the skip so each measured interval starts plausibly.
// Speculative front-end state is squashed and in-flight fills retire
// instantly at entry; statistics touched during a skip are garbage and
// callers are expected to ResetStats (after a detailed re-warm) before
// measuring. It returns the latched source-exhaustion error, if any.
func (m *Machine) SkipFunctional(n uint64) error {
	m.mustHoldTables()
	if m.err != nil {
		return m.err
	}
	m.predOff = 0
	m.blocked = notBlocked
	m.specSynced = false
	m.mshr.Drain(^uint64(0), func(e *cache.MSHR) {
		m.installL1I(e.Block, e.Origin, e.IssueSeq, false, false)
	})
	m.pfLen = 0
	// Requests in flight across a skip lose their stall attribution;
	// dropping them beats mis-charging a later interval.
	clear(m.reqStall)
	var done uint64
	for done < n {
		if m.bpos >= len(m.win.ev) && !m.refill() {
			return m.err
		}
		if m.bpos+1 > m.bpull {
			m.bpull = m.bpos + 1
		}
		ev := &m.win.ev[m.bpos]
		m.bpos++
		done += uint64(ev.NumInstr)
		m.warmEvent(ev)
	}
	return nil
}

// warmEvent functionally touches the instruction-side hierarchy and
// trains the architectural predictors for one skipped event.
func (m *Machine) warmEvent(ev *isa.BlockEvent) {
	blk := ev.Block()
	if !m.haveLast || blk != m.lastBlock {
		m.lastBlock = blk
		m.haveLast = true
		m.blockSeq++
		page := uint64(blk.Page())
		if _, hit := m.itlb.Lookup(page); !hit {
			m.itlb.Insert(page, cache.LineMeta{})
		}
		key := uint64(blk)
		if _, hit := m.l1i.Lookup(key); !hit {
			if _, h2 := m.l2.Lookup(key); !h2 {
				if _, h3 := m.llc.Lookup(key); !h3 {
					m.llc.Insert(key, cache.LineMeta{Origin: cache.OriginDemand})
				}
				m.l2Fill(key, cache.LineMeta{Origin: cache.OriginDemand})
			}
			m.l1i.Insert(key, cache.LineMeta{Origin: cache.OriginDemand, Used: true})
		}
	}
	m.trainArch(ev)
}

// predictSpec evaluates whether the front-end can follow ev's terminator,
// updating speculative history/RAS along the predicted (== actual, when
// correct) path. It returns the blocking kind on failure.
func (m *Machine) predictSpec(ev *isa.BlockEvent) blockKind {
	switch ev.Branch {
	case isa.BrNone:
		return notBlocked
	case isa.BrCond:
		target, btbHit := m.bp.BTBLookup(ev.BrPC)
		if !btbHit {
			// The branch is invisible: implicit fall-through.
			if ev.Taken {
				return blockBTBMiss
			}
			m.specHist = m.specHist.Update(false)
			return notBlocked
		}
		pred := m.bp.PredictDir(ev.BrPC, m.specHist)
		if pred != ev.Taken || (ev.Taken && target != ev.Target) {
			return blockMispredict
		}
		m.specHist = m.specHist.Update(ev.Taken)
		return notBlocked
	case isa.BrJump:
		if _, hit := m.bp.BTBLookup(ev.BrPC); !hit {
			return blockBTBMiss
		}
		return notBlocked
	case isa.BrCall:
		if _, hit := m.bp.BTBLookup(ev.BrPC); !hit {
			return blockBTBMiss
		}
		m.specRAS.Push(ev.BrPC + isa.InstrSize)
		return notBlocked
	case isa.BrIndCall:
		tgt, ok := m.bp.PredictIndirect(ev.BrPC, m.specHist)
		m.specHist = m.specHist.UpdatePath(ev.Target)
		if !ok || tgt != ev.Target {
			return blockIndirect
		}
		m.specRAS.Push(ev.BrPC + isa.InstrSize)
		return notBlocked
	case isa.BrRet:
		tgt, ok := m.specRAS.Pop()
		if !ok || tgt != ev.Target {
			return blockRAS
		}
		return notBlocked
	}
	return notBlocked
}

// fetch retires one event: demand-accesses its block, charges fetch and
// back-end time, resolves its terminator, and feeds the prefetcher.
func (m *Machine) fetch(ev *isa.BlockEvent, wasInFTQ bool) {
	// Demand access once per distinct consecutive block.
	blk := ev.Block()
	if !m.haveLast || blk != m.lastBlock {
		stallBefore := m.st.StallScaled
		m.demandAccess(blk)
		if d := m.st.StallScaled - stallBefore; d != 0 {
			m.reqStall[m.curReq] += d
		}
		m.lastBlock = blk
		m.haveLast = true
		m.blockSeq++
		h := m.histHead
		m.histBlocks[h] = blk
		m.histTimes[h] = m.now
		m.histHead = (h + 1) % historyLen
		if m.histLen < historyLen {
			m.histLen++
		}
	}

	if m.pfLen > 0 {
		m.drainMSHR()
		m.drainPFQueue()
	}

	// Fetch throughput on the front-end clock; the back-end's base CPI
	// accrues on its own account.
	m.now += uint64(ev.NumInstr) * m.fetchScale
	m.backendExtra += uint64(ev.NumInstr) * m.prm.BaseCPIUnits
	m.st.Instructions += uint64(ev.NumInstr)

	// Resolve the terminator.
	var fail blockKind
	if wasInFTQ {
		if m.blocked != notBlocked && m.predOff == 0 {
			// This event is where the cursor stalled.
			fail = m.blocked
			m.blocked = notBlocked
			m.specSynced = false
		}
	} else {
		// The cursor never evaluated this event (it was at fetch);
		// evaluate with architectural state.
		fail = m.predictArch(ev)
	}
	m.trainArch(ev)
	if fail != notBlocked {
		m.redirect(fail)
	}

	if m.pf != nil {
		// Runtime tag fault: the Bundle-entry bit the prefetcher sees
		// is inverted (ev is a local copy, so the flip is confined to
		// this observation).
		if m.inj != nil && m.inj.FlipTag() {
			ev.Tagged = !ev.Tagged
			m.st.FaultTagFlips++
		}
		m.pf.OnRetire(ev)
	}

	// Request completion: fold the finished request's accumulated stall
	// into the per-request tail statistics.
	if m.curDone {
		total := m.reqStall[m.curReq]
		delete(m.reqStall, m.curReq)
		m.st.ReqCompleted++
		m.st.ReqStallSum += total
		if total > m.st.ReqStallMax {
			m.st.ReqStallMax = total
		}
		m.st.ReqStallHist[reqStallBucket(total/CycleScale)]++
	}
}

// predictArch evaluates a terminator with architectural predictor state
// (used when fetch has caught up with the cursor).
func (m *Machine) predictArch(ev *isa.BlockEvent) blockKind {
	switch ev.Branch {
	case isa.BrNone:
		return notBlocked
	case isa.BrCond:
		target, btbHit := m.bp.BTBLookup(ev.BrPC)
		if !btbHit {
			if ev.Taken {
				return blockBTBMiss
			}
			return notBlocked
		}
		pred := m.bp.PredictDir(ev.BrPC, m.archHist)
		if pred != ev.Taken || (ev.Taken && target != ev.Target) {
			return blockMispredict
		}
		return notBlocked
	case isa.BrJump:
		if _, hit := m.bp.BTBLookup(ev.BrPC); !hit {
			return blockBTBMiss
		}
		return notBlocked
	case isa.BrCall:
		if _, hit := m.bp.BTBLookup(ev.BrPC); !hit {
			return blockBTBMiss
		}
		return notBlocked
	case isa.BrIndCall:
		tgt, ok := m.bp.PredictIndirect(ev.BrPC, m.archHist)
		if !ok || tgt != ev.Target {
			return blockIndirect
		}
		return notBlocked
	case isa.BrRet:
		tgt, ok := m.archRAS.Peek()
		if !ok || tgt != ev.Target {
			return blockRAS
		}
		return notBlocked
	}
	return notBlocked
}

// trainArch updates the architectural predictor state with the resolved
// terminator.
func (m *Machine) trainArch(ev *isa.BlockEvent) {
	switch ev.Branch {
	case isa.BrNone:
		return
	case isa.BrCond:
		m.bp.TrainDir(ev.BrPC, m.archHist, ev.Taken)
		m.archHist = m.archHist.Update(ev.Taken)
		if ev.Taken {
			m.bp.BTBInsert(ev.BrPC, ev.Target)
		}
	case isa.BrJump:
		m.bp.BTBInsert(ev.BrPC, ev.Target)
	case isa.BrCall:
		m.bp.BTBInsert(ev.BrPC, ev.Target)
		m.archRAS.Push(ev.BrPC + isa.InstrSize)
	case isa.BrIndCall:
		m.bp.TrainIndirect(ev.BrPC, m.archHist, ev.Target)
		m.archHist = m.archHist.UpdatePath(ev.Target)
		m.archRAS.Push(ev.BrPC + isa.InstrSize)
	case isa.BrRet:
		m.archRAS.Pop()
	}
	m.st.Branches++
}

// redirect charges the front-end penalty for a failed prediction and
// flushes the FTQ.
func (m *Machine) redirect(kind blockKind) {
	switch kind {
	case blockBTBMiss:
		m.now += m.prm.BTBMissPenalty * CycleScale
		m.st.BTBMissRedirects++
	case blockMispredict:
		m.now += m.prm.MispredictPenalty * CycleScale
		m.st.CondMispredicts++
	case blockIndirect:
		m.now += m.prm.MispredictPenalty * CycleScale
		m.st.IndirectMispredicts++
	case blockRAS:
		m.now += m.prm.MispredictPenalty * CycleScale
		m.st.RASMispredicts++
	}
	// Squash anything the cursor did beyond fetch.
	m.predOff = 0
	m.blocked = notBlocked
	m.specSynced = false
	if m.pf != nil && kind != blockBTBMiss {
		m.pf.OnResteer()
	}
}

// demandAccess performs the instruction fetch for a block, charging any
// exposed miss latency.
func (m *Machine) demandAccess(blk isa.Block) {
	// I-TLB: translation happens even with a perfect I-cache.
	page := uint64(blk.Page())
	if _, hit := m.itlb.Lookup(page); hit {
		m.st.TLBHits++
	} else {
		m.st.TLBMisses++
		m.stall(m.prm.TLBWalkLatency * CycleScale)
		m.itlb.Insert(page, cache.LineMeta{})
	}
	if m.prm.PerfectL1I {
		m.st.L1IDemandHits++
		return
	}

	if meta, hit := m.l1i.Lookup(uint64(blk)); hit {
		m.st.L1IDemandHits++
		m.recordUse(meta, false)
		return
	}

	if e, ok := m.mshr.Lookup(blk); ok {
		if e.FillAt <= m.now {
			// Fill already completed; install lazily and hit.
			m.mshr.Remove(blk)
			m.installL1I(blk, e.Origin, e.IssueSeq, false, true)
			m.st.L1IDemandHits++
			return
		}
		// Late prefetch: stall for the residual latency.
		residual := e.FillAt - m.now
		m.stall(residual)
		if m.LateHook != nil {
			m.LateHook(blk, e.Origin, e.Level)
		}
		m.mshr.Remove(blk)
		m.installL1I(blk, e.Origin, e.IssueSeq, true, true)
		m.st.L1ILateHits++
		switch e.Origin {
		case cache.OriginFDIP:
			m.st.LateFDIP++
			m.st.LateFDIPStallSum += residual
			m.st.LateFDIPByLevel[e.Level]++
		case cache.OriginPF:
			m.st.LatePF++
			m.st.LatePFStallSum += residual
			m.st.LatePFByLevel[e.Level]++
		}
		return
	}

	// Clean miss: walk the hierarchy.
	m.st.L1IDemandMisses++
	lat, level := m.fillPath(blk, cache.OriginDemand, true)
	scaled := lat * CycleScale
	m.stall(scaled)
	switch level {
	case 2:
		m.st.ServedL2++
		m.st.LatencyL2Sum += scaled
	case 3:
		m.st.ServedLLC++
		m.st.LatencyLLCSum += scaled
	default:
		m.st.ServedMem++
		m.st.LatencyMemSum += scaled
	}
	m.missLatEst = m.missLatEst - m.missLatEst/8 + scaled/8
	_, victim, evicted := m.l1i.Insert(uint64(blk), cache.LineMeta{Origin: cache.OriginDemand, Used: true})
	m.noteEviction(victim, evicted)
	if m.pf != nil {
		m.pf.OnDemandMiss(blk, scaled)
	}
}

// recordUse marks first demand use of a line, crediting its installer.
func (m *Machine) recordUse(meta *cache.LineMeta, late bool) {
	if meta.Used {
		return
	}
	meta.Used = true
	switch meta.Origin {
	case cache.OriginFDIP:
		m.st.FDIPUseful++
	case cache.OriginPF:
		dist := m.blockSeq - meta.IssueSeq
		m.st.PFDistSum += dist
		m.st.PFDistCount++
		b := distBucket(dist)
		m.st.PFDistHist[b]++
		if !late {
			m.st.PFUseful++
			m.st.PFDistUseful[b]++
		}
	}
}

// installL1I inserts a filled line, handling eviction bookkeeping.
// demand reports that a demand fetch is consuming the line right now
// (completed-in-place or late-hit installs): only those count as use.
// Fills retired by the background drain stay unused until a demand
// fetch actually hits them — or are evicted unused, which is what the
// FDIPUseless/PFUseless pollution counters measure.
func (m *Machine) installL1I(blk isa.Block, origin cache.Origin, issueSeq uint64, late, demand bool) {
	meta := cache.LineMeta{Origin: origin, IssueSeq: issueSeq}
	_, victim, evicted := m.l1i.Insert(uint64(blk), meta)
	m.noteEviction(victim, evicted)
	if !demand {
		return
	}
	if p, ok := m.l1i.Peek(uint64(blk)); ok {
		m.recordUse(p, late)
	}
}

// noteEviction counts unused prefetched lines displaced from the L1-I.
func (m *Machine) noteEviction(victim cache.LineMeta, evicted bool) {
	if !evicted || victim.Used {
		return
	}
	switch victim.Origin {
	case cache.OriginFDIP:
		m.st.FDIPUseless++
	case cache.OriginPF:
		m.st.PFUseless++
	}
}

// fillPath looks up the L2→LLC→memory path for a block, filling the
// levels it passes through, and returns the latency (cycles) and the
// serving level (2, 3, or 4=memory). demandLike requests (demand fetches
// and FDIP, the baseline front-end) participate in the L2 coverage
// metric.
func (m *Machine) fillPath(blk isa.Block, origin cache.Origin, demandLike bool) (uint64, int) {
	key := uint64(blk)
	if meta, hit := m.l2.Lookup(key); hit {
		if demandLike && meta.Origin == cache.OriginPF && !meta.Used {
			meta.Used = true
			m.st.L2CoveredByPF++
		}
		return m.prm.L2Latency, 2
	}
	if demandLike {
		m.st.L2Beyond++
	}
	if _, hit := m.llc.Lookup(key); hit {
		m.l2Fill(key, cache.LineMeta{Origin: origin})
		return m.faultLatency(m.prm.LLCLatency), 3
	}
	switch origin {
	case cache.OriginDemand:
		m.st.MemBlocksDemand++
	case cache.OriginFDIP:
		m.st.MemBlocksFDIP++
	case cache.OriginPF:
		m.st.MemBlocksPF++
	}
	m.llc.Insert(key, cache.LineMeta{Origin: origin})
	m.l2Fill(key, cache.LineMeta{Origin: origin})
	return m.faultLatency(m.prm.MemLatency), 4
}

// faultLatency applies injected LLC/memory latency jitter to a fill.
func (m *Machine) faultLatency(lat uint64) uint64 {
	if m.inj == nil {
		return lat
	}
	if j := m.inj.JitterLatency(lat); j != lat {
		m.st.FaultJitteredFills++
		return j
	}
	return lat
}

// mshrFull reports whether no MSHR can currently be allocated, folding
// in injected starvation (a co-runner holding entries).
func (m *Machine) mshrFull() bool {
	if m.mshr.Full() {
		return true
	}
	if m.inj != nil && m.mshr.Len() >= m.prm.MSHRs-m.inj.MSHRReserve(m.prm.MSHRs) {
		m.st.FaultMSHRBlocks++
		return true
	}
	return false
}

// l2Fill inserts into the L2, spilling the victim line into the LLC so
// instruction blocks age through the hierarchy instead of silently
// falling to memory (victim-fill, as a non-inclusive LLC behaves).
func (m *Machine) l2Fill(key uint64, meta cache.LineMeta) {
	victim, vmeta, evicted := m.l2.Insert(key, meta)
	if evicted && !m.llc.Contains(victim) {
		m.llc.Insert(victim, cache.LineMeta{Origin: vmeta.Origin})
	}
}

// stall advances time by the exposed fraction of a front-end stall.
func (m *Machine) stall(scaled uint64) {
	exposed := scaled * uint64(m.prm.StallOverlap) / 100
	m.now += exposed
	m.st.StallScaled += exposed
}

// fillResult is what a fill request did.
type fillResult uint8

const (
	// fillDropped: no fill started and the block is not resident (no
	// MSHR was free, or the run failed).
	fillDropped fillResult = iota
	// fillResident: the block was already in the L1-I or an MSHR.
	fillResident
	// fillIssued: a new fill started, into an MSHR unless it was a
	// prefetch directed at the L2.
	fillIssued
)

// issueFill requests an asynchronous block fill (FDIP or evaluated
// prefetcher).
func (m *Machine) issueFill(blk isa.Block, origin cache.Origin, earliest uint64) fillResult {
	return m.issueFillSeq(blk, origin, earliest, m.blockSeq)
}

// issueFillSeq is issueFill with an explicit trigger sequence number for
// distance accounting.
func (m *Machine) issueFillSeq(blk isa.Block, origin cache.Origin, earliest uint64, seq uint64) fillResult {
	if m.l1i.Contains(uint64(blk)) {
		if origin == cache.OriginPF {
			m.st.PFRedundant++
		}
		return fillResident
	}
	if _, inflight := m.mshr.Lookup(blk); inflight {
		if origin == cache.OriginPF {
			m.st.PFRedundant++
		}
		return fillResident
	}
	if m.mshrFull() {
		// Opportunistically retire completed fills, then give up.
		m.drainMSHR()
		if m.mshrFull() {
			if origin == cache.OriginPF {
				m.st.PFDropped++
			}
			return fillDropped
		}
	}
	issueAt := m.now
	if earliest > issueAt {
		issueAt = earliest
	}
	if origin == cache.OriginPF {
		// The evaluated prefetcher has its own issue port; FDIP fills
		// ride the prediction cursor and never queue behind it.
		if m.nextPFSlot > issueAt {
			issueAt = m.nextPFSlot
		}
		m.nextPFSlot = issueAt + CycleScale/uint64(m.prm.PrefetchPerCycle)
	}

	// Prefetches translate through the I-TLB too (the replay engine
	// dispatches base addresses to the TLB, §5.3.5); they warm it
	// rather than stalling fetch.
	page := uint64(blk.Page())
	if !m.itlb.Contains(page) {
		if origin == cache.OriginPF {
			// Translation-blocked prefetch (Jamet et al.): the fill went
			// out without a resident ITLB entry — a failure class the
			// TLB-aware schemes avoid by gating on PrefetchMapped.
			m.st.PFTLBMiss++
		}
		m.itlb.Insert(page, cache.LineMeta{})
	}

	lat, level := m.fillPath(blk, origin, origin == cache.OriginFDIP)
	if origin == cache.OriginPF && m.inj != nil {
		if d := m.inj.DelayPrefetch(); d > 0 {
			lat += d
			m.st.FaultPFDelays++
		}
	}

	if m.prm.PrefetchToL2 && origin == cache.OriginPF {
		// §7.8: direct the evaluated prefetcher at the L2. fillPath has
		// already installed the line there; only bandwidth was charged.
		return fillIssued
	}
	if err := m.mshr.Add(&cache.MSHR{
		Block:    blk,
		FillAt:   issueAt + lat*CycleScale,
		Origin:   origin,
		IssueSeq: seq,
		Level:    uint8(level),
	}); err != nil {
		// Full/Lookup were checked above, so this means the machine's
		// occupancy accounting has drifted; fail the run cleanly.
		m.fail(fmt.Errorf("sim: %s fill of block %#x: %w", origin, uint64(blk), err))
		return fillDropped
	}
	return fillIssued
}

// drainMSHR retires completed fills into the L1-I.
func (m *Machine) drainMSHR() {
	m.mshr.Drain(m.now, func(e *cache.MSHR) {
		m.installL1I(e.Block, e.Origin, e.IssueSeq, false, false)
	})
}

// distBucket maps a distance to its histogram bucket.
func distBucket(d uint64) int {
	for i, hi := range DistanceBuckets {
		if d <= hi {
			return i
		}
	}
	return len(DistanceBuckets) - 1
}

// reqStallBucket maps a per-request stall (cycles) to its histogram bucket.
func reqStallBucket(cycles uint64) int {
	for i, hi := range ReqStallBuckets {
		if cycles <= hi {
			return i
		}
	}
	return len(ReqStallBuckets) - 1
}

// --- prefetch.Machine interface ---

// Now returns the current scaled time.
func (m *Machine) Now() uint64 { return m.now }

// CycleScale returns scaled units per cycle.
func (m *Machine) CycleScale() uint64 { return CycleScale }

// BlockSeq returns retired distinct-block count.
func (m *Machine) BlockSeq() uint64 { return m.blockSeq }

// InstrSeq returns retired instructions.
func (m *Machine) InstrSeq() uint64 { return m.st.Instructions }

// Resident reports whether blk is cached or in flight.
func (m *Machine) Resident(blk isa.Block) bool {
	if m.l1i.Contains(uint64(blk)) {
		return true
	}
	_, ok := m.mshr.Lookup(blk)
	return ok
}

// Prefetch issues an evaluated-prefetcher fill, queueing it when the
// MSHR file is busy. It returns false only when the request was dropped
// (queue full) or redundant; prefetchers use that as back-pressure.
func (m *Machine) Prefetch(blk isa.Block) bool {
	if m.prm.PerfectL1I {
		return false
	}
	if m.inj != nil && m.inj.DropPrefetch() {
		// Injected interconnect fault: the issue is silently lost.
		m.st.FaultPFDrops++
		return false
	}
	if m.l1i.Contains(uint64(blk)) {
		m.st.PFRedundant++
		return false
	}
	if _, inflight := m.mshr.Lookup(blk); inflight {
		m.st.PFRedundant++
		return false
	}
	if m.pfLen > 0 || m.mshrFull() {
		m.drainMSHR()
		m.drainPFQueue()
	}
	if m.pfLen == 0 && !m.mshrFull() {
		if m.issueFillSeq(blk, cache.OriginPF, m.now, m.blockSeq) == fillIssued {
			m.st.PFIssued++
			return true
		}
		return false
	}
	if m.pfLen >= len(m.pfQueue) {
		m.st.PFDropped++
		return false
	}
	m.pfQueue[(m.pfHead+m.pfLen)%len(m.pfQueue)] = pfReq{block: blk, seq: m.blockSeq}
	m.pfLen++
	return true
}

// PrefetchMapped is the TLB-gated issue path: when the target block's
// page has no ITLB translation the prefetch is withheld and counted in
// PFTLBDropped instead of reaching the fill path.
func (m *Machine) PrefetchMapped(blk isa.Block) bool {
	if m.prm.PerfectL1I {
		return false
	}
	if !m.itlb.Contains(uint64(blk.Page())) {
		m.st.PFTLBDropped++
		return false
	}
	return m.Prefetch(blk)
}

// PrefetchSpace returns how many more Prefetch calls can currently be
// accepted without dropping.
func (m *Machine) PrefetchSpace() int {
	return m.prm.PFQueueEntries - m.pfLen
}

// drainPFQueue issues queued prefetches as MSHRs free up.
func (m *Machine) drainPFQueue() {
	for m.pfLen > 0 && !m.mshrFull() {
		r := m.pfQueue[m.pfHead]
		m.pfHead = (m.pfHead + 1) % len(m.pfQueue)
		m.pfLen--
		if m.issueFillSeq(r.block, cache.OriginPF, m.now, r.seq) == fillIssued {
			m.st.PFIssued++
		}
	}
}

// PFSignals exposes the feedback counters a throttling governor samples:
// issued, useful, late and useless evaluated-prefetcher events so far.
// Counts are monotonic within a measurement window; ResetStats restarts
// them (governors must resync when a sample goes backwards).
func (m *Machine) PFSignals() (issued, useful, late, useless uint64) {
	return m.st.PFIssued, m.st.PFUseful, m.st.LatePF, m.st.PFUseless
}

// AvgMissLatency returns the demand miss latency estimate (scaled).
func (m *Machine) AvgMissLatency() uint64 { return m.missLatEst }

// BlockAgo returns the retired block closest to `scaled` units ago.
func (m *Machine) BlockAgo(scaled uint64) (isa.Block, bool) {
	if m.histLen == 0 {
		return 0, false
	}
	var cutoff uint64
	if m.now > scaled {
		cutoff = m.now - scaled
	}
	// Walk backwards from the most recent entry to the first one at or
	// before the cutoff.
	idx := (m.histHead - 1 + historyLen) % historyLen
	for i := 0; i < m.histLen; i++ {
		if m.histTimes[idx] <= cutoff {
			return m.histBlocks[idx], true
		}
		idx = (idx - 1 + historyLen) % historyLen
	}
	// Everything in the window is newer; return the oldest we have.
	oldest := (m.histHead - m.histLen + historyLen) % historyLen
	return m.histBlocks[oldest], true
}

// MetadataRead charges a prefetcher metadata read through the LLC/memory
// path and returns its completion time.
func (m *Machine) MetadataRead(addr isa.Addr, n int) uint64 {
	if n <= 0 {
		return m.now
	}
	first := addr.Block()
	last := (addr + isa.Addr(n) - 1).Block()
	var worst uint64 = m.prm.LLCLatency
	for b := first; b <= last; b++ {
		if _, hit := m.llc.Lookup(uint64(b)); !hit {
			m.llc.Insert(uint64(b), cache.LineMeta{})
			m.st.MemBlocksMeta++
			worst = m.prm.MemLatency
		}
		m.st.MetaReadBlocks++
	}
	m.st.MetaReads++
	blocks := uint64(last - first + 1)
	return m.now + worst*CycleScale + blocks*CycleScale/2
}

// MetadataWrite charges a prefetcher metadata writeback.
func (m *Machine) MetadataWrite(addr isa.Addr, n int) {
	if n <= 0 {
		return
	}
	first := addr.Block()
	last := (addr + isa.Addr(n) - 1).Block()
	for b := first; b <= last; b++ {
		if _, hit := m.llc.Lookup(uint64(b)); !hit {
			m.llc.Insert(uint64(b), cache.LineMeta{})
		}
		// Writebacks eventually reach memory; charge them as they are
		// produced.
		m.st.MemBlocksMeta++
		m.st.MetaWriteBlocks++
	}
	m.st.MetaWrites++
}

var _ prefetch.Machine = (*Machine)(nil)
