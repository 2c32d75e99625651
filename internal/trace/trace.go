// Package trace is the execution engine: it interprets a loaded synthetic
// program, driving it with a stream of typed requests, and emits the
// retired instruction stream as per-cache-block fetch events
// (isa.BlockEvent). The stream is deterministic for a given (program,
// seed) pair. The engine is the stand-in for gem5's full-system execution
// in the paper's methodology (§6.1): everything the front-end simulator
// and the prefetchers consume — fetch addresses, branch outcomes, call and
// return targets, Bundle entry tags at commit — is in this stream.
package trace

import (
	"hprefetch/internal/freelist"
	"hprefetch/internal/isa"
	"hprefetch/internal/loader"
	"hprefetch/internal/program"
	"hprefetch/internal/xrand"
)

// maxCallDepth bounds the simulated call stack. Hot call edges are
// acyclic by construction, so this is a safety net, not a policy.
const maxCallDepth = 192

// frame is one simulated call-stack entry.
type frame struct {
	fn    isa.FuncID
	base  isa.Addr
	items []program.Item
	idx   int // current body item

	// Per-item progress.
	loopLeft  uint32 // remaining LoopRun iterations (0 = not started)
	callLeft  uint32 // remaining call iterations
	polyPhase uint32 // random rotation phase for polymorphic targets
	inCall    bool   // the current ItemCall has started

	retTo isa.Addr // where this frame's return lands in the caller
	stage int16    // effective stage (inherited when the function has none)
}

// Engine interprets the program and produces the block-event stream.
// It reads function bodies from the program's shared table
// (program.Program.Body), which keeps every body any engine over the
// program has run, so a fresh engine starts without expanding the ones
// earlier runs used, and engines on other goroutines may share it.
type Engine struct {
	prog *program.Program
	tags *loader.TagSet
	rng  *xrand.RNG

	typeCum []float64

	stack []frame

	// Emitter state: the span of straight-line code not yet emitted.
	runStart isa.Addr
	runEnd   isa.Addr

	queue []isa.BlockEvent
	qHead int

	curType  int
	requests uint64
	instrs   uint64

	// Per-request boundary marks, sampled per returned event: curReq is
	// the id (0-based, contiguous) of the request the most recently
	// returned event belongs to, curDone whether that event completed it.
	curReq  uint64
	curDone bool
}

// buffers carries a released engine's call stack and event queue, at
// length 0, to the next engine New creates.
type buffers struct {
	stack []frame
	queue []isa.BlockEvent
}

// bufferPool recycles released engines' buffers. An engine that starts
// without one grows its own from nil: presizing them costs more than it
// saves, because most engines (a chain workload's lanes) stay shallow.
var bufferPool freelist.List[buffers]

// New creates an engine over a loaded program. Seed separates the dynamic
// request/branch randomness from the program's structural seed.
func New(ld *loader.Loaded, seed uint64) *Engine {
	e := &Engine{
		prog:    ld.Prog,
		tags:    ld.Tags,
		rng:     xrand.New(xrand.Mix(ld.Prog.Seed, seed, 0xE4EC)),
		typeCum: xrand.Cumulative(ld.Prog.TypeWeights),
	}
	if b, ok := bufferPool.Get(); ok {
		e.stack, e.queue = b.stack, b.queue
	}
	e.startRequest()
	return e
}

// Release hands the engine's call stack and event queue to a later
// engine. The engine must not be used afterwards; releasing it again
// does nothing.
func (e *Engine) Release() {
	if e.stack == nil {
		return
	}
	// Stale frames would keep the bodies they point at alive.
	clear(e.stack[:cap(e.stack)])
	bufferPool.Put(buffers{stack: e.stack[:0], queue: e.queue[:0]})
	e.stack, e.queue = nil, nil
}

// Requests returns how many requests have been started so far.
func (e *Engine) Requests() uint64 { return e.requests }

// CurrentType returns the request type being processed.
func (e *Engine) CurrentType() int { return e.curType }

// Instructions returns the total instructions emitted so far.
func (e *Engine) Instructions() uint64 { return e.instrs }

// Depth returns the current simulated call-stack depth. The engine caps
// it at maxCallDepth: deeper call edges are skipped, not executed.
func (e *Engine) Depth() int { return len(e.stack) }

// Next returns the next retired block event. The stream is unbounded:
// the request loop restarts forever.
func (e *Engine) Next() isa.BlockEvent {
	for e.qHead >= len(e.queue) {
		e.queue = e.queue[:0]
		e.qHead = 0
		e.step()
	}
	ev := e.queue[e.qHead]
	e.qHead++
	e.instrs += uint64(ev.NumInstr)
	// Request ids advance one event late: step() has already started the
	// next request internally by the time the completing jump is returned,
	// so the flip is deferred until the event after it.
	if e.curDone {
		e.curReq++
		e.curDone = false
	}
	if ev.Branch == isa.BrJump && ev.Func == e.prog.Entry {
		e.curDone = true
	}
	return ev
}

// Fill writes the next len(ev) events with their request marks and
// the request count after each (the sim.EventSource window contract).
// The stream is unbounded, so it always fills every slot.
func (e *Engine) Fill(ev []isa.BlockEvent, req []uint64, done []bool, reqs []uint64) int {
	req, done, reqs = req[:len(ev)], done[:len(ev)], reqs[:len(ev)]
	for i := range ev {
		ev[i] = e.Next()
		req[i] = e.curReq
		done[i] = e.curDone
		reqs[i] = e.requests
	}
	return len(ev)
}

// CurrentRequest returns the id of the request the most recently
// returned event belongs to. Ids are 0-based and contiguous.
func (e *Engine) CurrentRequest() uint64 { return e.curReq }

// RequestDone reports whether the most recently returned event was the
// final event of its request (the jump back to the request loop).
func (e *Engine) RequestDone() bool { return e.curDone }

// startRequest (re)enters the request loop root with a fresh request type.
func (e *Engine) startRequest() {
	e.curType = e.rng.WeightedChoice(e.typeCum)
	e.requests++
	root := e.prog.Entry
	f := e.prog.Func(root)
	e.stack = e.stack[:0]
	e.stack = append(e.stack, frame{
		fn:    root,
		base:  f.Addr,
		items: e.prog.Body(root),
		stage: program.NoStage,
	})
	e.runStart = f.Addr
	e.runEnd = f.Addr
}

// top returns the active frame.
func (e *Engine) top() *frame { return &e.stack[len(e.stack)-1] }

// step advances the interpreter until at least one event is queued.
func (e *Engine) step() {
	for len(e.queue) == 0 {
		fr := e.top()
		it := &fr.items[fr.idx]
		abs := fr.base + isa.Addr(it.Off)
		switch it.Kind {
		case program.ItemRun:
			e.runEnd += isa.Addr(it.Bytes)
			fr.idx++

		case program.ItemCondRun:
			// Branch at abs guards the run [abs+4, abs+Bytes).
			if e.rng.FixedBool(it.Bias) {
				// Execute the body: branch falls through.
				e.emitBranch(abs, isa.BrCond, false, abs+isa.InstrSize, false, fr.fn)
				e.runEnd += isa.Addr(it.Bytes) - isa.InstrSize
			} else {
				// Skip: branch taken over the body.
				e.emitBranch(abs, isa.BrCond, true, abs+isa.Addr(it.Bytes), false, fr.fn)
			}
			fr.idx++

		case program.ItemLoopRun:
			// Run [abs, abs+Bytes) with the backedge in the last slot.
			// Trip counts are fixed per site (see Program.AppendBody), so
			// history-based direction predictors can learn the exits.
			if fr.loopLeft == 0 {
				fr.loopLeft = it.Arg
			}
			e.runEnd += isa.Addr(it.Bytes) - isa.InstrSize
			backedge := abs + isa.Addr(it.Bytes) - isa.InstrSize
			fr.loopLeft--
			if fr.loopLeft > 0 {
				e.emitBranch(backedge, isa.BrCond, true, abs, false, fr.fn)
			} else {
				e.emitBranch(backedge, isa.BrCond, false, abs+isa.Addr(it.Bytes), false, fr.fn)
				fr.idx++
			}

		case program.ItemCall:
			e.stepCall(fr, it, abs)

		case program.ItemRet:
			retAddr := abs
			tagged := e.tags.Contains(retAddr)
			if len(e.stack) == 1 {
				// The request loop bottoms out: jump back to the top
				// and start the next request.
				entry := e.prog.Func(e.prog.Entry).Addr
				e.emitBranch(retAddr, isa.BrJump, true, entry, false, fr.fn)
				e.startRequest()
				return
			}
			target := fr.retTo
			fn := fr.fn
			e.emitBranch(retAddr, isa.BrRet, true, target, tagged, fn)
			e.stack = e.stack[:len(e.stack)-1]
		}
	}
}

// stepCall handles the call-region state machine: guard branch, call(s),
// repeat backedge, and the trailing slot.
func (e *Engine) stepCall(fr *frame, it *program.Item, abs isa.Addr) {
	c := &e.prog.Calls[it.Arg]
	callPC := abs + program.CallInstrOff
	slotPC := abs + 2*isa.InstrSize
	regionEnd := abs + program.CallRegionBytes

	if !fr.inCall {
		// Decide whether and how often the call executes.
		reps := uint32(0)
		if e.rng.FixedBool(c.Prob) && len(e.stack) < maxCallDepth {
			reps = uint32(c.Repeat)
			if c.Repeat > 1 && !c.Indirect() && e.rng.Bool(0.10) {
				// Occasional data-dependent trip-count jitter on direct
				// repeated calls; polymorphic sites keep their counts so
				// the per-visit target union stays complete.
				reps = uint32(e.rng.Range(1, int(c.Repeat)*2-1))
			}
		}
		if reps == 0 {
			// Guard branch skips the whole region.
			e.emitBranch(abs, isa.BrCond, true, regionEnd, false, fr.fn)
			fr.idx++
			return
		}
		e.emitBranch(abs, isa.BrCond, false, callPC, false, fr.fn)
		fr.inCall = true
		fr.callLeft = reps
		fr.polyPhase = uint32(e.rng.Uint64())
		e.invoke(fr, c, callPC, slotPC)
		return
	}

	// Returned from an iteration of this call.
	fr.callLeft--
	if fr.callLeft > 0 {
		// Backedge re-invokes the callee.
		e.emitBranch(slotPC, isa.BrCond, true, callPC, false, fr.fn)
		e.invoke(fr, c, callPC, slotPC)
		return
	}
	fr.inCall = false
	if c.Repeat > 1 {
		// The final not-taken backedge.
		e.emitBranch(slotPC, isa.BrCond, false, regionEnd, false, fr.fn)
	} else {
		// The slot is a plain instruction; fold it into the run.
		e.runEnd = regionEnd
	}
	fr.idx++
}

// invoke emits the call branch and pushes the callee frame. The return
// target is the slot instruction after the call.
func (e *Engine) invoke(fr *frame, c *program.Call, callPC, retTo isa.Addr) {
	callee := c.Callee
	kind := isa.BrCall
	if c.Indirect() {
		kind = isa.BrIndCall
		ts := &e.prog.TargetSets[c.Targets]
		if ts.ByType {
			callee = ts.Funcs[e.curType%len(ts.Funcs)]
		} else {
			// Polymorphic sites rotate through their targets from a
			// random per-visit phase: the invocation-order is
			// unpredictable to sequence predictors, but one visit's
			// union covers the whole set.
			idx := (fr.polyPhase + fr.callLeft) % uint32(len(ts.Funcs))
			callee = ts.Funcs[idx]
		}
	}
	cf := e.prog.Func(callee)
	tagged := e.tags.Contains(callPC)
	e.emitBranch(callPC, kind, true, cf.Addr, tagged, fr.fn)
	stage := cf.Stage
	if stage == program.NoStage {
		stage = fr.stage
	}
	e.stack = append(e.stack, frame{
		fn:    callee,
		base:  cf.Addr,
		items: e.prog.Body(callee),
		retTo: retTo,
		stage: stage,
	})
}

// Stage returns the effective pipeline stage of the innermost frame
// (libraries inherit their caller's stage), or program.NoStage at the
// request loop itself. Valid between Next calls; instrumentation that
// needs per-event stages should sample after each event.
func (e *Engine) Stage() int16 {
	if len(e.stack) == 0 {
		return program.NoStage
	}
	return e.top().stage
}

// emitBranch flushes the pending straight-line run, terminated by the
// branch instruction at brPC, and retargets the emitter to the branch
// target. The run must end exactly at brPC.
func (e *Engine) emitBranch(brPC isa.Addr, kind isa.BranchKind, taken bool, target isa.Addr, tagged bool, fn isa.FuncID) {
	end := brPC + isa.InstrSize
	start := e.runStart
	// Split [start, end) at cache-block boundaries; only the final
	// region carries the branch.
	for start < end {
		blockEnd := (start + isa.BlockSize) &^ (isa.BlockSize - 1)
		regionEnd := blockEnd
		if regionEnd > end {
			regionEnd = end
		}
		ev := isa.BlockEvent{
			Addr:     start,
			NumInstr: uint16((regionEnd - start) / isa.InstrSize),
			Func:     fn,
			Branch:   isa.BrNone,
			Target:   regionEnd,
		}
		if regionEnd == end {
			ev.Branch = kind
			ev.Taken = taken
			ev.BrPC = brPC
			ev.Target = target
			ev.Tagged = tagged
		}
		e.queue = append(e.queue, ev)
		start = regionEnd
	}
	e.runStart = target
	e.runEnd = target
}
