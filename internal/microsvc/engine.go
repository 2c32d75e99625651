package microsvc

import (
	"fmt"

	"hprefetch/internal/isa"
	"hprefetch/internal/loader"
	"hprefetch/internal/program"
	"hprefetch/internal/trace"
	"hprefetch/internal/xrand"
)

// Engine interleaves the request chains of an open-loop load into one
// deterministic instruction stream. Each lane is an independent
// trace.Engine over the shared program image (its own seed, so lanes
// execute different request sequences); the interleaver admits requests
// on the arrival process's schedule, runs one lane at a time, and
// switches lanes on every RPC hop (Stage change) and request
// completion. Concurrency is what creates the footprint thrash: lane
// A's service-2 code evicts lane B's service-0 code mid-request.
//
// Engine satisfies workloads.Engine (and therefore sim.EventSource and
// tracefile.Source): recording, replay, fault paths and the fleet treat
// it exactly like the plain engine.
type Engine struct {
	lanes []*lane
	arr   *arrivals

	// runq is a ring of lane indices with an admitted request, in
	// scheduling order: runq[rqHead] runs, rqLen are queued. Every
	// lane is in runq or idle, never both, so len(lanes) slots suffice.
	runq    []int
	rqHead  int
	rqLen   int
	idle    []int // lanes awaiting a request (stack)
	pending uint64
	started uint64 // requests admitted to a lane so far (monotonic)
	nextArr uint64
	haveArr bool

	clock  uint64 // emitted instructions: the arrival clock
	instrs uint64

	// Sampled state of the most recently returned event.
	curType  int
	curStage int16
	curDepth int
	curReq   uint64
	curDone  bool
}

// lane is one concurrent execution context.
type lane struct {
	eng       *trace.Engine
	req       uint64 // global id of the request the lane is serving
	prevStage int16
}

// New builds an interleaving engine over a loaded chain program with
// the given lane count and arrival process. The stream is a pure
// function of (program, seed, lanes, arrival config).
func New(ld *loader.Loaded, seed uint64, lanes int, ac ArrivalConfig) (*Engine, error) {
	if lanes < 1 {
		return nil, fmt.Errorf("microsvc: lane count must be >= 1")
	}
	if err := ac.validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		lanes:    make([]*lane, lanes),
		arr:      newArrivals(ac, seed),
		runq:     make([]int, lanes),
		curStage: program.NoStage,
	}
	for i := range e.lanes {
		e.lanes[i] = &lane{
			eng:       trace.New(ld, xrand.Mix(seed, uint64(i), 0x14AE)),
			prevStage: program.NoStage,
		}
	}
	// Idle stack popped from the end: lane 0 serves the first request.
	for i := lanes - 1; i >= 0; i-- {
		e.idle = append(e.idle, i)
	}
	return e, nil
}

// MustNew is New for registration-time configs known to be valid.
func MustNew(ld *loader.Loaded, seed uint64, lanes int, ac ArrivalConfig) *Engine {
	e, err := New(ld, seed, lanes, ac)
	if err != nil {
		panic(err)
	}
	return e
}

// admit accepts one arrival: onto an idle lane if one exists, else into
// the open-loop backlog (a counter — queued requests have no state
// until a lane picks them up).
func (e *Engine) admit() {
	if n := len(e.idle); n > 0 {
		li := e.idle[n-1]
		e.idle = e.idle[:n-1]
		e.assign(li)
		return
	}
	e.pending++
}

// assign starts the next request on lane li. Ids are handed out in
// start order; the lane's underlying engine supplies the request's
// type and execution deterministically.
func (e *Engine) assign(li int) {
	l := e.lanes[li]
	l.req = e.started
	e.started++
	l.prevStage = l.eng.Stage()
	e.enqueue(li)
}

// Next returns the next retired block event of the interleaved stream.
// The stream is unbounded: arrivals never stop.
func (e *Engine) Next() isa.BlockEvent {
	// Admit everything the arrival process scheduled up to now.
	if !e.haveArr {
		e.nextArr = e.arr.next()
		e.haveArr = true
	}
	for e.nextArr <= e.clock {
		e.admit()
		e.nextArr = e.arr.next()
	}
	// All lanes idle: fast-forward the clock to the next arrival.
	if e.rqLen == 0 {
		e.clock = e.nextArr
		for e.nextArr <= e.clock {
			e.admit()
			e.nextArr = e.arr.next()
		}
	}

	li := e.runq[e.rqHead]
	l := e.lanes[li]
	ev := l.eng.Next()
	e.clock += uint64(ev.NumInstr)
	e.instrs += uint64(ev.NumInstr)

	// Sample the producing lane's state for this event.
	e.curType = l.eng.CurrentType()
	e.curDepth = l.eng.Depth()
	e.curStage = l.eng.Stage()
	e.curReq = l.req
	e.curDone = l.eng.RequestDone()

	if e.curDone {
		// Request complete: free the lane, or hand it the oldest
		// backlogged arrival immediately.
		e.dequeue()
		if e.pending > 0 {
			e.pending--
			e.assign(li)
		} else {
			e.idle = append(e.idle, li)
		}
	} else if st := l.eng.Stage(); st != l.prevStage {
		// RPC hop: yield the stream to the next runnable lane.
		l.prevStage = st
		if e.rqLen > 1 {
			e.dequeue()
			e.enqueue(li)
		}
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
		reqs[i] = e.started
	}
	return len(ev)
}

// enqueue appends lane li to the run queue.
func (e *Engine) enqueue(li int) {
	e.runq[(e.rqHead+e.rqLen)%len(e.runq)] = li
	e.rqLen++
}

// dequeue drops the running lane from the head of the run queue.
func (e *Engine) dequeue() {
	e.rqHead = (e.rqHead + 1) % len(e.runq)
	e.rqLen--
}

// Instructions returns the total instructions emitted so far.
func (e *Engine) Instructions() uint64 { return e.instrs }

// Requests returns how many requests have been started (admitted to a
// lane) so far — monotonic, like the plain engine's counter.
func (e *Engine) Requests() uint64 { return e.started }

// Pending returns the open-loop backlog: requests that have arrived but
// found no free lane yet.
func (e *Engine) Pending() uint64 { return e.pending }

// Release hands every lane's call stack and event queue to later
// engines (trace.Engine.Release). The engine must not be used
// afterwards.
func (e *Engine) Release() {
	for _, l := range e.lanes {
		l.eng.Release()
	}
}

// CurrentType, Stage, Depth, CurrentRequest and RequestDone follow the
// sampling contract: they describe the most recently returned event
// (its producing lane's state).
func (e *Engine) CurrentType() int       { return e.curType }
func (e *Engine) Stage() int16           { return e.curStage }
func (e *Engine) Depth() int             { return e.curDepth }
func (e *Engine) CurrentRequest() uint64 { return e.curReq }
func (e *Engine) RequestDone() bool      { return e.curDone }
