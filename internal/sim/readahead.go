package sim

import (
	"hprefetch/internal/freelist"
	"hprefetch/internal/isa"
)

// ReadAhead is an EventSource that runs a live source's Fill on a
// goroutine of its own, into a few fixed chunks it recycles, so program
// interpretation overlaps the machine's simulation: the machine's refill
// copies from a chunk that is already full instead of waiting for the
// engine.
//
// The producer stops once the source has delivered budget instructions
// (a run's warm-up plus measure window); past that the machine's own
// goroutine fills straight from the source, so the stream never depends
// on the budget, only the overlap does. Everything the machine can see
// is as if it read the source directly: Instructions and Requests count
// what was delivered, not what the producer read ahead; Err passes
// through from sources that have one; and a panic inside the source is
// raised again on the machine's goroutine, at the Fill that needed the
// events the source failed to make.
//
// A ReadAhead reads a source with no other reader. Close stops the
// producer, waits for it and recycles the chunks; it must be called
// exactly once, after which the ReadAhead must not be used. Sources that
// are cheap to read (a decoded trace) or that rely on seeing the
// machine's own pulls (tracefile.Recorder) are read directly instead.
type ReadAhead struct {
	src    EventSource
	budget uint64

	// Chunks travel from free to the producer, which fills them and
	// sends them on full; the machine's Fill drains them and returns
	// them to free. Each channel has room for every chunk, so no send
	// blocks.
	chunks *raChunks
	free   chan *raChunk
	full   chan *raChunk
	stop   chan struct{}
	done   chan struct{}
	// panicked is what the producer recovered from the source; it is
	// written before full is closed and read after.
	panicked any

	// The consumer's state, touched by the machine's goroutine only:
	// cur[off:] is the undelivered part of the chunk being drained,
	// instrs the instructions delivered up to cur's start, reqs the
	// Requests count after the last delivered event. inline is set once
	// the producer has stopped and Fill reads the source directly.
	cur    *raChunk
	off    int
	instrs uint64
	reqs   uint64
	inline bool
	ended  bool
}

// raChunk is one chunk of read-ahead events and the source's
// Instructions count after it was filled.
type raChunk struct {
	w      window
	n      int
	instrs uint64
}

// readAheadDepth is how many chunks a ReadAhead cycles. It and
// defaultReadAheadChunk were picked by a sweep of live runs
// (EXPERIMENTS.md): from 1024 events with three chunks, or 2048 with
// two, the runs time the same, while smaller or fewer chunks pay for
// handing chunks over. Three chunks of 1024 events take about 175 KB.
const (
	readAheadDepth        = 3
	defaultReadAheadChunk = 1024
)

type raChunks [readAheadDepth]raChunk

// readAheadChunk is defaultReadAheadChunk; it is a variable only so
// tests can shrink the chunks and put a chunk boundary at every
// lookahead position.
var readAheadChunk = defaultReadAheadChunk

// readAheadInline makes ReadAheads read their source on the machine's
// goroutine from the start, as if their budget were spent; it is set
// only by tests, which compare read-ahead runs with direct ones.
var readAheadInline bool

// chunkPool recycles chunk sets between runs, so a warm process
// allocates none.
var chunkPool freelist.List[*raChunks]

// NewReadAhead starts reading src ahead until it has delivered budget
// instructions. The caller must Close the result.
func NewReadAhead(src EventSource, budget uint64) *ReadAhead {
	if readAheadInline {
		budget = 0
	}
	r := &ReadAhead{
		src:    src,
		budget: budget,
		free:   make(chan *raChunk, readAheadDepth),
		full:   make(chan *raChunk, readAheadDepth),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		instrs: src.Instructions(),
		reqs:   src.Requests(),
	}
	r.chunks, _ = chunkPool.Get()
	if r.chunks == nil || len(r.chunks[0].w.ev) != readAheadChunk {
		r.chunks = new(raChunks)
		for i := range r.chunks {
			r.chunks[i].w = window{
				ev:   make([]isa.BlockEvent, readAheadChunk),
				req:  make([]uint64, readAheadChunk),
				done: make([]bool, readAheadChunk),
				reqs: make([]uint64, readAheadChunk),
			}
		}
	}
	for i := range r.chunks {
		r.free <- &r.chunks[i]
	}
	go r.produce()
	return r
}

// produce fills free chunks until the budget is delivered, the stream
// ends, the source panics or Close stops it.
func (r *ReadAhead) produce() {
	defer close(r.done)
	defer close(r.full)
	defer func() {
		if v := recover(); v != nil {
			r.panicked = v
		}
	}()
	for r.src.Instructions() < r.budget {
		var c *raChunk
		select {
		case c = <-r.free:
		case <-r.stop:
			return
		}
		w := c.w
		c.n = r.src.Fill(w.ev, w.req, w.done, w.reqs)
		c.instrs = r.src.Instructions()
		r.full <- c
		if c.n < len(w.ev) {
			return
		}
	}
}

// Fill implements EventSource, copying from the producer's chunks while
// it runs and from the source itself after it stopped.
func (r *ReadAhead) Fill(ev []isa.BlockEvent, req []uint64, done []bool, reqs []uint64) int {
	n := 0
	for n < len(ev) && !r.ended {
		if r.cur == nil && !r.inline {
			c, ok := <-r.full
			if ok {
				r.cur, r.off = c, 0
			} else if r.panicked != nil {
				panic(r.panicked)
			} else {
				r.inline = true
			}
		}
		if r.inline {
			k := r.src.Fill(ev[n:], req[n:], done[n:], reqs[n:])
			n += k
			r.ended = n < len(ev)
			break
		}
		c := r.cur
		w := c.w
		k := copy(ev[n:], w.ev[r.off:c.n])
		copy(req[n:], w.req[r.off:c.n])
		copy(done[n:], w.done[r.off:c.n])
		copy(reqs[n:], w.reqs[r.off:c.n])
		n += k
		r.off += k
		if r.off == c.n {
			r.instrs = c.instrs
			r.ended = c.n < len(w.ev)
			r.cur = nil
			r.free <- c
		}
	}
	if n > 0 {
		r.reqs = reqs[n-1]
	}
	return n
}

// Instructions implements EventSource: the instructions delivered to
// the machine, however far the producer has read.
func (r *ReadAhead) Instructions() uint64 {
	if r.inline {
		return r.src.Instructions()
	}
	n := r.instrs
	if r.cur != nil {
		for i := range r.cur.w.ev[:r.off] {
			n += uint64(r.cur.w.ev[i].NumInstr)
		}
	}
	return n
}

// Requests implements EventSource: the source's Requests count after
// the last delivered event.
func (r *ReadAhead) Requests() uint64 { return r.reqs }

// Err returns the source's Err once the stream has ended, for sources
// that have one; before that, and for sources without one, it is nil.
// By then the producer, if it still runs, no longer reads the source.
func (r *ReadAhead) Err() error {
	es, ok := r.src.(interface{ Err() error })
	if !ok || !r.ended {
		return nil
	}
	return es.Err()
}

// Close stops the producer, waits for it to exit and recycles the
// chunks.
func (r *ReadAhead) Close() {
	close(r.stop)
	<-r.done
	chunkPool.Put(r.chunks)
	r.chunks, r.cur = nil, nil
}
