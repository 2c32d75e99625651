package tracefile

import (
	"fmt"

	"hprefetch/internal/isa"
)

// Loaded is a fully decoded in-memory trace. Decoding (CRC checks,
// inflate, varint/delta reconstruction) happens once in Load; Replay
// then hands out independent cursors whose Next is an array read —
// strictly cheaper than regenerating the stream live. This is the
// intended shape for replay-backed experiments, where one recorded
// trace feeds every scheme of a comparison: decode once, replay many.
type Loaded struct {
	meta Meta
	stream
	// The decoded stream, one column per field: 67 bytes an event, so
	// about 92 MB for a gin trace of hpsim's default 12M-instruction
	// window.
	columns
}

// reserveAhead bounds the room Load reserves for events a trace
// promises but has not yet decoded: reserveAhead default frames before
// any frame has decoded, and reserveAhead times the decoded events
// after that.
const reserveAhead = 8

// Load decodes an entire trace into memory. A torn tail is not an
// error: the intact prefix loads and every cursor reports the
// truncation (via Err) once it runs past the end. Corruption is
// different: a trace whose decode ends in ErrCorrupt fails Load
// outright — a damaged trace must never yield a replayable prefix.
//
// Load reads the trace once: each frame is checked, inflated into one
// reused body buffer and decoded straight into the columns before the
// next frame is read. When a frame of a sealed trace does not fit, Load
// reserves room for the rest of the trace as the index counts it, so an
// honest trace of up to reserveAhead default frames is allocated once,
// exactly, and a longer one in a few steps; the columns of a torn
// trace, which has no index, double as they fill. The reservation is
// capped by reserveAhead, and a frame header's count is taken a
// decodeChunk at a time (decodeFrame), so a crafted index or frame
// cannot make Load reserve more than reserveAhead×max(decodeChunk,
// decoded) events beyond those its frames really decode to.
func Load(path string) (*Loaded, error) {
	var t traceFile
	if err := t.open(path); err != nil {
		return nil, err
	}
	defer t.Close()
	l := &Loaded{meta: t.meta}
	var err error
	if l.stream, err = t.walk(&l.columns, true, 0); err != nil {
		return nil, fmt.Errorf("tracefile: %s: %w", path, err)
	}
	return l, nil
}

// Meta returns the trace's identity header.
func (l *Loaded) Meta() Meta { return l.meta }

// Events returns the number of decoded events.
func (l *Loaded) Events() int { return len(l.events) }

// Complete reports whether the decoded stream reached the trace's
// clean end (false for a truncated file's intact prefix).
func (l *Loaded) Complete() bool { return l.term == ErrExhausted }

// Replay returns a fresh cursor positioned at the recorded pre-stream
// state. Cursors are independent; any number may stream concurrently.
func (l *Loaded) Replay() *MemReader {
	return &MemReader{l: l, instr: l.start.Instr, cur: l.start.A}
}

// MemReader streams a Loaded trace as an event source (it satisfies
// Source, sim.EventSource and sim.BatchSource). Next returns a zero
// event (NumInstr == 0) once the stream has ended, and Err then says
// why.
type MemReader struct {
	l     *Loaded
	pos   int
	instr uint64
	cur   Attrs
}

// Next returns the next event, or a zero event once the stream has
// ended — inspect Err for whether the end was clean.
func (m *MemReader) Next() isa.BlockEvent {
	if m.pos >= len(m.l.events) {
		return isa.BlockEvent{}
	}
	ev := m.l.events[m.pos]
	m.cur = m.l.attrs(m.pos)
	m.pos++
	m.instr += uint64(ev.NumInstr)
	return ev
}

// Err is nil while events remain, then the loaded trace's terminal
// condition: ErrExhausted after a complete trace, an error wrapping
// ErrTruncated after the intact prefix of a torn one.
func (m *MemReader) Err() error {
	if m.pos < len(m.l.events) {
		return nil
	}
	return m.l.term
}

// Instructions, Requests, CurrentType, Stage, Depth, CurrentRequest and
// RequestDone follow the engine's sampling contract (state after the
// most recent event).
func (m *MemReader) Instructions() uint64   { return m.instr }
func (m *MemReader) Requests() uint64       { return m.cur.Requests }
func (m *MemReader) CurrentType() int       { return m.cur.Type }
func (m *MemReader) Stage() int16           { return m.cur.Stage }
func (m *MemReader) Depth() int             { return m.cur.Depth }
func (m *MemReader) CurrentRequest() uint64 { return m.cur.Request }
func (m *MemReader) RequestDone() bool      { return m.cur.Done }

// Fill writes the next events with their request marks and the request
// count after each (the sim.EventSource window contract); it fills
// fewer than len(ev) only when the stream ends. The simulator takes the
// zero-copy Batch instead.
func (m *MemReader) Fill(ev []isa.BlockEvent, req []uint64, done []bool, reqs []uint64) int {
	req, done, reqs = req[:len(ev)], done[:len(ev)], reqs[:len(ev)]
	for i := range ev {
		e := m.Next()
		if e.NumInstr == 0 {
			return i
		}
		ev[i], req[i], done[i], reqs[i] = e, m.cur.Request, m.cur.Done, m.cur.Requests
	}
	return len(ev)
}

// Batch hands over the undelivered remainder of the stream as flat
// parallel slices — the events, each event's request id, its
// request-done flip and the request count after it — and moves the
// cursor to the end of the stream (the sim.BatchSource contract). The
// slices alias the Loaded trace and must not be mutated.
func (m *MemReader) Batch() (ev []isa.BlockEvent, req []uint64, done []bool, reqs []uint64) {
	l, p := m.l, m.pos
	if n := len(l.events); p < n {
		m.pos, m.instr, m.cur = n, l.end.Instr, l.attrs(n-1)
	}
	return l.events[p:], l.reqID[p:], l.done[p:], l.requests[p:]
}
