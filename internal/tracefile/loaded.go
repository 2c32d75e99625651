package tracefile

import (
	"errors"
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
	meta       Meta
	startInstr uint64
	startAttrs Attrs
	endInstr   uint64 // Instructions after the last event
	// The decoded stream in struct-of-arrays form: the events and, one
	// column per Attrs field, the attribution sampled after each. The
	// simulator's window reads events, requests, reqID and done in
	// place; type and depth fit 32 bits (maxTypeValue, maxDepth).
	events   []isa.BlockEvent
	requests []uint64
	reqID    []uint64
	done     []bool
	typ      []int32
	depth    []int32
	stage    []int16
	term     error // terminal condition: ErrExhausted, or wraps ErrTruncated
}

// Load decodes an entire trace into memory. A torn tail is not an
// error here either: the intact prefix loads and every cursor reports
// the truncation (via Err) once it runs past the end, mirroring the
// streaming Reader's contract. Corruption is different: a trace whose
// decode ends in ErrCorrupt fails Load outright — a damaged trace must
// never yield a replayable prefix.
func Load(path string) (*Loaded, error) {
	r, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	l := &Loaded{
		meta:       r.Meta(),
		startInstr: r.Instructions(),
		startAttrs: r.cur,
	}
	if n := r.total.Events; r.index != nil {
		l.events = make([]isa.BlockEvent, 0, n)
		l.requests = make([]uint64, 0, n)
		l.reqID = make([]uint64, 0, n)
		l.done = make([]bool, 0, n)
		l.typ = make([]int32, 0, n)
		l.depth = make([]int32, 0, n)
		l.stage = make([]int16, 0, n)
	}
	for {
		ev := r.Next()
		if ev.NumInstr == 0 {
			break
		}
		a := &r.cur
		l.events = append(l.events, ev)
		l.requests = append(l.requests, a.Requests)
		l.reqID = append(l.reqID, a.Request)
		l.done = append(l.done, a.Done)
		l.typ = append(l.typ, int32(a.Type))
		l.depth = append(l.depth, int32(a.Depth))
		l.stage = append(l.stage, a.Stage)
	}
	if errors.Is(r.Err(), ErrCorrupt) {
		return nil, fmt.Errorf("tracefile: %s: %w", path, r.Err())
	}
	l.term = r.Err()
	l.endInstr = r.Instructions()
	return l, nil
}

// attrs reassembles the attribution sampled after event i.
func (l *Loaded) attrs(i int) Attrs {
	return Attrs{
		Requests: l.requests[i],
		Type:     int(l.typ[i]),
		Stage:    l.stage[i],
		Depth:    int(l.depth[i]),
		Request:  l.reqID[i],
		Done:     l.done[i],
	}
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
	return &MemReader{l: l, instr: l.startInstr, cur: l.startAttrs}
}

// MemReader streams a Loaded trace as an event source (it satisfies
// Source and sim.EventSource) with the same sentinel-and-Err contract
// as the file-backed Reader.
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

// Err mirrors Reader.Err: nil while events remain, then the loaded
// trace's terminal condition.
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
		m.pos, m.instr, m.cur = n, l.endInstr, l.attrs(n-1)
	}
	return l.events[p:], l.reqID[p:], l.done[p:], l.requests[p:]
}
