package tracefile

import (
	"hprefetch/internal/isa"
)

// The frame body codec. A frame is a self-contained slice of the event
// stream: its header carries the engine counters as they stood before
// the frame's first event (so attribution deltas have a base and replay
// can resume mid-stream), its footer repeats the running instruction
// and request counts for integrity, and each event is delta-encoded
// against its predecessor:
//
//	u8 flags      branch kind (bits 0-2), taken, tagged, func-changed,
//	              attrs-changed, addr-jump
//	uvarint       NumInstr
//	[addr-jump]   zigzag Addr − previous Target (omitted when the event
//	              continues where the last one pointed — the common case)
//	[branch≠none] zigzag Target − EndAddr
//	[func-chg]    zigzag Func − previous Func
//	[attrs-chg]   u8 attr bits, then per set bit: requests delta (uvarint,
//	              ≥1), new type (uvarint), new stage (zigzag), depth
//	              delta (zigzag, ≠0), request-id delta (zigzag, ≠0; ids
//	              hop backwards when an interleaver switches lanes), done
//	              flip (no payload — the bit itself toggles the flag)
//
// BrPC and a BrNone event's Target are derived from Addr and NumInstr,
// never stored. The decoder enforces canonical form throughout —
// minimal varints, no set flag with a zero delta, in-range values, a
// footer matching the recomputed totals — so any accepted body
// re-encodes to identical bytes (FuzzTraceDecode checks exactly this).

// Event flag bits.
const (
	evBranchMask byte = 0x07
	evTaken      byte = 1 << 3
	evTagged     byte = 1 << 4
	evFuncDelta  byte = 1 << 5
	evAttrDelta  byte = 1 << 6
	evAddrJump   byte = 1 << 7
)

// Attribute-change bits.
const (
	atRequests byte = 1 << 0
	atType     byte = 1 << 1
	atStage    byte = 1 << 2
	atDepth    byte = 1 << 3
	atRequest  byte = 1 << 4
	atDone     byte = 1 << 5
)

// Sanity bounds for decoded attribution values: generous multiples of
// anything the engine produces, tight enough that corrupt input cannot
// smuggle absurd state into a replayed run.
const (
	maxTypeValue = 1 << 20
	maxDepth     = 1 << 20
	// maxRequestID keeps request-id arithmetic inside int64 range so the
	// zigzag deltas below can never overflow.
	maxRequestID = uint64(1) << 62
)

// frameStart is the engine-observable state immediately before a
// frame's first event.
type frameStart struct {
	Instr uint64
	A     Attrs
}

// encodeFrameBody serialises one frame (uncompressed form).
// len(attrs) must equal len(events).
func encodeFrameBody(start frameStart, events []isa.BlockEvent, attrs []Attrs) []byte {
	w := &bwriter{buf: make([]byte, 0, 6*len(events)+64)}
	w.uvarint(uint64(len(events)))
	w.uvarint(start.Instr)
	w.uvarint(start.A.Requests)
	w.uvarint(uint64(start.A.Type))
	w.zigzag(int64(start.A.Stage))
	w.uvarint(uint64(start.A.Depth))
	w.uvarint(start.A.Request)
	done := byte(0)
	if start.A.Done {
		done = 1
	}
	w.u8(done)

	prevTarget := isa.Addr(0)
	prevFunc := isa.FuncID(0)
	prev := start.A
	instr := start.Instr
	for i := range events {
		ev := &events[i]
		a := attrs[i]
		flags := byte(ev.Branch) & evBranchMask
		if ev.Taken {
			flags |= evTaken
		}
		if ev.Tagged {
			flags |= evTagged
		}
		addrDelta := int64(ev.Addr) - int64(prevTarget)
		if addrDelta != 0 {
			flags |= evAddrJump
		}
		funcDelta := int64(ev.Func) - int64(prevFunc)
		if funcDelta != 0 {
			flags |= evFuncDelta
		}
		var ab byte
		if a.Requests != prev.Requests {
			ab |= atRequests
		}
		if a.Type != prev.Type {
			ab |= atType
		}
		if a.Stage != prev.Stage {
			ab |= atStage
		}
		if a.Depth != prev.Depth {
			ab |= atDepth
		}
		if a.Request != prev.Request {
			ab |= atRequest
		}
		if a.Done != prev.Done {
			ab |= atDone
		}
		if ab != 0 {
			flags |= evAttrDelta
		}

		w.u8(flags)
		w.uvarint(uint64(ev.NumInstr))
		if addrDelta != 0 {
			w.zigzag(addrDelta)
		}
		if ev.Branch != isa.BrNone {
			w.zigzag(int64(ev.Target) - int64(ev.EndAddr()))
		}
		if funcDelta != 0 {
			w.zigzag(funcDelta)
		}
		if ab != 0 {
			w.u8(ab)
			if ab&atRequests != 0 {
				w.uvarint(a.Requests - prev.Requests)
			}
			if ab&atType != 0 {
				w.uvarint(uint64(a.Type))
			}
			if ab&atStage != 0 {
				w.zigzag(int64(a.Stage))
			}
			if ab&atDepth != 0 {
				w.zigzag(int64(a.Depth) - int64(prev.Depth))
			}
			if ab&atRequest != 0 {
				w.zigzag(int64(a.Request) - int64(prev.Request))
			}
			// atDone carries no payload: the bit is the toggle.
		}

		prevTarget = ev.Target
		prevFunc = ev.Func
		prev = a
		instr += uint64(ev.NumInstr)
	}
	w.uvarint(instr)
	w.uvarint(prev.Requests)
	return w.buf
}

// columns is a decoded event stream in struct-of-arrays form: the
// events and, one column per Attrs field, the attribution sampled after
// each. The simulator's window reads events, requests, reqID and done
// in place; type and depth fit 32 bits (maxTypeValue, maxDepth).
// decodeFrame writes a frame straight into them: a Loaded trace holds
// the whole stream, Stat and VerifyDeep one frame at a time.
type columns struct {
	events   []isa.BlockEvent
	requests []uint64
	reqID    []uint64
	done     []bool
	typ      []int32
	depth    []int32
	stage    []int16
}

// reserve makes room for n more events in every column without
// extending them: a column that falls short is reallocated to exactly
// its length plus n.
func (c *columns) reserve(n int) {
	c.events = reserved(c.events, n)
	c.requests = reserved(c.requests, n)
	c.reqID = reserved(c.reqID, n)
	c.done = reserved(c.done, n)
	c.typ = reserved(c.typ, n)
	c.depth = reserved(c.depth, n)
	c.stage = reserved(c.stage, n)
}

// reserved returns s with room for n more elements, allocating only
// the new array: slices.Grow also allocates a temporary when built with
// -race, which the allocation tests would count.
func reserved[E any](s []E, n int) []E {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make([]E, 0, len(s)+n), s...)
}

// grow extends every column by n slots and returns the previous length.
// Columns whose capacity falls short are at least doubled, so a stream
// that grows frame by frame copies each event a bounded number of
// times. The new slots hold stale or zero values until written.
func (c *columns) grow(n int) int {
	base := len(c.events)
	if cap(c.events)-base < n {
		c.reserve(max(n, base))
	}
	c.events, c.requests, c.reqID, c.done = c.events[:base+n], c.requests[:base+n], c.reqID[:base+n], c.done[:base+n]
	c.typ, c.depth, c.stage = c.typ[:base+n], c.depth[:base+n], c.stage[:base+n]
	return base
}

// truncate cuts every column back to n events.
func (c *columns) truncate(n int) {
	c.events, c.requests, c.reqID, c.done = c.events[:n], c.requests[:n], c.reqID[:n], c.done[:n]
	c.typ, c.depth, c.stage = c.typ[:n], c.depth[:n], c.stage[:n]
}

// attrs reassembles the attribution sampled after event i.
func (c *columns) attrs(i int) Attrs {
	return Attrs{
		Requests: c.requests[i],
		Type:     int(c.typ[i]),
		Stage:    c.stage[i],
		Depth:    int(c.depth[i]),
		Request:  c.reqID[i],
		Done:     c.done[i],
	}
}

// frameHeader is what a frame body declares ahead of its events.
type frameHeader struct {
	count int
	start frameStart
}

// readFrameHeader parses and range-checks a frame body's header. The
// count is checked against the bytes left in the body (an event takes
// at least two); those bytes may still be junk, so decodeFrame takes
// the count a decodeChunk at a time.
func readFrameHeader(r *breader) frameHeader {
	var h frameHeader
	count := r.uvarint()
	h.start.Instr = r.uvarint()
	h.start.A.Requests = r.uvarint()
	typ := r.uvarint()
	stage := r.zigzag()
	depth := r.uvarint()
	req := r.uvarint()
	done := r.u8()
	if r.err == nil {
		switch {
		case count > maxFrameEvents:
			r.fail("implausible frame event count %d", count)
		case 2*count > uint64(len(r.buf)-r.off):
			r.fail("frame event count %d exceeds payload", count)
		case typ > maxTypeValue:
			r.fail("start type %d out of range", typ)
		case stage < -32768 || stage > 32767:
			r.fail("start stage %d out of range", stage)
		case depth > maxDepth:
			r.fail("start depth %d out of range", depth)
		case req > maxRequestID:
			r.fail("start request id %d out of range", req)
		case done > 1:
			r.fail("start done flag %d out of range", done)
		}
	}
	if r.err != nil {
		return frameHeader{}
	}
	h.count = int(count)
	h.start.A.Type = int(typ)
	h.start.A.Stage = int16(stage)
	h.start.A.Depth = int(depth)
	h.start.A.Request = req
	h.start.A.Done = done == 1
	return h
}

// frameHeaderOf parses the header of a frame body without decoding its
// events.
func frameHeaderOf(body []byte) (frameHeader, error) {
	r := &breader{buf: body}
	h := readFrameHeader(r)
	return h, r.err
}

// decodeChunk bounds how far decodeFrame extends the columns ahead of
// the events it has decoded. A frame header's count is checked only
// against the bytes of its body (two an event), so a frame that
// declares more events than a default frame holds grows the columns a
// chunk at a time: a body of junk fails inside its first chunk, having
// claimed at most decodeChunk slots whatever count its header declares.
const decodeChunk = DefaultFrameEvents

// decodeFrame parses one frame body, enforcing canonical encoding, and
// appends its events to c: the columns grow by the frame's count, a
// chunk at a time, and each slot is written in place. It returns the
// engine state before the frame's first event and after its last. On
// error c is cut back to its length on entry, so a failed frame never
// leaves a partial frame behind. It never panics on corrupt input.
func decodeFrame(body []byte, c *columns) (start, end frameStart, err error) {
	r := &breader{buf: body}
	h := readFrameHeader(r)
	if r.err != nil {
		return start, end, r.err
	}
	base := len(c.events)
	e := eventDecoder{r: r, a: h.start.A, instr: h.start.Instr}
	for i := 0; i < h.count && r.err == nil; i += decodeChunk {
		e.decode(c, i, min(decodeChunk, h.count-i))
	}
	if r.err == nil {
		endInstr := r.uvarint()
		endReq := r.uvarint()
		if r.err == nil && (endInstr != e.instr || endReq != e.a.Requests) {
			r.fail("frame footer mismatch: instructions %d/%d, requests %d/%d",
				endInstr, e.instr, endReq, e.a.Requests)
		}
	}
	if err := r.done(); err != nil {
		c.truncate(base)
		return start, end, err
	}
	return h.start, frameStart{Instr: e.instr, A: e.a}, nil
}

// eventDecoder is the delta state one event of a frame hands to the
// next.
type eventDecoder struct {
	r          *breader
	prevTarget isa.Addr
	prevFunc   isa.FuncID
	a          Attrs // the attribution after the previous event
	instr      uint64
}

// decode extends c by n slots and decodes the frame's events first to
// first+n-1 into them. It stops at the first error, which it leaves in
// e.r.
func (e *eventDecoder) decode(c *columns, first, n int) {
	r := e.r
	base := c.grow(n)
	events := c.events[base:]
	requests, reqID, done := c.requests[base:], c.reqID[base:], c.done[base:]
	typ, depth, stage := c.typ[base:], c.depth[base:], c.stage[base:]
	requests, reqID, done = requests[:len(events)], reqID[:len(events)], done[:len(events)]
	typ, depth, stage = typ[:len(events)], depth[:len(events)], stage[:len(events)]

	prevTarget, prevFunc, a, instr := e.prevTarget, e.prevFunc, e.a, e.instr
	for i := range events {
		if r.err != nil {
			break
		}
		flags := r.u8()
		ev := &events[i]
		ev.Branch = isa.BranchKind(flags & evBranchMask)
		if ev.Branch > isa.BrRet {
			r.fail("event %d: branch kind %d out of range", first+i, ev.Branch)
			break
		}
		ev.Taken = flags&evTaken != 0
		ev.Tagged = flags&evTagged != 0
		n := r.uvarint()
		if r.err == nil && (n == 0 || n > isa.InstrPerBlock) {
			r.fail("event %d: instruction count %d out of range", first+i, n)
			break
		}
		ev.NumInstr = uint16(n)
		addr := int64(prevTarget)
		if flags&evAddrJump != 0 {
			d := r.zigzag()
			if r.err == nil && d == 0 {
				r.fail("event %d: addr-jump flag with zero delta", first+i)
				break
			}
			addr += d
		}
		if addr < 0 {
			r.fail("event %d: negative address", first+i)
			break
		}
		ev.Addr = isa.Addr(addr)
		endAddr := ev.EndAddr()
		if ev.Branch != isa.BrNone {
			tgt := int64(endAddr) + r.zigzag()
			if tgt < 0 {
				r.fail("event %d: negative branch target", first+i)
				break
			}
			ev.Target = isa.Addr(tgt)
			ev.BrPC = endAddr - isa.InstrSize
		} else {
			ev.Target = endAddr
			ev.BrPC = 0
		}
		fn := int64(prevFunc)
		if flags&evFuncDelta != 0 {
			d := r.zigzag()
			if r.err == nil && d == 0 {
				r.fail("event %d: func-changed flag with zero delta", first+i)
				break
			}
			fn += d
		}
		if fn < 0 || fn > int64(^uint32(0)) {
			r.fail("event %d: function id out of range", first+i)
			break
		}
		ev.Func = isa.FuncID(fn)

		if flags&evAttrDelta != 0 {
			ab := r.u8()
			if r.err == nil && (ab == 0 || ab&^(atRequests|atType|atStage|atDepth|atRequest|atDone) != 0) {
				r.fail("event %d: invalid attr bits %#x", first+i, ab)
				break
			}
			if ab&atRequests != 0 {
				d := r.uvarint()
				if r.err == nil && d == 0 {
					r.fail("event %d: request flag with zero delta", first+i)
					break
				}
				a.Requests += d
			}
			if ab&atType != 0 {
				t := r.uvarint()
				if r.err == nil && (t == uint64(a.Type) || t > maxTypeValue) {
					r.fail("event %d: non-canonical type %d", first+i, t)
					break
				}
				a.Type = int(t)
			}
			if ab&atStage != 0 {
				s := r.zigzag()
				if r.err == nil && (s == int64(a.Stage) || s < -32768 || s > 32767) {
					r.fail("event %d: non-canonical stage %d", first+i, s)
					break
				}
				a.Stage = int16(s)
			}
			if ab&atDepth != 0 {
				d := r.zigzag()
				nd := int64(a.Depth) + d
				if r.err == nil && (d == 0 || nd < 0 || nd > maxDepth) {
					r.fail("event %d: non-canonical depth delta %d", first+i, d)
					break
				}
				a.Depth = int(nd)
			}
			if ab&atRequest != 0 {
				d := r.zigzag()
				nr := int64(a.Request) + d
				if r.err == nil && (d == 0 || nr < 0 || uint64(nr) > maxRequestID) {
					r.fail("event %d: non-canonical request-id delta %d", first+i, d)
					break
				}
				a.Request = uint64(nr)
			}
			if ab&atDone != 0 {
				a.Done = !a.Done
			}
		}

		requests[i] = a.Requests
		reqID[i] = a.Request
		done[i] = a.Done
		typ[i] = int32(a.Type)
		depth[i] = int32(a.Depth)
		stage[i] = a.Stage
		prevTarget = ev.Target
		prevFunc = ev.Func
		instr += uint64(ev.NumInstr)
	}
	e.prevTarget, e.prevFunc, e.a, e.instr = prevTarget, prevFunc, a, instr
}
