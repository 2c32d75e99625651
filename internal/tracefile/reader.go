package tracefile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"hprefetch/internal/isa"
)

// Reader streams a recorded trace back as an event source (it satisfies
// Source and sim.EventSource). Frames are decoded one at a time into
// the reader's columns — memory stays bounded by the frame size, not
// the trace length — and the next frame loads eagerly when the current
// one drains, so the terminal condition is visible through Err before a
// zero event is ever returned:
//
//	ev := r.Next()
//	if ev.NumInstr == 0 { /* stream over: inspect r.Err() */ }
//
// Err is ErrExhausted after the clean end of a complete trace, wraps
// ErrTruncated when the file was cut mid-write (every event of the
// intact prefix has been delivered by then), and wraps ErrCorrupt when
// the bytes are damaged in place — a failed record checksum, a bad
// varint, a footer mismatch, a frame discontinuity, or a frame that
// disagrees with the index. Corruption is fail-stop: the prefix already
// delivered must not be trusted.
type Reader struct {
	traceFile

	// The current frame, decoded, and its inflated body; both are
	// reused across frames so steady-state replay allocates nothing.
	cols columns
	body []byte
	pos  int

	instr  uint64
	cur    Attrs
	end    frameStart // state after the current frame's last event
	loaded bool       // a first frame has been adopted (continuity checks on)
	err    error      // terminal condition, sticky
}

// Open opens a trace for streaming replay. The header must be intact;
// a torn or missing frame tail is not an error here — the reader
// delivers the intact prefix and reports ErrTruncated at its end.
func Open(path string) (*Reader, error) {
	r := &Reader{}
	if err := r.open(path); err != nil {
		return nil, err
	}
	r.loadFrame()
	return r, nil
}

// Err returns the terminal condition once the stream has ended:
// ErrExhausted after a complete trace, an error wrapping ErrTruncated
// after a torn one, an error wrapping ErrCorrupt after in-place damage,
// nil while events remain.
func (r *Reader) Err() error {
	if r.pos < len(r.cols.events) {
		return nil
	}
	return r.err
}

// Next returns the next event, or a zero event (NumInstr == 0) once the
// stream has ended — see Err for why.
func (r *Reader) Next() isa.BlockEvent {
	if r.pos >= len(r.cols.events) {
		return isa.BlockEvent{}
	}
	ev := r.cols.events[r.pos]
	r.cur = r.cols.attrs(r.pos)
	r.pos++
	r.instr += uint64(ev.NumInstr)
	if r.pos >= len(r.cols.events) {
		r.loadFrame()
	}
	return ev
}

// Fill writes the next events with their request marks and the request
// count after each (the sim.EventSource window contract), copying runs
// of the decoded columns a frame at a time; it fills fewer than len(ev)
// only when the stream ends — see Err for why.
func (r *Reader) Fill(ev []isa.BlockEvent, req []uint64, done []bool, reqs []uint64) int {
	req, done, reqs = req[:len(ev)], done[:len(ev)], reqs[:len(ev)]
	n := 0
	for n < len(ev) && r.pos < len(r.cols.events) {
		p, c := r.pos, &r.cols
		k := copy(ev[n:], c.events[p:])
		copy(req[n:n+k], c.reqID[p:])
		copy(done[n:n+k], c.done[p:])
		copy(reqs[n:n+k], c.requests[p:])
		for i := n; i < n+k; i++ {
			r.instr += uint64(ev[i].NumInstr)
		}
		r.pos += k
		n += k
		r.cur = c.attrs(r.pos - 1)
		if r.pos >= len(c.events) {
			r.loadFrame()
		}
	}
	return n
}

// Instructions, Requests, CurrentType, Stage, Depth, CurrentRequest and
// RequestDone mirror the engine's sampling contract: they describe the
// state after the most recently returned event (before any Next: the
// recorded pre-stream state).
func (r *Reader) Instructions() uint64   { return r.instr }
func (r *Reader) Requests() uint64       { return r.cur.Requests }
func (r *Reader) CurrentType() int       { return r.cur.Type }
func (r *Reader) Stage() int16           { return r.cur.Stage }
func (r *Reader) Depth() int             { return r.cur.Depth }
func (r *Reader) CurrentRequest() uint64 { return r.cur.Request }
func (r *Reader) RequestDone() bool      { return r.cur.Done }

// SkipToInstruction advances the stream until Instructions() >= n,
// using the frame index to seek past whole frames without decoding
// them. It returns the stream's terminal error if the trace ends first.
func (r *Reader) SkipToInstruction(n uint64) error {
	if r.index != nil {
		// Find the last frame starting at or before n; jump only if it
		// is ahead of the frame currently loaded (the reader streams
		// forward only).
		best := -1
		for i, fr := range r.index {
			if fr.StartInstr <= n {
				best = i
			}
		}
		if best >= 0 && r.index[best].StartInstr > r.instr {
			fr := r.index[best]
			r.off, r.next = fr.Off, best
			r.err = nil
			r.cols.truncate(0)
			r.pos = 0
			r.instr = fr.StartInstr
			r.loaded = false
			r.loadFrame()
		}
	}
	for r.instr < n {
		if ev := r.Next(); ev.NumInstr == 0 {
			return r.err
		}
	}
	return nil
}

// drain consumes the rest of the stream a frame at a time without
// handing out events and returns how many it passed over.
func (r *Reader) drain() uint64 {
	var events uint64
	for r.pos < len(r.cols.events) {
		events += uint64(len(r.cols.events) - r.pos)
		r.pos = len(r.cols.events)
		r.instr, r.cur = r.end.Instr, r.end.A
		r.loadFrame()
	}
	return events
}

// fail latches the terminal condition.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// loadFrame decodes the record at r.off into the reader's columns. The
// first frame (or a seek landing) sets the stream state; every later
// one must start exactly where the previous one ended.
func (r *Reader) loadFrame() {
	if r.err != nil {
		return
	}
	body, h, err := r.nextFrame(r.body)
	r.body = body
	if errors.Is(err, ErrExhausted) && r.loaded {
		if terr := r.checkTotals(r.end); terr != nil {
			err = terr
		}
	}
	if err != nil {
		r.fail(err)
		return
	}
	if r.loaded && h.start != r.end {
		r.fail(corruptf("frame discontinuity at instruction %d", r.end.Instr))
		return
	}
	r.cols.truncate(0)
	_, end, err := decodeFrame(body, &r.cols)
	if err != nil {
		r.fail(fmt.Errorf("%w: %v", ErrCorrupt, err))
		return
	}
	if !r.loaded {
		r.instr, r.cur = h.start.Instr, h.start.A
		r.loaded = true
	}
	r.end = end
	r.pos = 0
}

// HeaderFingerprint returns a cheap content identity for the trace at
// path: its byte size joined with a CRC over the file prefix and the
// header record's length and payload (magic, version, meta). Unlike
// size+mtime, it distinguishes an in-place re-record within one mtime
// tick on coarse-timestamp filesystems, because a different recording
// carries a different header (or a different length). It reads only
// the header — no frame is decoded.
//
// The record's own trailing CRC is deliberately excluded from the
// hashed region: a CRC computed over a message with its CRC appended
// is a constant residue, so including it would make every well-formed
// header fingerprint to the same value.
func HeaderFingerprint(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return "", err
	}
	var lenBuf [4]byte
	if _, err := f.ReadAt(lenBuf[:], headerPrefixSize); err != nil {
		return "", fmt.Errorf("tracefile: %s: %w (unreadable header)", path, ErrTruncated)
	}
	n := int64(binary.LittleEndian.Uint32(lenBuf[:]))
	if n > maxRecordBytes || n > st.Size()-headerPrefixSize-8 {
		return "", fmt.Errorf("tracefile: %s: %w (torn header)", path, ErrTruncated)
	}
	buf := make([]byte, headerPrefixSize+4+n)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, int64(len(buf))), buf); err != nil {
		return "", fmt.Errorf("tracefile: %s: %w (unreadable header)", path, ErrTruncated)
	}
	return fmt.Sprintf("%d:%08x", st.Size(), crc32.ChecksumIEEE(buf)), nil
}

// Info describes a trace file without replaying it into a simulator.
type Info struct {
	Meta   Meta
	Frames int
	// Events, Instructions and Requests are stream totals — for a
	// truncated trace, totals of the readable prefix.
	Events       uint64
	Instructions uint64
	Requests     uint64
	FileBytes    int64
	// Indexed reports a complete, seekable trace; Truncated a torn one.
	Indexed   bool
	Truncated bool
}

// Stat summarises a trace file. Complete traces answer from the index,
// once its shape and the first frame (which Open decodes) have checked
// out; truncated ones are decoded sequentially to measure the intact
// prefix.
func Stat(path string) (Info, error) {
	r, err := Open(path)
	if err != nil {
		return Info{}, err
	}
	defer r.Close()
	info := Info{Meta: r.meta, FileBytes: r.size, Indexed: r.Indexed()}
	if errors.Is(r.err, ErrCorrupt) {
		return info, fmt.Errorf("tracefile: %s: %w", path, r.err)
	}
	if r.index != nil {
		info.Frames = r.total.Frames
		info.Events = r.total.Events
		info.Instructions = r.total.Instructions
		info.Requests = r.total.Requests
		return info, nil
	}
	info.Events = r.drain()
	info.Frames = r.next
	info.Instructions = r.instr
	info.Requests = r.cur.Requests
	info.Truncated = errors.Is(r.err, ErrTruncated)
	if !info.Truncated && !errors.Is(r.err, ErrExhausted) {
		return info, r.err
	}
	return info, nil
}
