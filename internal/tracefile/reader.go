package tracefile

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"hprefetch/internal/isa"
)

// Reader streams a recorded trace back as an event source (it satisfies
// Source and sim.EventSource). Frames are decoded one at a time —
// memory stays bounded by the frame size, not the trace length — and
// the next frame loads eagerly when the current one drains, so the
// terminal condition is visible through Err before a zero event is ever
// returned:
//
//	ev := r.Next()
//	if ev.NumInstr == 0 { /* stream over: inspect r.Err() */ }
//
// Err is ErrExhausted after the clean end of a complete trace, wraps
// ErrTruncated when the file was cut mid-write (every event of the
// intact prefix has been delivered by then), and wraps ErrCorrupt when
// the bytes are damaged in place — a failed record checksum, a bad
// varint, a footer mismatch, or a frame discontinuity. Corruption is
// fail-stop: the prefix already delivered must not be trusted.
type Reader struct {
	f    *os.File
	meta Meta
	size int64

	events []isa.BlockEvent
	attrs  []Attrs
	pos    int

	// Per-frame scratch, reused across loads so steady-state replay
	// allocates nothing: the raw record, the inflated body, and the
	// flate decompressor itself (reset, not reallocated).
	rec  []byte
	body []byte
	zsrc bytes.Reader
	zr   io.ReadCloser

	instr  uint64
	cur    Attrs
	loaded bool // a first frame has been adopted (continuity checks on)

	off    int64 // next unread record offset
	first  int64 // offset of the first frame record
	frames int   // frames decoded so far
	sealed bool  // file ends with a valid trailer (completely written)
	index  []frameEntry
	total  Summary // valid when index != nil
	err    error   // terminal condition, sticky
}

// Open opens a trace for streaming replay. The header must be intact;
// a torn or missing frame tail is not an error here — the reader
// delivers the intact prefix and reports ErrTruncated at its end.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r := &Reader{f: f, size: st.Size()}
	r.sealed = r.probeSealed()

	prefix := make([]byte, headerPrefixSize)
	if _, err := io.ReadFull(f, prefix); err != nil {
		f.Close()
		return nil, fmt.Errorf("tracefile: %s: %w (unreadable header)", path, ErrTruncated)
	}
	if binary.LittleEndian.Uint64(prefix) != traceMagic {
		f.Close()
		return nil, fmt.Errorf("tracefile: %s: bad magic (not a trace file?)", path)
	}
	if v := binary.LittleEndian.Uint16(prefix[8:]); v != traceVersion {
		f.Close()
		return nil, fmt.Errorf("tracefile: %s: trace format version %d, this build reads version %d — re-record the trace",
			path, v, traceVersion)
	}
	r.off = headerPrefixSize
	payload, err := r.readRecord()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("tracefile: %s: header: %w", path, err)
	}
	meta, err := decodeMeta(payload)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("tracefile: %s: header: %w", path, err)
	}
	r.meta = meta
	r.first = r.off

	r.loadIndex()
	r.loadFrame(false)
	return r, nil
}

// Close releases the file.
func (r *Reader) Close() error { return r.f.Close() }

// Meta returns the trace's identity header.
func (r *Reader) Meta() Meta { return r.meta }

// Indexed reports whether the trace carries a complete frame index
// (false for truncated files, which fall back to sequential decoding).
func (r *Reader) Indexed() bool { return r.index != nil }

// Err returns the terminal condition once the stream has ended:
// ErrExhausted after a complete trace, an error wrapping ErrTruncated
// after a torn one, an error wrapping ErrCorrupt after in-place damage,
// nil while events remain.
func (r *Reader) Err() error {
	if r.pos < len(r.events) {
		return nil
	}
	return r.err
}

// Next returns the next event, or a zero event (NumInstr == 0) once the
// stream has ended — see Err for why.
func (r *Reader) Next() isa.BlockEvent {
	if r.pos >= len(r.events) {
		return isa.BlockEvent{}
	}
	ev := r.events[r.pos]
	r.cur = r.attrs[r.pos]
	r.pos++
	r.instr += uint64(ev.NumInstr)
	if r.pos >= len(r.events) {
		r.loadFrame(true)
	}
	return ev
}

// Fill writes the next events with their request marks and the request
// count after each (the sim.EventSource window contract); it fills
// fewer than len(ev) only when the stream ends — see Err for why.
func (r *Reader) Fill(ev []isa.BlockEvent, req []uint64, done []bool, reqs []uint64) int {
	req, done, reqs = req[:len(ev)], done[:len(ev)], reqs[:len(ev)]
	for i := range ev {
		e := r.Next()
		if e.NumInstr == 0 {
			return i
		}
		ev[i], req[i], done[i], reqs[i] = e, r.cur.Request, r.cur.Done, r.cur.Requests
	}
	return len(ev)
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
			r.off = fr.Off
			r.err = nil
			r.events = r.events[:0]
			r.attrs = r.attrs[:0]
			r.pos = 0
			r.instr = fr.StartInstr
			r.loaded = false
			r.loadFrame(false)
		}
	}
	for r.instr < n {
		if ev := r.Next(); ev.NumInstr == 0 {
			return r.err
		}
	}
	return nil
}

// fail latches the terminal condition.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// probeSealed reports whether the file ends with a valid trailer. A
// sealed file was completely written, so a record that later runs past
// EOF cannot be a torn tail — it is corruption (a damaged length field
// mid-file), and readRecord classifies it as such.
func (r *Reader) probeSealed() bool {
	if r.size < headerPrefixSize+trailerSize {
		return false
	}
	var tr [trailerSize]byte
	if _, err := r.f.ReadAt(tr[:], r.size-trailerSize); err != nil {
		return false
	}
	return binary.LittleEndian.Uint64(tr[8:]) == trailerMagic
}

// tornOrCorrupt classifies a record that runs past EOF: in an unsealed
// file that is the torn tail of an interrupted recording (ErrTruncated);
// in a sealed file every record was once whole, so it is damage in place
// (ErrCorrupt).
func (r *Reader) tornOrCorrupt(what string) error {
	if r.sealed {
		return corruptf("%s inside a sealed trace at offset %d", what, r.off)
	}
	return fmt.Errorf("%w (%s at offset %d)", ErrTruncated, what, r.off)
}

// readRecord reads the length-prefixed, CRC-guarded record at r.off and
// advances past it. The returned slice aliases the reader's scratch
// buffer and is valid only until the next call. Errors distinguish a
// torn tail (wrapping ErrTruncated: the record runs past a clean EOF in
// an unsealed file) from damage in place (wrapping ErrCorrupt: a failed
// checksum, an implausible length field, or structural damage inside a
// sealed file).
func (r *Reader) readRecord() ([]byte, error) {
	var lenBuf [4]byte
	if _, err := r.f.ReadAt(lenBuf[:], r.off); err != nil {
		return nil, r.tornOrCorrupt("file ends at record boundary")
	}
	n := int64(binary.LittleEndian.Uint32(lenBuf[:]))
	if n > maxRecordBytes {
		return nil, corruptf("implausible record length %d at offset %d", n, r.off)
	}
	if n > r.size-r.off-8 {
		return nil, r.tornOrCorrupt("torn record")
	}
	if int64(cap(r.rec)) < n+4 {
		r.rec = make([]byte, n+4)
	}
	buf := r.rec[:n+4]
	if _, err := r.f.ReadAt(buf, r.off+4); err != nil {
		return nil, r.tornOrCorrupt("torn record")
	}
	payload := buf[:n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[n:]) {
		return nil, corruptf("bad checksum at offset %d", r.off)
	}
	r.off += 4 + n + 4
	return payload, nil
}

// loadIndex probes the trailer and, when the trace is complete, loads
// the frame index. Any failure silently degrades to sequential reading.
func (r *Reader) loadIndex() {
	if r.size < r.first+trailerSize {
		return
	}
	var tr [trailerSize]byte
	if _, err := r.f.ReadAt(tr[:], r.size-trailerSize); err != nil {
		return
	}
	if binary.LittleEndian.Uint64(tr[8:]) != trailerMagic {
		return
	}
	indexOff := int64(binary.LittleEndian.Uint64(tr[:8]))
	if indexOff < r.first || indexOff >= r.size-trailerSize {
		return
	}
	saved := r.off
	r.off = indexOff
	payload, err := r.readRecord()
	r.off = saved
	if err != nil {
		return
	}
	entries, total, err := decodeIndex(payload)
	if err != nil {
		return
	}
	r.index = entries
	r.total = total
}

// loadFrame decodes the record at r.off into the event buffer. With
// sync set it verifies stream continuity against the running counters
// (sequential reads); without, it adopts the frame's start state (the
// first frame, or a seek landing).
func (r *Reader) loadFrame(sync bool) {
	if r.err != nil {
		return
	}
	payload, err := r.readRecord()
	if err != nil {
		r.fail(err) // already wraps ErrTruncated or ErrCorrupt
		return
	}
	if len(payload) == 0 {
		r.fail(corruptf("empty record at offset %d", r.off))
		return
	}
	switch payload[0] {
	case recTypeIndex:
		r.fail(ErrExhausted)
		return
	case recTypeFrame:
	default:
		r.fail(corruptf("unknown record type %d at offset %d", payload[0], r.off))
		return
	}
	br := &breader{buf: payload, off: 1}
	bodyLen := br.uvarint()
	if br.err != nil || bodyLen > maxRecordBytes {
		r.fail(corruptf("corrupt frame length at offset %d", r.off))
		return
	}
	if uint64(cap(r.body)) < bodyLen {
		r.body = make([]byte, bodyLen)
	}
	body := r.body[:bodyLen]
	r.zsrc.Reset(payload[br.off:])
	if r.zr == nil {
		r.zr = flate.NewReader(&r.zsrc)
	} else if err := r.zr.(flate.Resetter).Reset(&r.zsrc, nil); err != nil {
		r.fail(corruptf("resetting decompressor: %v", err))
		return
	}
	if _, err := io.ReadFull(r.zr, body); err != nil {
		r.fail(corruptf("corrupt frame data: %v", err))
		return
	}
	var over [1]byte
	if n, _ := r.zr.Read(over[:]); n != 0 {
		r.fail(corruptf("frame longer than declared"))
		return
	}
	start, events, attrs, err := decodeFrameBodyInto(body, r.events[:0], r.attrs[:0])
	if err != nil {
		r.fail(fmt.Errorf("%w: %v", ErrCorrupt, err))
		return
	}
	if len(events) == 0 {
		r.fail(corruptf("empty frame"))
		return
	}
	if sync || r.loaded {
		if start.Instr != r.instr || start.A != r.cur {
			r.fail(corruptf("frame discontinuity at instruction %d", r.instr))
			return
		}
	} else {
		r.instr = start.Instr
		r.cur = start.A
		r.loaded = true
	}
	r.events = events
	r.attrs = attrs
	r.pos = 0
	r.frames++
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

// Stat summarises a trace file. Complete traces answer from the index;
// truncated ones are decoded sequentially to measure the intact prefix.
func Stat(path string) (Info, error) {
	r, err := Open(path)
	if err != nil {
		return Info{}, err
	}
	defer r.Close()
	info := Info{Meta: r.meta, FileBytes: r.size, Indexed: r.Indexed()}
	if r.index != nil {
		info.Frames = r.total.Frames
		info.Events = r.total.Events
		info.Instructions = r.total.Instructions
		info.Requests = r.total.Requests
		return info, nil
	}
	var events uint64
	for {
		ev := r.Next()
		if ev.NumInstr == 0 {
			break
		}
		events++
	}
	info.Frames = r.frames
	info.Events = events
	info.Instructions = r.instr
	info.Requests = r.cur.Requests
	info.Truncated = errors.Is(r.err, ErrTruncated)
	if !info.Truncated && !errors.Is(r.err, ErrExhausted) {
		return info, r.err
	}
	return info, nil
}
