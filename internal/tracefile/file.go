package tracefile

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// traceFile is an open trace read record by record: its header parsed,
// its frame index loaded when the trace is sealed, and the scratch
// that reading frame records reuses (the raw record and the flate
// decompressor, reset rather than reallocated). Reader streams a trace
// from one; Load decodes a whole trace from one.
type traceFile struct {
	f      *os.File
	meta   Meta
	size   int64
	sealed bool  // file ends with a valid trailer (completely written)
	first  int64 // offset of the first frame record
	index  []frameEntry
	total  Summary // valid when index != nil

	off  int64 // next unread record offset
	next int   // ordinal of the frame record at off

	rec  []byte
	zsrc bytes.Reader
	zr   io.ReadCloser
}

// open opens the trace at path and parses its header and, when the
// trace is sealed, its frame index. The header must be intact; a torn
// or missing frame tail is not an error here. A sealed trace vouches
// for its index: an index that is unreadable or disagrees with itself
// is corruption, not a reason to fall back to sequential reading. On
// error the file is closed.
func (t *traceFile) open(path string) (err error) {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	t.f, t.size = f, st.Size()
	t.sealed = t.probeSealed()

	prefix := make([]byte, headerPrefixSize)
	if _, err := io.ReadFull(f, prefix); err != nil {
		return fmt.Errorf("tracefile: %s: %w (unreadable header)", path, ErrTruncated)
	}
	if binary.LittleEndian.Uint64(prefix) != traceMagic {
		return fmt.Errorf("tracefile: %s: bad magic (not a trace file?)", path)
	}
	if v := binary.LittleEndian.Uint16(prefix[8:]); v != traceVersion {
		return fmt.Errorf("tracefile: %s: trace format version %d, this build reads version %d — re-record the trace",
			path, v, traceVersion)
	}
	t.off = headerPrefixSize
	payload, err := t.readRecord()
	if err != nil {
		return fmt.Errorf("tracefile: %s: header: %w", path, err)
	}
	if t.meta, err = decodeMeta(payload); err != nil {
		return fmt.Errorf("tracefile: %s: header: %w", path, err)
	}
	t.first = t.off
	if t.sealed {
		if err := t.loadIndex(); err != nil {
			return fmt.Errorf("tracefile: %s: index: %w", path, err)
		}
	}
	return nil
}

// Close releases the file.
func (t *traceFile) Close() error { return t.f.Close() }

// Meta returns the trace's identity header.
func (t *traceFile) Meta() Meta { return t.meta }

// Indexed reports whether the trace carries a complete frame index
// (false for truncated files, which fall back to sequential decoding).
func (t *traceFile) Indexed() bool { return t.index != nil }

// probeSealed reports whether the file ends with a valid trailer. A
// sealed file was completely written, so a record that later runs past
// EOF cannot be a torn tail — it is corruption (a damaged length field
// mid-file), and readRecord classifies it as such.
func (t *traceFile) probeSealed() bool {
	if t.size < headerPrefixSize+trailerSize {
		return false
	}
	var tr [trailerSize]byte
	if _, err := t.f.ReadAt(tr[:], t.size-trailerSize); err != nil {
		return false
	}
	return binary.LittleEndian.Uint64(tr[8:]) == trailerMagic
}

// tornOrCorrupt classifies a record that runs past EOF: in an unsealed
// file that is the torn tail of an interrupted recording (ErrTruncated);
// in a sealed file every record was once whole, so it is damage in place
// (ErrCorrupt).
func (t *traceFile) tornOrCorrupt(what string) error {
	if t.sealed {
		return corruptf("%s inside a sealed trace at offset %d", what, t.off)
	}
	return fmt.Errorf("%w (%s at offset %d)", ErrTruncated, what, t.off)
}

// readRecord reads the length-prefixed, CRC-guarded record at t.off and
// advances past it. The returned slice aliases the scratch buffer and
// is valid only until the next call. Errors distinguish a torn tail
// (wrapping ErrTruncated: the record runs past a clean EOF in an
// unsealed file) from damage in place (wrapping ErrCorrupt: a failed
// checksum, an implausible length field, or structural damage inside a
// sealed file).
func (t *traceFile) readRecord() ([]byte, error) {
	var lenBuf [4]byte
	if _, err := t.f.ReadAt(lenBuf[:], t.off); err != nil {
		return nil, t.tornOrCorrupt("file ends at record boundary")
	}
	n := int64(binary.LittleEndian.Uint32(lenBuf[:]))
	if n > maxRecordBytes {
		return nil, corruptf("implausible record length %d at offset %d", n, t.off)
	}
	if n > t.size-t.off-8 {
		return nil, t.tornOrCorrupt("torn record")
	}
	if int64(cap(t.rec)) < n+4 {
		t.rec = make([]byte, n+4)
	}
	buf := t.rec[:n+4]
	if _, err := t.f.ReadAt(buf, t.off+4); err != nil {
		return nil, t.tornOrCorrupt("torn record")
	}
	payload := buf[:n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[n:]) {
		return nil, corruptf("bad checksum at offset %d", t.off)
	}
	t.off += 4 + n + 4
	return payload, nil
}

// loadIndex loads the frame index of a sealed trace. The entries must
// start at the first frame record and end before the index itself;
// decodeIndex has checked the rest of their shape.
func (t *traceFile) loadIndex() error {
	var tr [trailerSize]byte
	if _, err := t.f.ReadAt(tr[:], t.size-trailerSize); err != nil {
		return corruptf("unreadable trailer: %v", err)
	}
	indexOff := int64(binary.LittleEndian.Uint64(tr[:8]))
	if indexOff < t.first || indexOff >= t.size-trailerSize {
		return corruptf("trailer points at offset %d, outside the record area", indexOff)
	}
	saved := t.off
	t.off = indexOff
	payload, err := t.readRecord()
	t.off = saved
	if err != nil {
		return err
	}
	entries, total, err := decodeIndex(payload)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if n := len(entries); n > 0 && (entries[0].Off != t.first || entries[n-1].Off >= indexOff) {
		return corruptf("index entries span offsets %d..%d, frames lie in %d..%d",
			entries[0].Off, entries[n-1].Off, t.first, indexOff)
	}
	t.index, t.total = entries, total
	return nil
}

// nextFrame reads the frame record at t.off, inflates its body into
// body (reusing its capacity) and parses the body's header, which must
// declare at least one event and, in an indexed trace, agree with the
// frame's index entry. It returns ErrExhausted at the index record, an
// error wrapping ErrTruncated at a torn tail, and one wrapping
// ErrCorrupt for damage in place.
func (t *traceFile) nextFrame(body []byte) ([]byte, frameHeader, error) {
	recOff := t.off
	payload, err := t.readRecord()
	if err != nil {
		return body, frameHeader{}, err // already wraps ErrTruncated or ErrCorrupt
	}
	if len(payload) == 0 {
		return body, frameHeader{}, corruptf("empty record at offset %d", recOff)
	}
	switch payload[0] {
	case recTypeIndex:
		if t.index != nil && t.next != len(t.index) {
			return body, frameHeader{}, corruptf("index lists %d frames, the trace holds %d", len(t.index), t.next)
		}
		return body, frameHeader{}, ErrExhausted
	case recTypeFrame:
	default:
		return body, frameHeader{}, corruptf("unknown record type %d at offset %d", payload[0], recOff)
	}
	br := &breader{buf: payload, off: 1}
	bodyLen := br.uvarint()
	// Deflate expands at most 1032:1: a longer declared body is damage,
	// and must not size the buffer below.
	if br.err != nil || bodyLen > maxRecordBytes || bodyLen > 1032*uint64(len(payload)-br.off) {
		return body, frameHeader{}, corruptf("corrupt frame length at offset %d", recOff)
	}
	if uint64(cap(body)) < bodyLen {
		body = make([]byte, bodyLen)
	}
	body = body[:bodyLen]
	t.zsrc.Reset(payload[br.off:])
	if t.zr == nil {
		t.zr = flate.NewReader(&t.zsrc)
	} else if err := t.zr.(flate.Resetter).Reset(&t.zsrc, nil); err != nil {
		return body, frameHeader{}, corruptf("resetting decompressor: %v", err)
	}
	if _, err := io.ReadFull(t.zr, body); err != nil {
		return body, frameHeader{}, corruptf("corrupt frame data: %v", err)
	}
	var over [1]byte
	if n, _ := t.zr.Read(over[:]); n != 0 {
		return body, frameHeader{}, corruptf("frame longer than declared")
	}
	h, err := frameHeaderOf(body)
	if err != nil {
		return body, frameHeader{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if h.count == 0 {
		return body, frameHeader{}, corruptf("empty frame")
	}
	if t.index != nil {
		if t.next >= len(t.index) {
			return body, frameHeader{}, corruptf("frame %d at offset %d is missing from the index", t.next, recOff)
		}
		e := t.index[t.next]
		if e.Off != recOff || e.Events != uint64(h.count) ||
			e.StartInstr != h.start.Instr || e.StartRequests != h.start.A.Requests {
			return body, frameHeader{}, corruptf("frame %d at offset %d (%d events from instruction %d) disagrees with its index entry (offset %d, %d events from instruction %d)",
				t.next, recOff, h.count, h.start.Instr, e.Off, e.Events, e.StartInstr)
		}
	}
	t.next++
	return body, h, nil
}

// checkTotals compares the state after a complete trace's last frame
// with the stream totals its index records.
func (t *traceFile) checkTotals(end frameStart) error {
	if t.index == nil || t.next == 0 {
		return nil
	}
	if end.Instr != t.total.Instructions || end.A.Requests != t.total.Requests {
		return corruptf("index totals (%d instructions, %d requests) disagree with the decoded stream (%d, %d)",
			t.total.Instructions, t.total.Requests, end.Instr, end.A.Requests)
	}
	return nil
}
