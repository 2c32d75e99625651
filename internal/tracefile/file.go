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
)

// traceFile is a trace read record by record: its header parsed, its
// frame index loaded when the trace is sealed, and the scratch that
// reading frame records reuses (the raw record, the inflated body and
// the flate decompressor, reset rather than reallocated). Load, Stat
// and VerifyDeep decode a trace file through one with walk; LayoutOf
// walks a byte image's records through one with nextRecord. The length,
// checksum, record-type and index rules live here, once.
type traceFile struct {
	src      io.ReaderAt
	meta     Meta
	size     int64
	sealed   bool  // the trace ends with a valid trailer (completely written)
	first    int64 // offset of the first frame record
	indexOff int64 // offset of the index record, when sealed
	index    []frameEntry
	total    Summary // valid when index != nil

	off  int64 // next unread record offset
	next int   // ordinal of the frame record at off

	rec  []byte
	body []byte
	zsrc bytes.Reader
	zr   io.ReadCloser
}

// open opens the trace file at path and reads its header (see init).
// On error the file is closed.
func (t *traceFile) open(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err == nil {
		err = t.init(f, st.Size())
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("tracefile: %s: %w", path, err)
	}
	return nil
}

// init reads the header of the size-byte trace in src and, when the
// trace is sealed, its frame index. The header must be intact; a torn
// or missing frame tail is not an error here. A sealed trace vouches
// for its index: an index that is unreadable or disagrees with itself
// is corruption, not a reason to fall back to sequential reading.
func (t *traceFile) init(src io.ReaderAt, size int64) error {
	t.src, t.size = src, size
	t.sealed = t.probeSealed()

	var prefix [headerPrefixSize]byte
	if _, err := src.ReadAt(prefix[:], 0); err != nil {
		return fmt.Errorf("%w (unreadable header)", ErrTruncated)
	}
	if binary.LittleEndian.Uint64(prefix[:]) != traceMagic {
		return errors.New("bad magic (not a trace file?)")
	}
	if v := binary.LittleEndian.Uint16(prefix[8:]); v != traceVersion {
		return fmt.Errorf("trace format version %d, this build reads version %d — re-record the trace", v, traceVersion)
	}
	t.off = headerPrefixSize
	payload, err := t.readRecord()
	if err != nil {
		return fmt.Errorf("header: %w", err)
	}
	if t.meta, err = decodeMeta(payload); err != nil {
		return fmt.Errorf("header: %w", err)
	}
	t.first = t.off
	if t.sealed {
		if err := t.loadIndex(); err != nil {
			return fmt.Errorf("index: %w", err)
		}
	}
	return nil
}

// Close releases the file a trace was opened from.
func (t *traceFile) Close() error {
	if c, ok := t.src.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// probeSealed reports whether the trace ends with a valid trailer. A
// sealed trace was completely written, so a record that later runs past
// EOF cannot be a torn tail — it is corruption (a damaged length field
// mid-file), and readRecord classifies it as such.
func (t *traceFile) probeSealed() bool {
	if t.size < headerPrefixSize+trailerSize {
		return false
	}
	var tr [trailerSize]byte
	if _, err := t.src.ReadAt(tr[:], t.size-trailerSize); err != nil {
		return false
	}
	return binary.LittleEndian.Uint64(tr[8:]) == trailerMagic
}

// tornOrCorrupt classifies a record that runs past EOF: in an unsealed
// trace that is the torn tail of an interrupted recording
// (ErrTruncated); in a sealed one every record was once whole, so it is
// damage in place (ErrCorrupt).
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
// unsealed trace) from damage in place (wrapping ErrCorrupt: a failed
// checksum, an implausible length field, or structural damage inside a
// sealed trace).
func (t *traceFile) readRecord() ([]byte, error) {
	var lenBuf [4]byte
	if _, err := t.src.ReadAt(lenBuf[:], t.off); err != nil {
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
	if _, err := t.src.ReadAt(buf, t.off+4); err != nil {
		return nil, t.tornOrCorrupt("torn record")
	}
	payload := buf[:n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[n:]) {
		return nil, corruptf("bad checksum at offset %d", t.off)
	}
	t.off += 4 + n + 4
	return payload, nil
}

// loadIndex loads the frame index of a sealed trace. The index record
// must end where the trailer starts, and its entries must start at the
// first frame record and end before the index itself; decodeIndex has
// checked the rest of their shape.
func (t *traceFile) loadIndex() error {
	var tr [trailerSize]byte
	if _, err := t.src.ReadAt(tr[:], t.size-trailerSize); err != nil {
		return corruptf("unreadable trailer: %v", err)
	}
	indexOff := int64(binary.LittleEndian.Uint64(tr[:8]))
	if indexOff < t.first || indexOff >= t.size-trailerSize {
		return corruptf("trailer points at offset %d, outside the record area", indexOff)
	}
	saved := t.off
	t.off = indexOff
	payload, err := t.readRecord()
	end := t.off
	t.off = saved
	if err != nil {
		return err
	}
	if end != t.size-trailerSize {
		return corruptf("index record at offset %d ends at %d, the trailer starts at %d", indexOff, end, t.size-trailerSize)
	}
	entries, total, err := decodeIndex(payload)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if n := len(entries); n > 0 && (entries[0].Off != t.first || entries[n-1].Off >= indexOff) {
		return corruptf("index entries span offsets %d..%d, frames lie in %d..%d",
			entries[0].Off, entries[n-1].Off, t.first, indexOff)
	}
	t.indexOff, t.index, t.total = indexOff, entries, total
	return nil
}

// nextRecord reads the record at t.off and checks its type and place.
// In an indexed trace a frame record must lie where the index lists the
// next frame, and the index record must be the one the trailer points
// at, after every frame the index lists. It returns a frame record's
// payload (aliasing the scratch buffer), ErrExhausted at the index
// record, an error wrapping ErrTruncated at a torn tail, and one
// wrapping ErrCorrupt for damage in place.
func (t *traceFile) nextRecord() ([]byte, error) {
	recOff := t.off
	payload, err := t.readRecord()
	if err != nil {
		return nil, err // already wraps ErrTruncated or ErrCorrupt
	}
	if len(payload) == 0 {
		return nil, corruptf("empty record at offset %d", recOff)
	}
	switch payload[0] {
	case recTypeIndex:
		switch {
		case t.index == nil:
		case recOff != t.indexOff:
			return nil, corruptf("index record at offset %d but trailer points at %d", recOff, t.indexOff)
		case t.next != len(t.index):
			return nil, corruptf("index lists %d frames, the trace holds %d", len(t.index), t.next)
		}
		return nil, ErrExhausted
	case recTypeFrame:
	default:
		return nil, corruptf("unknown record type %d at offset %d", payload[0], recOff)
	}
	if t.index != nil {
		if t.next >= len(t.index) {
			return nil, corruptf("frame %d at offset %d is missing from the index", t.next, recOff)
		}
		if off := t.index[t.next].Off; off != recOff {
			return nil, corruptf("frame %d lies at offset %d, its index entry says %d", t.next, recOff, off)
		}
	}
	t.next++
	return payload, nil
}

// nextFrame reads the next frame record (see nextRecord), inflates its
// body into t.body (reusing its capacity) and parses the body's header,
// which must declare at least one event and, in an indexed trace, agree
// with the frame's index entry.
func (t *traceFile) nextFrame() (frameHeader, error) {
	recOff := t.off
	payload, err := t.nextRecord()
	if err != nil {
		return frameHeader{}, err
	}
	br := &breader{buf: payload, off: 1}
	bodyLen := br.uvarint()
	// Deflate expands at most 1032:1: a longer declared body is damage,
	// and must not size the buffer below.
	if br.err != nil || bodyLen > maxRecordBytes || bodyLen > 1032*uint64(len(payload)-br.off) {
		return frameHeader{}, corruptf("corrupt frame length at offset %d", recOff)
	}
	if uint64(cap(t.body)) < bodyLen {
		t.body = make([]byte, bodyLen)
	}
	t.body = t.body[:bodyLen]
	t.zsrc.Reset(payload[br.off:])
	if t.zr == nil {
		t.zr = flate.NewReader(&t.zsrc)
	} else if err := t.zr.(flate.Resetter).Reset(&t.zsrc, nil); err != nil {
		return frameHeader{}, corruptf("resetting decompressor: %v", err)
	}
	if _, err := io.ReadFull(t.zr, t.body); err != nil {
		return frameHeader{}, corruptf("corrupt frame data: %v", err)
	}
	var over [1]byte
	if n, _ := t.zr.Read(over[:]); n != 0 {
		return frameHeader{}, corruptf("frame longer than declared")
	}
	h, err := frameHeaderOf(t.body)
	if err != nil {
		return frameHeader{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if h.count == 0 {
		return frameHeader{}, corruptf("empty frame")
	}
	if t.index != nil {
		if e := t.index[t.next-1]; e.Events != uint64(h.count) ||
			e.StartInstr != h.start.Instr || e.StartRequests != h.start.A.Requests {
			return frameHeader{}, corruptf("frame %d at offset %d (%d events from instruction %d) disagrees with its index entry (%d events from instruction %d)",
				t.next-1, recOff, h.count, h.start.Instr, e.Events, e.StartInstr)
		}
	}
	return h, nil
}

// stream is what a walk over a trace's frames decoded: the state before
// its first event and after its last, the events in between, and how
// the stream ended — ErrExhausted after a complete trace, an error
// wrapping ErrTruncated after a torn one, nil if the walk stopped early.
type stream struct {
	start, end frameStart
	decoded    uint64
	term       error
}

// walk is the frame loop every reader of a trace file runs. From the
// first frame on, it reads each frame, checks it against the index and
// against the state the frame before it ended in, and decodes it into
// c: after the frames before it when keep is set (Load holds the whole
// stream), in their place otherwise (Stat and VerifyDeep hold one frame
// at a time). It stops after limit frames (0: no limit) or at the end
// of the stream, where a complete trace's index totals must match the
// decoded stream. Corruption is the returned error.
//
// When a kept frame of a sealed trace does not fit, walk reserves room
// for the rest of the trace as the index counts it, capped by
// reserveAhead (see Load).
func (t *traceFile) walk(c *columns, keep bool, limit int) (stream, error) {
	var s stream
	for limit == 0 || t.next < limit {
		h, err := t.nextFrame()
		if errors.Is(err, ErrCorrupt) {
			return s, err
		}
		if err != nil {
			s.term = err
			return s, t.checkTotals(s.end)
		}
		switch {
		case t.next == 1: // the first frame
			s.start = h.start
		case h.start != s.end:
			return s, corruptf("frame discontinuity at instruction %d", s.end.Instr)
		}
		if !keep {
			c.truncate(0)
		} else if n := len(c.events); t.index != nil && cap(c.events)-n < h.count {
			c.reserve(min(int(t.total.Events)-n, reserveAhead*max(decodeChunk, n)))
		}
		if _, s.end, err = decodeFrame(t.body, c); err != nil {
			return s, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		s.decoded += uint64(h.count)
	}
	return s, nil
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
