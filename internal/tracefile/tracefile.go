// Package tracefile persists the execution engine's retired block-event
// stream (isa.BlockEvent plus the engine's per-event attribution) as a
// compact, self-describing on-disk trace, and decodes it back into
// memory to replay as an event source. Recording decouples the expensive stream generation
// (interpreting the synthetic program) from the fast timing simulation:
// record once, replay many — every replayed run is observationally
// identical to the live run it was captured from, so statistics digests
// match bit for bit.
//
// File layout:
//
//	u64 magic | u16 version                  fixed 10-byte prefix
//	u32 len | header payload | u32 CRC-32    workload, seed, target
//	frame record*                            ~64K events each
//	index record                             per-frame offsets + totals
//	u64 index offset | u64 trailer magic     fixed 16-byte trailer
//
// Every record is framed journal-style (u32 payload length, payload,
// u32 CRC-32/IEEE of the payload); the payload's first byte is the
// record type. A frame record carries the uncompressed body length and
// a flate-compressed frame body; the body itself is varint + delta
// encoded (see frame.go) and starts with the running instruction and
// request counters, so each frame decodes independently and the index
// makes any instruction position seekable without decoding the prefix.
//
// A trace cut mid-write stays readable: Load decodes every event up to
// the last complete frame, and its cursors then report ErrTruncated
// (the journal's torn-tail semantics). A complete trace ends with the
// index record, after which they report ErrExhausted.
package tracefile

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hprefetch/internal/isa"
)

const (
	// traceMagic identifies the trace format ("HPTR" + version packing,
	// journal-style).
	traceMagic uint64 = 0x4850_5452_0001_0001
	// traceVersion is the current format version. Version 2 added the
	// per-request boundary marks (Attrs.Request/Done) that per-request
	// tail metrics replay from; version-1 traces are rejected with a
	// re-record hint.
	traceVersion uint16 = 2
	// headerPrefixSize is the fixed magic + version prefix.
	headerPrefixSize = 10
	// trailerMagic terminates a completely written trace.
	trailerMagic uint64 = 0x4850_5452_1D8E_7A11
	// trailerSize is the fixed index-offset + magic trailer.
	trailerSize = 16

	// recTypeFrame and recTypeIndex discriminate record payloads.
	recTypeFrame byte = 1
	recTypeIndex byte = 2

	// DefaultFrameEvents is how many events a frame holds before it is
	// compressed and flushed.
	DefaultFrameEvents = 65536
	// maxFrameEvents bounds the per-frame event count a decoder will
	// accept (a hostile count cannot force a huge allocation).
	maxFrameEvents = 1 << 21
	// maxRecordBytes bounds a single record's framed payload.
	maxRecordBytes = 1 << 28
)

// TailEvents is how many events past the recording target a recorder
// appends before closing the trace. The simulator's lookahead ring
// pulls a handful of events beyond the last retired instruction, and
// different schemes (and the FDIP baseline of a speedup comparison)
// pull slightly different amounts — the tail lets one recorded trace
// feed any scheme's lookahead across the same warm+measure window.
const TailEvents = 4096

// ErrTruncated reports a trace whose tail is torn or missing — a clean
// EOF mid-record, the signature of a recording interrupted mid-write.
// Every event up to the last complete frame was decoded; the readable
// prefix is trustworthy, only the tail is gone.
var ErrTruncated = errors.New("tracefile: truncated trace")

// ErrCorrupt reports a trace whose bytes are damaged in place: a record
// checksum that does not match its payload, a malformed or non-minimal
// varint, a frame-counter footer disagreeing with the decoded events, a
// stream discontinuity between frames, or structural damage inside a
// sealed (trailer-carrying) file. Unlike ErrTruncated, corruption means
// the readable prefix cannot be trusted either — consumers must fail
// stop and never replay a prefix of a corrupt trace.
var ErrCorrupt = errors.New("tracefile: corrupt trace")

// ErrExhausted reports reading past the clean end of a complete trace.
var ErrExhausted = errors.New("tracefile: trace exhausted")

// corruptf wraps ErrCorrupt with a located description.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Meta identifies what a trace was recorded from. Replay validates
// workload and seed so a trace can never silently stand in for a
// different stream.
type Meta struct {
	// Workload is the workload preset name.
	Workload string
	// Seed is the engine seed the stream was generated with.
	Seed uint64
	// TargetInstructions is the instruction count the recording aimed to
	// cover (advisory; the actual stream runs TailEvents further).
	TargetInstructions uint64
}

// Attrs is the engine's observable attribution state sampled after an
// event: the counters the simulator and the Figure 1 instrumentation
// read between Next calls. Recording them per event is what makes
// replayed per-request-type and per-stage views identical to live ones.
type Attrs struct {
	// Requests is the number of requests started so far.
	Requests uint64
	// Type is the request type being processed.
	Type int
	// Stage is the effective pipeline stage (program.NoStage outside one).
	Stage int16
	// Depth is the simulated call-stack depth.
	Depth int
	// Request is the id of the request the event belongs to. Under an
	// interleaving source (microservice load generation) ids are unique
	// per in-flight request but not monotonic in the stream.
	Request uint64
	// Done marks the event as its request's last: the fetch-stall
	// accumulated for Request is complete once this event retires.
	Done bool
}

// Source is the per-event stream a Recorder tees and Record drives:
// Next returns one event, and the other methods describe the state
// after it (its attribution and request marks). trace.Engine, the
// microservice interleaver and MemReader satisfy it.
type Source interface {
	Next() isa.BlockEvent
	Instructions() uint64
	Requests() uint64
	CurrentType() int
	Stage() int16
	Depth() int
	CurrentRequest() uint64
	RequestDone() bool
}

// bwriter builds varint-encoded payloads.
type bwriter struct{ buf []byte }

func (w *bwriter) u8(v byte)        { w.buf = append(w.buf, v) }
func (w *bwriter) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *bwriter) zigzag(v int64)   { w.uvarint(uint64(v)<<1 ^ uint64(v>>63)) }
func (w *bwriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// breader decodes varint payloads with bounds checking and strict
// canonical form: non-minimal varint encodings are rejected, so every
// accepted payload re-encodes to identical bytes.
type breader struct {
	buf []byte
	off int
	err error
}

func (r *breader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("tracefile: "+format, args...)
	}
}

func (r *breader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("unexpected end of payload at offset %d", r.off)
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *breader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	// One byte is the common case, and always minimal.
	if r.off < len(r.buf) && r.buf[r.off] < 0x80 {
		v := r.buf[r.off]
		r.off++
		return uint64(v)
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("bad varint at offset %d", r.off)
		return 0
	}
	if n > 1 && r.buf[r.off+n-1] == 0 {
		r.fail("non-minimal varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *breader) zigzag() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *breader) str(maxLen int) string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(maxLen) || n > uint64(len(r.buf)-r.off) {
		r.fail("implausible string length %d at offset %d", n, r.off)
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// done reports full consumption; trailing bytes mean corruption.
func (r *breader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("tracefile: %d trailing payload bytes", len(r.buf)-r.off)
	}
	return nil
}

// encodeMeta serialises the header payload.
func encodeMeta(m Meta) []byte {
	w := &bwriter{buf: make([]byte, 0, len(m.Workload)+24)}
	w.str(m.Workload)
	w.uvarint(m.Seed)
	w.uvarint(m.TargetInstructions)
	return w.buf
}

// decodeMeta parses the header payload.
func decodeMeta(payload []byte) (Meta, error) {
	r := &breader{buf: payload}
	var m Meta
	m.Workload = r.str(1 << 12)
	m.Seed = r.uvarint()
	m.TargetInstructions = r.uvarint()
	return m, r.done()
}
