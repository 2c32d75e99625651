package tracefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Span locates one framed record inside a trace file's byte image.
type Span struct {
	// Off is the offset of the record's u32 length prefix.
	Off int64
	// Len is the record's total framed length: 4 (length prefix) +
	// payload + 4 (CRC).
	Len int64
	// CRC is the stored payload checksum.
	CRC uint32
}

// FileLayout is the structural map of a sealed trace file's byte image:
// where each record lives and what checksum it carries. The corpus
// manifest persists the frame spans as its per-frame CRC index, and the
// storage-fault injector uses them to place span-aligned corruption.
type FileLayout struct {
	Header Span
	Frames []Span
	Index  Span
	// DataEnd is the offset of the trailer (end of the record area).
	DataEnd int64
}

// LayoutOf walks the record structure of a complete trace image and
// verifies it shallowly: magic, version, a valid trailer and index,
// every record whole and checksum-clean, each frame where the index
// lists it, the index record last. It reads records with the rules
// Load applies but does not inflate or decode frame bodies — VerifyDeep
// does that. Any structural or checksum problem wraps ErrCorrupt (an
// unsealed image has no layout to speak of: this is the integrity view,
// not the replay view).
func LayoutOf(data []byte) (FileLayout, error) {
	lo, err := layoutOf(data)
	if err != nil && !errors.Is(err, ErrCorrupt) {
		err = fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return lo, err
}

func layoutOf(data []byte) (FileLayout, error) {
	var lo FileLayout
	var t traceFile
	if err := t.init(bytes.NewReader(data), int64(len(data))); err != nil {
		return lo, err
	}
	if !t.sealed {
		return lo, corruptf("missing trailer (unsealed or torn image)")
	}
	// span describes the record from off to t.off, which readRecord has
	// just passed over.
	span := func(off int64) Span {
		return Span{Off: off, Len: t.off - off, CRC: binary.LittleEndian.Uint32(data[t.off-4:])}
	}
	lo.Header = span(headerPrefixSize) // init has read the header and no further
	lo.DataEnd = t.size - trailerSize
	for {
		off := t.off
		_, err := t.nextRecord()
		if errors.Is(err, ErrExhausted) {
			lo.Index = span(off)
			break
		}
		if err != nil {
			return lo, err
		}
		lo.Frames = append(lo.Frames, span(off))
	}
	if len(lo.Frames) == 0 {
		return lo, corruptf("no frame records")
	}
	return lo, nil
}

// VerifyDeep fully decodes the trace at path, one frame at a time:
// every record checksum, every frame body (inflate, canonical varints,
// counter footers, frame continuity), and — because a verified trace
// must be complete — the frame index, whose entries and totals must
// match the decoded stream exactly. A trace that passes VerifyDeep
// replays its complete stream bit for bit. Failures wrap ErrCorrupt
// (in-place damage) or ErrTruncated (torn tail); either way the trace
// is not fit to serve.
func VerifyDeep(path string) (Info, error) { return inspect(path, true) }
