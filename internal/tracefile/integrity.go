package tracefile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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
// verifies it shallowly: magic, version, a valid trailer, every record
// whole and checksum-clean, the index record last. It does not inflate
// or decode frame bodies — VerifyDeep does that. Any structural or
// checksum problem wraps ErrCorrupt (an unsealed image has no layout to
// speak of: this is the integrity view, not the replay view).
func LayoutOf(data []byte) (FileLayout, error) {
	var lo FileLayout
	if len(data) < headerPrefixSize+trailerSize {
		return lo, corruptf("image too short (%d bytes)", len(data))
	}
	if binary.LittleEndian.Uint64(data) != traceMagic {
		return lo, corruptf("bad magic")
	}
	if v := binary.LittleEndian.Uint16(data[8:]); v != traceVersion {
		return lo, corruptf("trace format version %d, this build reads version %d", v, traceVersion)
	}
	end := int64(len(data)) - trailerSize
	if binary.LittleEndian.Uint64(data[end+8:]) != trailerMagic {
		return lo, corruptf("missing trailer (unsealed or torn image)")
	}
	lo.DataEnd = end
	indexOff := int64(binary.LittleEndian.Uint64(data[end:]))

	off := int64(headerPrefixSize)
	sawIndex := false
	for off < end {
		if end-off < 8 {
			return lo, corruptf("trailing garbage at offset %d", off)
		}
		n := int64(binary.LittleEndian.Uint32(data[off:]))
		if n > maxRecordBytes || n > end-off-8 {
			return lo, corruptf("implausible record length %d at offset %d", n, off)
		}
		payload := data[off+4 : off+4+n]
		crc := binary.LittleEndian.Uint32(data[off+4+n:])
		if crc32.ChecksumIEEE(payload) != crc {
			return lo, corruptf("bad checksum at offset %d", off)
		}
		sp := Span{Off: off, Len: 4 + n + 4, CRC: crc}
		switch {
		case off == headerPrefixSize:
			lo.Header = sp
		case len(payload) > 0 && payload[0] == recTypeFrame:
			if sawIndex {
				return lo, corruptf("frame record after index at offset %d", off)
			}
			lo.Frames = append(lo.Frames, sp)
		case len(payload) > 0 && payload[0] == recTypeIndex:
			if sawIndex {
				return lo, corruptf("duplicate index record at offset %d", off)
			}
			if off != indexOff {
				return lo, corruptf("index record at offset %d but trailer points at %d", off, indexOff)
			}
			sawIndex = true
			lo.Index = sp
		default:
			return lo, corruptf("unknown record type at offset %d", off)
		}
		off += sp.Len
	}
	if !sawIndex {
		return lo, corruptf("no index record (trailer offset %d)", indexOff)
	}
	if len(lo.Frames) == 0 {
		return lo, corruptf("no frame records")
	}
	return lo, nil
}

// VerifyDeep fully decodes the trace at path: every record checksum,
// every frame body (inflate, canonical varints, counter footers, frame
// continuity), and — because a verified trace must be complete — the
// frame index, whose entries and totals must match the decoded stream
// exactly (the reader checks each frame against its entry and the
// totals at the end). A trace that passes VerifyDeep replays its
// complete stream bit for bit. Failures wrap ErrCorrupt (in-place
// damage) or ErrTruncated (torn tail); either way the trace is not fit
// to serve.
func VerifyDeep(path string) (Info, error) {
	r, err := Open(path)
	if err != nil {
		return Info{}, err
	}
	defer r.Close()
	info := Info{Meta: r.meta, FileBytes: r.size, Indexed: r.Indexed()}
	if !r.Indexed() {
		// Open refuses a sealed trace whose index is unreadable, so
		// this one has no trailer.
		return info, fmt.Errorf("tracefile: %s: %w (no trailer: torn or unfinished recording)", path, ErrTruncated)
	}
	info.Events = r.drain()
	info.Frames = r.next
	info.Instructions = r.instr
	info.Requests = r.cur.Requests
	if !errors.Is(r.err, ErrExhausted) {
		return info, fmt.Errorf("tracefile: %s: %w", path, r.err)
	}
	return info, nil
}
