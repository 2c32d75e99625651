package tracefile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

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

// Stat summarises a trace file. A complete trace answers from its
// index once the index's shape and the first frame have checked out; a
// truncated one is decoded frame by frame, in the memory of one frame,
// to measure the intact prefix.
func Stat(path string) (Info, error) { return inspect(path, false) }

// inspect reads the trace at path through one reused frame of columns:
// every frame when deep is set (VerifyDeep) or the trace has no index,
// only the first one otherwise (Stat answers from the index).
func inspect(path string, deep bool) (Info, error) {
	var t traceFile
	if err := t.open(path); err != nil {
		return Info{}, err
	}
	defer t.Close()
	info := Info{Meta: t.meta, FileBytes: t.size, Indexed: t.index != nil}
	limit := 0
	switch {
	case deep && t.index == nil:
		// open refuses a sealed trace whose index is unreadable, so this
		// one has no trailer.
		return info, fmt.Errorf("tracefile: %s: %w (no trailer: torn or unfinished recording)", path, ErrTruncated)
	case !deep && t.index != nil:
		limit = 1
	}
	var frame columns
	s, err := t.walk(&frame, false, limit)
	if err != nil {
		return info, fmt.Errorf("tracefile: %s: %w", path, err)
	}
	if limit == 1 {
		info.Frames = t.total.Frames
		info.Events = t.total.Events
		info.Instructions = t.total.Instructions
		info.Requests = t.total.Requests
		return info, nil
	}
	info.Frames = t.next
	info.Events = s.decoded
	info.Instructions = s.end.Instr
	info.Requests = s.end.A.Requests
	info.Truncated = errors.Is(s.term, ErrTruncated)
	if deep && s.term != ErrExhausted {
		return info, fmt.Errorf("tracefile: %s: %w", path, s.term)
	}
	return info, nil
}
