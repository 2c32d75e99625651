package tracefile

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"testing"
	"unsafe"

	"hprefetch/internal/isa"
)

// columnBytes is what one decoded event occupies across a Loaded
// trace's columns.
const columnBytes = int(unsafe.Sizeof(isa.BlockEvent{})) + 8 + 8 + 1 + 4 + 4 + 2

// TestLoadMatchesEngine: Load decodes exactly the live engine's stream
// — every event, every attribution, the pre-stream state and the final
// instruction count — with small frames and with the default size.
func TestLoadMatchesEngine(t *testing.T) {
	for _, frameEvents := range []int{512, 0} {
		t.Run(fmt.Sprintf("frame=%d", frameEvents), func(t *testing.T) {
			path, sum := recordSmall(t, "gin", 600_000, frameEvents)
			if frameEvents == 0 && sum.Frames < 2 {
				t.Fatalf("want a multi-frame trace at the default frame size, got %d frame(s)", sum.Frames)
			}
			l, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if !l.Complete() || uint64(l.Events()) != sum.Events {
				t.Fatalf("loaded %d events (complete %v), recorded %d", l.Events(), l.Complete(), sum.Events)
			}
			eng, _ := engineFor(t, "gin")
			m := l.Replay()
			pre := Attrs{eng.Requests(), eng.CurrentType(), eng.Stage(), eng.Depth(), eng.CurrentRequest(), eng.RequestDone()}
			if m.Instructions() != eng.Instructions() || sample(m) != pre {
				t.Fatalf("pre-stream state: loaded (i%d %+v), engine (i%d %+v)", m.Instructions(), sample(m), eng.Instructions(), pre)
			}
			for i := 0; i < l.Events(); i++ {
				want := eng.Next()
				if got := l.events[i]; got != want {
					t.Fatalf("event %d: loaded %+v, engine %+v", i, got, want)
				}
				if got := l.attrs(i); got != sample(eng) {
					t.Fatalf("attribution after event %d: loaded %+v, engine %+v", i, got, sample(eng))
				}
			}
			m.Batch()
			if m.Instructions() != eng.Instructions() || m.Instructions() != sum.Instructions {
				t.Fatalf("end of stream at instruction %d, engine %d, recorded %d", m.Instructions(), eng.Instructions(), sum.Instructions)
			}
		})
	}
}

// TestLoadTruncatedIsPrefix cuts a trace at every frame boundary and in
// the middle of every frame: each cut loads the frames wholly before it
// — an exact prefix of the full stream — and reports itself incomplete.
func TestLoadTruncatedIsPrefix(t *testing.T) {
	path, data, lo, _ := layoutFor(t, "gin")
	full, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := tf.open(path); err != nil {
		t.Fatal(err)
	}
	tf.Close()
	dir := t.TempDir()
	events := 0 // events in the frames before frame k
	for k, fr := range lo.Frames {
		for _, cut := range []int64{fr.Off, fr.Off + fr.Len/2} {
			l, err := Load(writeVariant(t, dir, fmt.Sprintf("cut-%d.hpt", cut), data[:cut]))
			if err != nil {
				t.Fatalf("frame %d, cut %d: %v", k, cut, err)
			}
			if l.Complete() {
				t.Fatalf("frame %d, cut %d: a cut trace loaded as complete", k, cut)
			}
			if l.Events() != events {
				t.Fatalf("frame %d, cut %d: loaded %d events, want the %d before the cut", k, cut, l.Events(), events)
			}
			for i := 0; i < events; i++ {
				if l.events[i] != full.events[i] || l.attrs(i) != full.attrs(i) {
					t.Fatalf("frame %d, cut %d: event %d differs from the full trace", k, cut, i)
				}
			}
			m := l.Replay()
			if m.Batch(); !errors.Is(m.Err(), ErrTruncated) {
				t.Fatalf("frame %d, cut %d: cursor ends with %v, want ErrTruncated", k, cut, m.Err())
			}
		}
		events += int(tf.index[k].Events)
	}
	// Cut after the last frame: every event, but no index.
	l, err := Load(writeVariant(t, dir, "no-index.hpt", data[:lo.Index.Off]))
	if err != nil {
		t.Fatal(err)
	}
	if l.Complete() || l.Events() != full.Events() {
		t.Fatalf("cut before the index: %d/%d events, complete %v", l.Events(), full.Events(), l.Complete())
	}
}

// TestLoadFlipIsCorrupt flips one byte in each frame after the first:
// Load must fail with ErrCorrupt, never hand out a prefix and never
// mistake the damage for a torn tail.
func TestLoadFlipIsCorrupt(t *testing.T) {
	_, data, lo, _ := layoutFor(t, "gin")
	dir := t.TempDir()
	for k := 1; k < len(lo.Frames); k++ {
		fr := lo.Frames[k]
		for _, at := range []int64{fr.Off + 5, fr.Off + fr.Len/2, fr.Off + fr.Len - 1} {
			mut := append([]byte(nil), data...)
			mut[at] ^= 0x20
			l, err := Load(writeVariant(t, dir, fmt.Sprintf("flip-%d.hpt", at), mut))
			if !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTruncated) || l != nil {
				t.Fatalf("frame %d, byte %d flipped: Load = %v, %v; want ErrCorrupt and no trace", k, at, l, err)
			}
		}
	}
}

// allocatedBy reports the bytes f allocates on the heap.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLoadAllocatesOnlyColumns pins Load's allocation to its output:
// loading a recorded gin trace — in one frame, as a short replay-sweep
// recording is, and in several — allocates at most 1.15× the bytes of
// the decoded columns (columnBytes an event). The ratio does not depend
// on the machine.
func TestLoadAllocatesOnlyColumns(t *testing.T) {
	for _, frameEvents := range []int{0, 8192} {
		t.Run(fmt.Sprintf("frame=%d", frameEvents), func(t *testing.T) {
			path, sum := recordSmall(t, "gin", 366_000, frameEvents)
			var l *Loaded
			var err error
			got := allocatedBy(func() { l, err = Load(path) })
			if err != nil {
				t.Fatal(err)
			}
			cols := uint64(l.Events() * columnBytes)
			if ratio := float64(got) / float64(cols); ratio > 1.15 {
				t.Fatalf("Load of %d events in %d frame(s) allocated %d bytes, %.2f× its %d column bytes; want ≤ 1.15×",
					l.Events(), sum.Frames, got, ratio, cols)
			} else {
				t.Logf("%d events in %d frame(s): %d bytes allocated, %.3f× the columns", l.Events(), sum.Frames, got, ratio)
			}
		})
	}
}

// TestInspectHoldsOneFrame pins Stat and VerifyDeep to the memory of
// one frame: reading a trace of at least 16 frames allocates no more
// than twice what a 2-frame trace of the same frame size does. Decoding
// the whole stream (as Load does) would allocate eight times as much.
// VerifyDeep decodes every frame of a sealed trace, Stat every frame of
// a torn one (a sealed one it answers from the index).
func TestInspectHoldsOneFrame(t *testing.T) {
	const frameEvents = 2048
	type copies struct{ sealed, torn string }
	record := func(instructions uint64, wantFrames func(int) bool) copies {
		path, sum := recordSmall(t, "gin", instructions, frameEvents)
		if !wantFrames(sum.Frames) {
			t.Fatalf("%d instructions recorded %d frames", instructions, sum.Frames)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lo, err := LayoutOf(data)
		if err != nil {
			t.Fatal(err)
		}
		return copies{path, writeVariant(t, t.TempDir(), "torn.hpt", data[:lo.Index.Off])}
	}
	short := record(25_000, func(n int) bool { return n == 2 })
	long := record(300_000, func(n int) bool { return n >= 16 })

	for name, read := range map[string]func(copies) (Info, error){
		"VerifyDeep": func(tr copies) (Info, error) { return VerifyDeep(tr.sealed) },
		"Stat":       func(tr copies) (Info, error) { return Stat(tr.torn) },
	} {
		var alloc [2]uint64
		for i, tr := range []copies{short, long} {
			var info Info
			var err error
			alloc[i] = allocatedBy(func() { info, err = read(tr) })
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if i == 1 && info.Frames < 16 {
				t.Fatalf("%s read %d frames, want ≥ 16", name, info.Frames)
			}
		}
		if alloc[1] > 2*alloc[0] {
			t.Fatalf("%s allocated %d bytes for ≥ 16 frames, %d for 2; want at most twice", name, alloc[1], alloc[0])
		}
		t.Logf("%s: %d bytes for 2 frames, %d for ≥ 16", name, alloc[0], alloc[1])
	}
}

// rewriteIndex replaces a sealed trace image's index record with one
// listing entries and claiming the given event total, keeping its
// offset (so the trailer still points at it) and a valid checksum.
func rewriteIndex(data []byte, lo FileLayout, entries []frameEntry, events, instr, requests uint64) []byte {
	w := &Writer{frames: entries, total: events, instr: instr, prev: Attrs{Requests: requests}}
	out := appendRecord(append([]byte(nil), data[:lo.Index.Off]...), w.encodeIndex())
	return append(out, data[lo.Index.Off+lo.Index.Len:]...)
}

// appendRecord appends payload to img as a length-prefixed record with
// a valid checksum.
func appendRecord(img, payload []byte) []byte {
	img = binary.LittleEndian.AppendUint32(img, uint32(len(payload)))
	img = append(img, payload...)
	return binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(payload))
}

// TestHostileIndexIsCorrupt: an index with a valid checksum that claims
// far more events than its frames hold — in its total alone, or spread
// consistently over invented frames — is corruption. Load, Stat and
// VerifyDeep all say so without panicking, and Load allocates no more
// than a few megabytes doing it.
func TestHostileIndexIsCorrupt(t *testing.T) {
	path, data, lo, sum := layoutFor(t, "gin")
	var tf traceFile
	if err := tf.open(path); err != nil {
		t.Fatal(err)
	}
	tf.Close()
	real := tf.index

	// 1024 frames of maxFrameEvents sum to 1<<31 events; they sit at
	// increasing offsets inside the record area, the first one on the
	// first real frame.
	span := lo.Index.Off - real[0].Off
	invented := make([]frameEntry, (1<<31)/maxFrameEvents)
	if span < int64(len(invented)) {
		t.Fatalf("record area of %d bytes too small for %d invented entries", span, len(invented))
	}
	for i := range invented {
		invented[i] = frameEntry{Off: real[0].Off + int64(i), Events: maxFrameEvents, StartInstr: uint64(i)}
	}

	dir := t.TempDir()
	for name, img := range map[string][]byte{
		"total 1<<50":     rewriteIndex(data, lo, real, 1<<50, sum.Instructions, sum.Requests),
		"total 1<<31":     rewriteIndex(data, lo, real, 1<<31, sum.Instructions, sum.Requests),
		"frames of 1<<31": rewriteIndex(data, lo, invented, 1<<31, sum.Instructions, sum.Requests),
	} {
		t.Run(name, func(t *testing.T) {
			p := writeVariant(t, dir, "hostile.hpt", img)
			var err error
			got := allocatedBy(func() { _, err = Load(p) })
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Load: %v, want ErrCorrupt", err)
			}
			if got > 4<<20 {
				t.Fatalf("Load allocated %d bytes before rejecting the index", got)
			}
			if info, err := Stat(p); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Stat: %+v, %v; want ErrCorrupt", info, err)
			}
			if _, err := VerifyDeep(p); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("VerifyDeep: %v, want ErrCorrupt", err)
			}
		})
	}

	// Invented frames that pass the index's own checks are caught by the
	// first frame that disagrees with its entry — still before Load
	// sizes anything from them.
	for i := range invented {
		invented[i].Events = 1
	}
	p := writeVariant(t, dir, "invented.hpt", rewriteIndex(data, lo, invented, uint64(len(invented)), sum.Instructions, sum.Requests))
	if info, err := Stat(p); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Stat over invented frames: %+v, %v; want ErrCorrupt", info, err)
	}
	if _, err := VerifyDeep(p); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("VerifyDeep over invented frames: %v, want ErrCorrupt", err)
	}
	if _, err := Load(p); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load over invented frames: %v, want ErrCorrupt", err)
	}
}

// TestHostileFrameLengthIsCorrupt: a frame record with a valid checksum
// that declares a 200 MB body for a few hundred compressed bytes is
// corruption, caught before the body buffer is sized from it.
func TestHostileFrameLengthIsCorrupt(t *testing.T) {
	_, data, lo, _ := layoutFor(t, "gin")
	fr := lo.Frames[0]
	payload := data[fr.Off+4 : fr.Off+fr.Len-4]
	_, n := binary.Uvarint(payload[1:])
	forged := binary.AppendUvarint([]byte{recTypeFrame}, 200<<20)
	forged = append(forged, payload[1+n:]...)
	img := appendRecord(append([]byte(nil), data[:fr.Off]...), forged)
	// Without the rest of the trace there is no index to disagree with.
	p := writeVariant(t, t.TempDir(), "forged.hpt", img)
	var err error
	got := allocatedBy(func() { _, err = Load(p) })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load: %v, want ErrCorrupt", err)
	}
	if got > 4<<20 {
		t.Fatalf("Load allocated %d bytes for a forged body length", got)
	}
	got = allocatedBy(func() { _, err = Stat(p) })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Stat: %v, want ErrCorrupt", err)
	}
	if got > 4<<20 {
		t.Fatalf("Stat allocated %d bytes for a forged body length", got)
	}
}

// TestHostileFramesAreCorrupt: frames with valid checksums whose
// headers each declare maxFrameEvents events over a body of zeros —
// about 4 KB on disk for a 4 MB body — are corruption, in a torn trace
// and in a sealed one whose index vouches for every frame. However many
// such frames a file holds, Load allocates no more than one inflated
// body and the room it reserves before a frame has decoded, and Stat
// and VerifyDeep no more than one body and one decode chunk.
func TestHostileFramesAreCorrupt(t *testing.T) {
	_, data, lo, _ := layoutFor(t, "gin")
	hw := &bwriter{}
	hw.uvarint(maxFrameEvents)
	hw.uvarint(0)                          // start instruction
	hw.uvarint(0)                          // start requests
	hw.buf = append(hw.buf, 0, 0, 0, 0, 0) // type, stage, depth, request, done
	body := append(hw.buf, make([]byte, 2*maxFrameEvents)...)
	var z bytes.Buffer
	z.WriteByte(recTypeFrame)
	z.Write(binary.AppendUvarint(nil, uint64(len(body))))
	fw, _ := flate.NewWriter(&z, flate.BestCompression)
	fw.Write(body)
	fw.Close()
	frame := z.Bytes()

	const frames = 64
	torn := append([]byte(nil), data[:lo.Frames[0].Off]...)
	entries := make([]frameEntry, frames)
	for i := range entries {
		entries[i] = frameEntry{Off: int64(len(torn)), Events: maxFrameEvents}
		torn = appendRecord(torn, frame)
	}
	indexOff := len(torn)
	idx := (&Writer{frames: entries, total: frames * maxFrameEvents}).encodeIndex()
	sealed := appendRecord(append([]byte(nil), torn...), idx)
	sealed = binary.LittleEndian.AppendUint64(sealed, uint64(indexOff))
	sealed = binary.LittleEndian.AppendUint64(sealed, trailerMagic)

	loadBound := uint64(len(body) + reserveAhead*decodeChunk*columnBytes + 1<<20)
	frameBound := uint64(len(body) + decodeChunk*columnBytes + 1<<20)
	dir := t.TempDir()
	for name, img := range map[string][]byte{"torn": torn, "sealed": sealed} {
		t.Run(name, func(t *testing.T) {
			p := writeVariant(t, dir, name+".hpt", img)
			var err error
			got := allocatedBy(func() { _, err = Load(p) })
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Load: %v, want ErrCorrupt", err)
			}
			if got > loadBound {
				t.Fatalf("Load allocated %d bytes for %d hostile frames in %d file bytes; want ≤ %d", got, frames, len(img), loadBound)
			}
			t.Logf("%d hostile frames in %d file bytes: Load allocated %d bytes (%v)", frames, len(img), got, err)
			// Stat decodes every frame of the torn trace and the first
			// of the sealed one, VerifyDeep every frame of the sealed one
			// (it refuses the torn one unread).
			got = allocatedBy(func() { _, err = Stat(p) })
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Stat: %v, want ErrCorrupt", err)
			}
			if got > frameBound {
				t.Fatalf("Stat allocated %d bytes; want ≤ %d", got, frameBound)
			}
			want := ErrCorrupt
			if name == "torn" {
				want = ErrTruncated
			}
			got = allocatedBy(func() { _, err = VerifyDeep(p) })
			if !errors.Is(err, want) {
				t.Fatalf("VerifyDeep: %v, want %v", err, want)
			}
			if got > frameBound {
				t.Fatalf("VerifyDeep allocated %d bytes; want ≤ %d", got, frameBound)
			}
		})
	}
}
