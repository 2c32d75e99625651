package tracefile

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// layoutFor records a small multi-frame trace and returns its bytes and
// structural layout.
func layoutFor(t *testing.T, workload string) (string, []byte, FileLayout, Summary) {
	t.Helper()
	path, sum := recordSmall(t, workload, 30_000, 256)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := LayoutOf(data)
	if err != nil {
		t.Fatalf("LayoutOf on a clean trace: %v", err)
	}
	if len(lo.Frames) < 3 {
		t.Fatalf("need several frames for interior corruption, got %d", len(lo.Frames))
	}
	if len(lo.Frames) != sum.Frames {
		t.Fatalf("layout found %d frames, summary says %d", len(lo.Frames), sum.Frames)
	}
	return path, data, lo, sum
}

// writeVariant writes a mutated copy of a trace image.
func writeVariant(t *testing.T, dir, name string, data []byte) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// requireCorrupt reads a damaged sealed trace both ways that decode
// every frame, Load and VerifyDeep: each must fail with ErrCorrupt,
// never ErrTruncated (which the prefix-replay path tolerates), and Load
// must hand out no trace.
func requireCorrupt(t *testing.T, path, what string) {
	t.Helper()
	if l, err := Load(path); !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTruncated) || l != nil {
		t.Fatalf("%s: Load = %v, %v; want ErrCorrupt and no trace", what, l, err)
	}
	if _, err := VerifyDeep(path); !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTruncated) {
		t.Fatalf("%s: VerifyDeep: %v, want ErrCorrupt", what, err)
	}
}

// TestInteriorFlipIsCorrupt is the regression test for the
// ErrCorrupt/ErrTruncated split: a single flipped byte in an interior
// frame must fail with ErrCorrupt — never ErrTruncated, and never a
// silently shortened stream — while a genuinely torn tail keeps its
// truncation semantics.
func TestInteriorFlipIsCorrupt(t *testing.T) {
	_, data, lo, sum := layoutFor(t, "gin")
	dir := t.TempDir()

	mid := lo.Frames[len(lo.Frames)/2]
	flipped := append([]byte(nil), data...)
	flipped[mid.Off+4+mid.Len/2] ^= 0x10 // interior payload byte
	requireCorrupt(t, writeVariant(t, dir, "flip.hpt", flipped), "interior flip")

	// A torn tail: Load serves the intact prefix and its cursors end in
	// ErrTruncated, Stat measures that prefix, VerifyDeep refuses it.
	torn := data[:lo.Frames[len(lo.Frames)-1].Off+7]
	tp := writeVariant(t, dir, "torn.hpt", torn)
	l, err := Load(tp)
	if err != nil {
		t.Fatalf("Load of a torn trace: %v", err)
	}
	m := l.Replay()
	if m.Batch(); l.Complete() || uint64(l.Events()) >= sum.Events || !errors.Is(m.Err(), ErrTruncated) {
		t.Fatalf("torn tail: loaded %d/%d events (complete %v), cursor ends with %v; want a prefix and ErrTruncated",
			l.Events(), sum.Events, l.Complete(), m.Err())
	}
	if info, err := Stat(tp); err != nil || !info.Truncated || info.Events != uint64(l.Events()) {
		t.Fatalf("Stat of a torn trace: %+v, %v; want truncated after %d events", info, err, l.Events())
	}
	if _, err := VerifyDeep(tp); !errors.Is(err, ErrTruncated) {
		t.Fatalf("VerifyDeep of a torn trace: %v, want ErrTruncated", err)
	}
}

// TestLengthFieldFlipIsCorrupt flips a byte of an interior record's
// length prefix. Before the split this read as a torn tail; in a sealed
// trace it must be corruption.
func TestLengthFieldFlipIsCorrupt(t *testing.T) {
	_, data, lo, _ := layoutFor(t, "echo")
	mid := lo.Frames[len(lo.Frames)/2]
	for _, bit := range []byte{0x01, 0x80} {
		mut := append([]byte(nil), data...)
		mut[mid.Off+1] ^= bit
		requireCorrupt(t, writeVariant(t, t.TempDir(), "len.hpt", mut), fmt.Sprintf("length-field flip (bit %#x)", bit))
	}
}

// TestSwappedFramesAreCorrupt swaps two adjacent frame records. Every
// record stays checksum-clean, so only the index and frame-continuity
// checks can catch it — and must, as corruption.
func TestSwappedFramesAreCorrupt(t *testing.T) {
	_, data, lo, _ := layoutFor(t, "gin")
	a, b := lo.Frames[1], lo.Frames[2]
	mut := append([]byte(nil), data[:a.Off]...)
	mut = append(mut, data[b.Off:b.Off+b.Len]...)
	mut = append(mut, data[a.Off:a.Off+a.Len]...)
	mut = append(mut, data[b.Off+b.Len:]...)
	requireCorrupt(t, writeVariant(t, t.TempDir(), "swap.hpt", mut), "swapped frames")
}

// TestVerifyDeep checks the deep verifier: clean traces pass with
// totals matching the recording, any damage fails.
func TestVerifyDeep(t *testing.T) {
	path, data, lo, sum := layoutFor(t, "gin")
	info, err := VerifyDeep(path)
	if err != nil {
		t.Fatalf("VerifyDeep on a clean trace: %v", err)
	}
	if info.Events != sum.Events || info.Instructions != sum.Instructions || info.Frames != sum.Frames {
		t.Fatalf("VerifyDeep totals %+v disagree with summary %+v", info, sum)
	}

	dir := t.TempDir()
	flip := append([]byte(nil), data...)
	flip[lo.Frames[0].Off+6] ^= 0x04
	if _, err := VerifyDeep(writeVariant(t, dir, "flip.hpt", flip)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("VerifyDeep on a flipped trace: %v, want ErrCorrupt", err)
	}
	if _, err := VerifyDeep(writeVariant(t, dir, "torn.hpt", data[:len(data)-trailerSize-3])); !errors.Is(err, ErrTruncated) {
		t.Fatalf("VerifyDeep on a torn trace: %v, want ErrTruncated", err)
	}
	// Trailer damage on an otherwise intact file: the index is
	// unreachable, which VerifyDeep refuses (the trace cannot vouch for
	// its own completeness).
	tr := append([]byte(nil), data...)
	tr[len(tr)-1] ^= 0xFF
	if _, err := VerifyDeep(writeVariant(t, dir, "trailer.hpt", tr)); err == nil {
		t.Fatal("VerifyDeep accepted a damaged trailer")
	}
}

// TestLayoutOfRejectsDamage spot-checks the shallow structural walk.
func TestLayoutOfRejectsDamage(t *testing.T) {
	_, data, lo, _ := layoutFor(t, "echo")
	end := lo.Frames[0].Off + lo.Frames[0].Len
	variants := map[string][]byte{
		"flip":    append(append([]byte(nil), data[:end-2]...), data[end-2:]...),
		"torn":    data[:len(data)-4],
		"magic":   append([]byte(nil), data...),
		"trailer": append([]byte(nil), data...),
	}
	variants["flip"][lo.Frames[0].Off+9] ^= 0x01
	variants["magic"][0] ^= 0x01
	variants["trailer"][len(data)-2] ^= 0x01
	for name, mut := range variants {
		if _, err := LayoutOf(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("LayoutOf(%s): err=%v, want ErrCorrupt", name, err)
		}
	}
}
