package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hprefetch/internal/tracefile"
	"hprefetch/internal/workloads"
)

// recordGin records a short multi-frame gin trace under the given
// header seed and returns its path.
func recordGin(t *testing.T, seed func(preset uint64) uint64) string {
	t.Helper()
	built, err := workloads.Build("gin")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gin.hpt")
	meta := tracefile.Meta{Workload: "gin", Seed: seed(built.Workload.TraceSeed), TargetInstructions: 60_000}
	if _, err := tracefile.Record(path, built.NewEngine(), meta, 60_000, 64, tracefile.Options{FrameEvents: 512}); err != nil {
		t.Fatal(err)
	}
	return path
}

// damaged writes a copy of the trace at path with f applied to its
// bytes.
func damaged(t *testing.T, path string, f func([]byte) []byte) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "damaged.hpt")
	if err := os.WriteFile(out, f(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestVerify: a clean trace verifies with the counts Stat reports; a
// torn copy fails as truncated, a copy with one flipped interior byte
// as corrupt, and a trace whose header seed is not the workload's
// preset is refused.
func TestVerify(t *testing.T) {
	path := recordGin(t, func(preset uint64) uint64 { return preset })
	info, err := tracefile.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	events, instructions, err := verify(path)
	if err != nil {
		t.Fatalf("clean trace: %v", err)
	}
	if events != info.Events || instructions != info.Instructions {
		t.Fatalf("verified %d events, %d instructions; Stat says %d, %d", events, instructions, info.Events, info.Instructions)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := tracefile.LayoutOf(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(lo.Frames) < 3 {
		t.Fatalf("want several frames, got %d", len(lo.Frames))
	}
	mid := lo.Frames[len(lo.Frames)/2]

	torn := damaged(t, path, func(b []byte) []byte { return b[:mid.Off+mid.Len/2] })
	if _, _, err := verify(torn); !errors.Is(err, tracefile.ErrTruncated) {
		t.Fatalf("torn trace: %v, want ErrTruncated", err)
	}
	flipped := damaged(t, path, func(b []byte) []byte { b[mid.Off+mid.Len/2] ^= 0x08; return b })
	if _, _, err := verify(flipped); !errors.Is(err, tracefile.ErrCorrupt) {
		t.Fatalf("flipped byte: %v, want ErrCorrupt", err)
	}
	reseeded := recordGin(t, func(preset uint64) uint64 { return preset + 1 })
	if _, _, err := verify(reseeded); err == nil || !strings.Contains(err.Error(), "does not match workload gin's preset seed") {
		t.Fatalf("foreign seed: %v, want a seed mismatch", err)
	}
}
