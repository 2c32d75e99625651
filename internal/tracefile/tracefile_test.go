package tracefile

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"hprefetch/internal/isa"
	"hprefetch/internal/trace"
	"hprefetch/internal/workloads"
)

// engineFor builds a fresh live engine for a workload.
func engineFor(tb testing.TB, name string) (*trace.Engine, uint64) {
	tb.Helper()
	built, err := workloads.Build(name)
	if err != nil {
		tb.Fatal(err)
	}
	return trace.New(built.Loaded, built.Workload.TraceSeed), built.Workload.TraceSeed
}

// recordSmall records a short multi-frame trace and returns its path.
func recordSmall(tb testing.TB, workload string, instructions uint64, frameEvents int) (string, Summary) {
	tb.Helper()
	eng, seed := engineFor(tb, workload)
	path := filepath.Join(tb.TempDir(), workload+".hpt")
	meta := Meta{Workload: workload, Seed: seed, TargetInstructions: instructions}
	sum, err := Record(path, eng, meta, instructions, 64, Options{FrameEvents: frameEvents})
	if err != nil {
		tb.Fatal(err)
	}
	return path, sum
}

// TestStat checks the index fast path against the recording summary.
func TestStat(t *testing.T) {
	path, sum := recordSmall(t, "echo", 100_000, 1024)
	info, err := Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Indexed || info.Truncated {
		t.Fatalf("sealed trace: Indexed=%v Truncated=%v", info.Indexed, info.Truncated)
	}
	if info.Events != sum.Events || info.Instructions != sum.Instructions ||
		info.Requests != sum.Requests || info.Frames != sum.Frames || info.FileBytes != sum.Bytes {
		t.Fatalf("Stat %+v disagrees with recording summary %+v", info, sum)
	}
}

// TestTruncatedReplaysPrefix cuts a trace at many byte offsets. Every
// cut must load (or fail to open) cleanly, hold a strict prefix of the
// full stream, and report ErrTruncated unless every event survived the
// cut. Stat of each cut must agree with Load: truncated exactly when
// the loaded stream is incomplete, with the intact prefix's events,
// instructions and requests.
func TestTruncatedReplaysPrefix(t *testing.T) {
	path, sum := recordSmall(t, "gin", 30_000, 256)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(ref.Events()) != sum.Events {
		t.Fatalf("reference load has %d events, summary says %d", ref.Events(), sum.Events)
	}
	lo, err := LayoutOf(full)
	if err != nil {
		t.Fatal(err)
	}

	cuts := []int{0, 5, headerPrefixSize, headerPrefixSize + 3}
	for cut := headerPrefixSize + 8; cut < len(full); cut += 211 {
		cuts = append(cuts, cut)
	}
	cuts = append(cuts, len(full)-1, len(full)-trailerSize, len(full)-trailerSize-1)

	dir := t.TempDir()
	for _, cut := range cuts {
		cutPath := filepath.Join(dir, fmt.Sprintf("cut-%d.hpt", cut))
		if err := os.WriteFile(cutPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Load(cutPath)
		info, serr := Stat(cutPath)
		if err != nil {
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("cut %d: Load error %v does not wrap ErrTruncated", cut, err)
			}
			if !errors.Is(serr, ErrTruncated) {
				t.Fatalf("cut %d: Load failed with %v, Stat with %v; want ErrTruncated", cut, err, serr)
			}
			continue
		}
		if serr != nil {
			t.Fatalf("cut %d: Stat: %v", cut, serr)
		}
		n := l.Events()
		for i := 0; i < n; i++ {
			if i >= ref.Events() || l.events[i] != ref.events[i] || l.attrs(i) != ref.attrs(i) {
				t.Fatalf("cut %d: event %d is not a prefix of the full stream", cut, i)
			}
		}
		m := l.Replay()
		m.Batch()
		terr := m.Err()
		if n < ref.Events() {
			if !errors.Is(terr, ErrTruncated) {
				t.Fatalf("cut %d: loaded %d/%d events but Err=%v, want ErrTruncated", cut, n, ref.Events(), terr)
			}
		} else if !errors.Is(terr, ErrTruncated) && !errors.Is(terr, ErrExhausted) {
			t.Fatalf("cut %d: full stream loaded but Err=%v", cut, terr)
		}
		if info.Truncated != !l.Complete() || (int64(cut) < lo.Index.Off+lo.Index.Len && !info.Truncated) {
			t.Fatalf("cut %d: Stat says truncated %v, the loaded stream is complete %v", cut, info.Truncated, l.Complete())
		}
		if info.Events != uint64(n) || info.Instructions != m.Instructions() || info.Requests != m.Requests() {
			t.Fatalf("cut %d: Stat counts %d events, %d instructions, %d requests; Load's prefix %d, %d, %d",
				cut, info.Events, info.Instructions, info.Requests, n, m.Instructions(), m.Requests())
		}
	}
}

// TestCompactEncoding records a 4M-instruction trace and checks it lands
// far below the naive binary dump (unsafe.Sizeof(BlockEvent) per event).
func TestCompactEncoding(t *testing.T) {
	if testing.Short() {
		t.Skip("records a 4M-instruction trace")
	}
	path, sum := recordSmall(t, "gin", 4_000_000, 0)
	naive := int64(sum.Events) * int64(unsafe.Sizeof(isa.BlockEvent{}))
	if sum.Bytes*4 >= naive {
		t.Fatalf("trace is %d bytes for %d events; naive dump %d — want at least 4x smaller",
			sum.Bytes, sum.Events, naive)
	}
	t.Logf("4M instructions: %d events, %d bytes on disk (naive %d, %.1fx smaller, %.2f bits/instr)",
		sum.Events, sum.Bytes, naive, float64(naive)/float64(sum.Bytes),
		float64(sum.Bytes*8)/float64(sum.Instructions))
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != sum.Bytes {
		t.Fatalf("summary bytes %d != file size %d", sum.Bytes, st.Size())
	}
}

// TestWriterRejectsUnrepresentable exercises Append's invariant checks.
func TestWriterRejectsUnrepresentable(t *testing.T) {
	valid := func() isa.BlockEvent {
		ev := isa.BlockEvent{Addr: 0x400000, NumInstr: 4}
		ev.Target = ev.EndAddr()
		return ev
	}
	cases := []struct {
		name string
		ev   func() isa.BlockEvent
		a    Attrs
	}{
		{"zero instructions", func() isa.BlockEvent { ev := valid(); ev.NumInstr = 0; return ev }, Attrs{}},
		{"too many instructions", func() isa.BlockEvent { ev := valid(); ev.NumInstr = isa.InstrPerBlock + 1; return ev }, Attrs{}},
		{"branch kind out of range", func() isa.BlockEvent { ev := valid(); ev.Branch = isa.BrRet + 1; return ev }, Attrs{}},
		{"fall-through with target", func() isa.BlockEvent { ev := valid(); ev.Target = 0x1000; return ev }, Attrs{}},
		{"fall-through with branch PC", func() isa.BlockEvent { ev := valid(); ev.BrPC = ev.Addr; return ev }, Attrs{}},
		{"branch PC not at end", func() isa.BlockEvent {
			ev := valid()
			ev.Branch = isa.BrJump
			ev.Target = 0x500000
			ev.BrPC = ev.Addr // should be EndAddr()-InstrSize
			return ev
		}, Attrs{}},
		{"negative type", func() isa.BlockEvent { return valid() }, Attrs{Type: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := NewWriter(&bytes.Buffer{}, Meta{Workload: "x"}, Attrs{}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(tc.ev(), tc.a); err == nil {
				t.Fatal("Append accepted an unrepresentable event")
			}
		})
	}

	t.Run("requests going backwards", func(t *testing.T) {
		w, err := NewWriter(&bytes.Buffer{}, Meta{Workload: "x"}, Attrs{Requests: 5}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(valid(), Attrs{Requests: 4}); err == nil {
			t.Fatal("Append accepted a regressing request counter")
		}
	})
	t.Run("append after close", func(t *testing.T) {
		w, err := NewWriter(&bytes.Buffer{}, Meta{Workload: "x"}, Attrs{}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(valid(), Attrs{}); err == nil {
			t.Fatal("Append accepted an event after Close")
		}
	})
}

// TestOpenRejectsForeignFile checks the magic gate.
func TestOpenRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-trace")
	if err := os.WriteFile(path, bytes.Repeat([]byte{0xAB}, 64), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, read := range map[string]func(string) error{
		"Load":       func(p string) error { _, err := Load(p); return err },
		"Stat":       func(p string) error { _, err := Stat(p); return err },
		"VerifyDeep": func(p string) error { _, err := VerifyDeep(p); return err },
	} {
		if err := read(path); err == nil {
			t.Fatalf("%s accepted a non-trace file", name)
		} else if errors.Is(err, ErrTruncated) {
			t.Fatalf("%s: bad magic misreported as truncation: %v", name, err)
		}
	}
}

// TestFillMatchesEngine: the window fills of a MemReader deliver
// exactly the recorded stream with the engine's request marks and
// counts, chunk boundaries falling anywhere, and come up short only at
// the trace's clean end.
func TestFillMatchesEngine(t *testing.T) {
	path, _ := recordSmall(t, "gin", 100_000, 256)
	l, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	src := l.Replay()
	eng, _ := engineFor(t, "gin")
	const chunk = 7
	ev, req, done, reqs := make([]isa.BlockEvent, chunk), make([]uint64, chunk), make([]bool, chunk), make([]uint64, chunk)
	events := 0
	for {
		n := src.Fill(ev, req, done, reqs)
		for i := 0; i < n; i++ {
			want := eng.Next()
			if ev[i] != want || req[i] != eng.CurrentRequest() || done[i] != eng.RequestDone() || reqs[i] != eng.Requests() {
				t.Fatalf("event %d: filled %+v (req %d done %v reqs %d), engine %+v (req %d done %v reqs %d)",
					events, ev[i], req[i], done[i], reqs[i], want, eng.CurrentRequest(), eng.RequestDone(), eng.Requests())
			}
			events++
		}
		if n < chunk {
			break
		}
	}
	if !errors.Is(src.Err(), ErrExhausted) {
		t.Fatalf("short fill after %d events with Err %v, want ErrExhausted", events, src.Err())
	}
}
