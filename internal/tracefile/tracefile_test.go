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

// TestReplayMatchesEngine replays a recorded trace against a fresh
// engine: every event and every attribution sample must be identical —
// the observational-equivalence property everything else rests on.
func TestReplayMatchesEngine(t *testing.T) {
	const instructions = 200_000
	path, sum := recordSmall(t, "gin", instructions, 512)
	if sum.Frames < 3 {
		t.Fatalf("expected several frames at FrameEvents=512, got %d", sum.Frames)
	}
	if sum.Instructions < instructions {
		t.Fatalf("recorded %d instructions, want >= %d", sum.Instructions, instructions)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.Indexed() {
		t.Fatal("sealed trace should carry an index")
	}
	eng, seed := engineFor(t, "gin")
	if m := r.Meta(); m.Workload != "gin" || m.Seed != seed || m.TargetInstructions != instructions {
		t.Fatalf("meta mismatch: %+v", m)
	}

	// Pre-stream state must match the engine's.
	if r.Instructions() != eng.Instructions() || r.Requests() != eng.Requests() ||
		r.CurrentType() != eng.CurrentType() || r.Stage() != eng.Stage() || r.Depth() != eng.Depth() {
		t.Fatal("pre-stream attribution differs from a fresh engine")
	}

	var n uint64
	for {
		got := r.Next()
		if got.NumInstr == 0 {
			break
		}
		want := eng.Next()
		if got != want {
			t.Fatalf("event %d diverges:\n trace %+v\n live  %+v", n, got, want)
		}
		if r.Instructions() != eng.Instructions() || r.Requests() != eng.Requests() ||
			r.CurrentType() != eng.CurrentType() || r.Stage() != eng.Stage() || r.Depth() != eng.Depth() {
			t.Fatalf("attribution after event %d diverges: trace (i%d r%d t%d s%d d%d), live (i%d r%d t%d s%d d%d)",
				n, r.Instructions(), r.Requests(), r.CurrentType(), r.Stage(), r.Depth(),
				eng.Instructions(), eng.Requests(), eng.CurrentType(), eng.Stage(), eng.Depth())
		}
		n++
	}
	if n != sum.Events {
		t.Fatalf("replayed %d events, recorded %d", n, sum.Events)
	}
	if !errors.Is(r.Err(), ErrExhausted) {
		t.Fatalf("terminal condition = %v, want ErrExhausted", r.Err())
	}
	// Continued Next calls stay at the zero-event sentinel.
	if ev := r.Next(); ev.NumInstr != 0 {
		t.Fatal("Next after exhaustion returned a non-zero event")
	}
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
// cut must open (or fail) cleanly, replay a strict prefix of the full
// stream, and report ErrTruncated unless every event survived the cut.
func TestTruncatedReplaysPrefix(t *testing.T) {
	path, sum := recordSmall(t, "gin", 30_000, 256)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Reference stream from the intact file.
	var refEvents []isa.BlockEvent
	var refAttrs []Attrs
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for {
		ev := r.Next()
		if ev.NumInstr == 0 {
			break
		}
		refEvents = append(refEvents, ev)
		refAttrs = append(refAttrs, Attrs{Requests: r.Requests(), Type: r.CurrentType(), Stage: r.Stage(), Depth: r.Depth()})
	}
	r.Close()
	if uint64(len(refEvents)) != sum.Events {
		t.Fatalf("reference replay has %d events, summary says %d", len(refEvents), sum.Events)
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
		cr, err := Open(cutPath)
		if err != nil {
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("cut %d: Open error %v does not wrap ErrTruncated", cut, err)
			}
			continue
		}
		var n int
		for {
			ev := cr.Next()
			if ev.NumInstr == 0 {
				break
			}
			if n >= len(refEvents) || ev != refEvents[n] {
				t.Fatalf("cut %d: event %d is not a prefix of the full stream", cut, n)
			}
			a := Attrs{Requests: cr.Requests(), Type: cr.CurrentType(), Stage: cr.Stage(), Depth: cr.Depth()}
			if a != refAttrs[n] {
				t.Fatalf("cut %d: attribution %d diverges from the full stream", cut, n)
			}
			n++
		}
		terr := cr.Err()
		cr.Close()
		if n < len(refEvents) {
			if !errors.Is(terr, ErrTruncated) {
				t.Fatalf("cut %d: delivered %d/%d events but Err=%v, want ErrTruncated",
					cut, n, len(refEvents), terr)
			}
		} else if !errors.Is(terr, ErrTruncated) && !errors.Is(terr, ErrExhausted) {
			t.Fatalf("cut %d: full stream delivered but Err=%v", cut, terr)
		}
	}
}

// TestSkipToInstruction checks that index-assisted seeking lands on the
// same state as stepping events one by one.
func TestSkipToInstruction(t *testing.T) {
	const instructions = 60_000
	path, _ := recordSmall(t, "gin", instructions, 256)

	seq, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	skip, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer skip.Close()
	if !skip.Indexed() {
		t.Fatal("trace should be indexed")
	}

	const target = instructions / 2
	for seq.Instructions() < target {
		if ev := seq.Next(); ev.NumInstr == 0 {
			t.Fatal("sequential reader ran out before the target")
		}
	}
	if err := skip.SkipToInstruction(target); err != nil {
		t.Fatal(err)
	}
	if seq.Instructions() != skip.Instructions() {
		t.Fatalf("instruction counters diverge: seq %d, skip %d", seq.Instructions(), skip.Instructions())
	}
	// The remainder of both streams must be identical.
	for i := 0; ; i++ {
		a, b := seq.Next(), skip.Next()
		if a != b {
			t.Fatalf("post-seek event %d diverges: %+v vs %+v", i, a, b)
		}
		if a.NumInstr == 0 {
			break
		}
		if seq.Requests() != skip.Requests() || seq.CurrentType() != skip.CurrentType() ||
			seq.Stage() != skip.Stage() || seq.Depth() != skip.Depth() {
			t.Fatalf("post-seek attribution %d diverges", i)
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
	if _, err := Open(path); err == nil {
		t.Fatal("Open accepted a non-trace file")
	} else if errors.Is(err, ErrTruncated) {
		t.Fatalf("bad magic misreported as truncation: %v", err)
	}
}

// TestFillMatchesEngine: the window fills of the streaming Reader and
// of a MemReader deliver exactly the recorded stream with the engine's
// request marks and counts, chunk boundaries falling anywhere, and come
// up short only at the trace's clean end.
func TestFillMatchesEngine(t *testing.T) {
	path, _ := recordSmall(t, "gin", 100_000, 256)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	l, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []interface {
		Fill([]isa.BlockEvent, []uint64, []bool, []uint64) int
		Err() error
	}{r, l.Replay()} {
		eng, _ := engineFor(t, "gin")
		const chunk = 7
		ev, req, done, reqs := make([]isa.BlockEvent, chunk), make([]uint64, chunk), make([]bool, chunk), make([]uint64, chunk)
		events := 0
		for {
			n := src.Fill(ev, req, done, reqs)
			for i := 0; i < n; i++ {
				want := eng.Next()
				if ev[i] != want || req[i] != eng.CurrentRequest() || done[i] != eng.RequestDone() || reqs[i] != eng.Requests() {
					t.Fatalf("%T event %d: filled %+v (req %d done %v reqs %d), engine %+v (req %d done %v reqs %d)",
						src, events, ev[i], req[i], done[i], reqs[i], want, eng.CurrentRequest(), eng.RequestDone(), eng.Requests())
				}
				events++
			}
			if n < chunk {
				break
			}
		}
		if !errors.Is(src.Err(), ErrExhausted) {
			t.Fatalf("%T: short fill after %d events with Err %v, want ErrExhausted", src, events, src.Err())
		}
	}
}
