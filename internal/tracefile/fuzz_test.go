package tracefile

import (
	"bytes"
	"testing"

	"hprefetch/internal/isa"
)

// fuzzSeedBody builds a canonical frame body from a short hand-rolled
// event sequence exercising every encoding path: fall-through,
// conditional, call/return, tagged edges, address jumps, function
// changes and every attribute-delta kind.
func fuzzSeedBody(tb testing.TB) []byte {
	tb.Helper()
	mk := func(addr isa.Addr, n uint16, br isa.BranchKind, target isa.Addr, fn isa.FuncID, taken, tagged bool) isa.BlockEvent {
		ev := isa.BlockEvent{Addr: addr, NumInstr: n, Branch: br, Func: fn, Taken: taken, Tagged: tagged}
		if br == isa.BrNone {
			ev.Target = ev.EndAddr()
		} else {
			ev.Target = target
			ev.BrPC = ev.EndAddr() - isa.InstrSize
		}
		return ev
	}
	events := []isa.BlockEvent{
		mk(0x400000, 16, isa.BrNone, 0, 0, false, false),
		mk(0x400040, 3, isa.BrCond, 0x400100, 0, true, false),
		mk(0x400100, 8, isa.BrCall, 0x410000, 0, false, true),
		mk(0x410000, 2, isa.BrRet, 0x400120, 7, false, true),
		mk(0x400120, 5, isa.BrJump, 0x400000, 0, false, false),
	}
	attrs := []Attrs{
		{Requests: 1, Type: 0, Stage: -1, Depth: 0, Request: 3},
		{Requests: 1, Type: 0, Stage: 2, Depth: 0, Request: 3},
		{Requests: 1, Type: 0, Stage: 2, Depth: 1, Request: 1}, // backwards id hop (interleaving)
		{Requests: 1, Type: 0, Stage: 2, Depth: 0, Request: 1, Done: true},
		{Requests: 2, Type: 1, Stage: -1, Depth: 0, Request: 4},
	}
	start := frameStart{Instr: 123, A: Attrs{Requests: 1, Type: 0, Stage: -1, Depth: 0, Request: 2}}
	return encodeFrameBody(start, events, attrs)
}

// decodeAoS decodes a frame body through the column decoder and
// reassembles its events and attributions for the encoder.
func decodeAoS(body []byte) (frameStart, frameStart, []isa.BlockEvent, []Attrs, error) {
	var c columns
	start, end, err := decodeFrame(body, &c)
	if err != nil {
		return start, end, nil, nil, err
	}
	attrs := make([]Attrs, len(c.events))
	for i := range attrs {
		attrs[i] = c.attrs(i)
	}
	return start, end, c.events, attrs, nil
}

// FuzzTraceDecode throws arbitrary bytes at the frame decoder. The
// invariants: no panic; because the encoding is canonical (minimal
// varints, no zero deltas under change flags, footer cross-checks), any
// accepted body re-encodes to exactly itself; and decoding onto columns
// that already hold a frame appends exactly the same events — or, on
// failure, leaves the columns as they were.
func FuzzTraceDecode(f *testing.F) {
	seed := fuzzSeedBody(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:3])
	f.Add([]byte{})
	// A hostile event count right at the front.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})

	f.Fuzz(func(t *testing.T, data []byte) {
		var held, c columns
		decodeFrame(seed, &held) //nolint:errcheck // the seed round-trips (TestFuzzSeedRoundTrips)
		decodeFrame(seed, &c)    //nolint:errcheck
		_, _, appendErr := decodeFrame(data, &c)
		start, end, events, attrs, err := decodeAoS(data)
		if (err == nil) != (appendErr == nil) {
			t.Fatalf("decode onto empty columns: %v, onto a held frame: %v", err, appendErr)
		}
		if err != nil {
			if len(c.events) != len(held.events) || len(c.stage) != len(held.stage) {
				t.Fatalf("failed frame left %d events behind", len(c.events)-len(held.events))
			}
			return
		}
		for i := range events {
			if c.events[len(held.events)+i] != events[i] || c.attrs(len(held.events)+i) != attrs[i] {
				t.Fatalf("event %d differs when appended to a held frame", i)
			}
		}
		out := encodeFrameBody(start, events, attrs)
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted frame body is not canonical: in %d bytes, out %d bytes", len(data), len(out))
		}
		// Decoded events must satisfy the stream invariants the writer
		// enforces, so a decoded frame is always re-recordable.
		instr := start.Instr
		last := start.A
		for i := range events {
			ev := &events[i]
			if ev.NumInstr == 0 || ev.NumInstr > isa.InstrPerBlock {
				t.Fatalf("event %d: instruction count %d escaped validation", i, ev.NumInstr)
			}
			if ev.Branch == isa.BrNone && (ev.Target != ev.EndAddr() || ev.BrPC != 0) {
				t.Fatalf("event %d: fall-through invariant violated", i)
			}
			if ev.Branch != isa.BrNone && ev.BrPC != ev.EndAddr()-isa.InstrSize {
				t.Fatalf("event %d: branch PC invariant violated", i)
			}
			instr += uint64(ev.NumInstr)
			last = attrs[i]
		}
		if end != (frameStart{Instr: instr, A: last}) {
			t.Fatalf("end state %+v, want instruction %d and the last attribution %+v", end, instr, last)
		}
	})
}

// TestFuzzSeedRoundTrips pins the seed corpus itself (the fuzz target
// only proves it for inputs the fuzzer happens to accept).
func TestFuzzSeedRoundTrips(t *testing.T) {
	body := fuzzSeedBody(t)
	start, _, events, attrs, err := decodeAoS(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 || len(attrs) != 5 {
		t.Fatalf("decoded %d events, %d attrs", len(events), len(attrs))
	}
	if start.Instr != 123 {
		t.Fatalf("start instr %d", start.Instr)
	}
	if !bytes.Equal(encodeFrameBody(start, events, attrs), body) {
		t.Fatal("seed body does not round-trip")
	}
}
