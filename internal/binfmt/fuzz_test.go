package binfmt

import (
	"bytes"
	"testing"

	"hprefetch/internal/isa"
	"hprefetch/internal/program"
)

// fuzzSeedImage hand-builds a tiny image exercising every record type —
// small enough (a few hundred bytes) for the mutator to stay fast.
func fuzzSeedImage(tb testing.TB) []byte {
	tb.Helper()
	seeds := &program.Program{Seed: 7}
	im := &Image{
		Name:         "fuzz-seed",
		Seed:         7,
		Entry:        0,
		TextBase:     0x400000,
		TextSize:     0x1000,
		RequestTypes: 2,
		TypeWeights:  []float64{0.75, 0.25},
		Funcs: []FuncRecord{
			{Addr: 0x400000, Size: 64, Seed: seeds.FuncSeed(0), Kind: 1, Stage: 0, NumCalls: 1},
			{Addr: 0x400040, Size: 32, Seed: seeds.FuncSeed(1), Kind: 2, Stage: -1, NumCalls: 1},
		},
		Calls: []program.Call{
			{Off: 8, Callee: 1, Prob: 0x8000, Repeat: 1},
			{Off: 4, Callee: 0, Targets: 1, Prob: 0xFFFF},
		},
		TargetSets: []TargetSetRecord{{ByType: true, Funcs: []isa.FuncID{0, 1}}},
		Stages:     []StageRecord{{Name: "parse", Func: 0, Diverges: true, Handlers: []isa.FuncID{1}}},
		Bundles: BundleSegment{
			Threshold:   200 << 10,
			Entries:     []isa.FuncID{1},
			TaggedAddrs: []isa.Addr{0x400010, 0x400044},
		},
	}
	return im.Marshal()
}

// FuzzDecode throws arbitrary bytes at Unmarshal. The invariants: no
// panic, no runaway allocation (count() caps every length prefix against
// the input size), and — because the encoding is canonical and trailing
// bytes are rejected — any accepted input re-marshals to itself.
func FuzzDecode(f *testing.F) {
	seed := fuzzSeedImage(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:11])
	f.Add([]byte{})
	// A hostile length prefix right after the magic+version header.
	hostile := append([]byte(nil), seed[:10]...)
	hostile = append(hostile, 0xFF, 0xFF, 0xFF, 0xFF)
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := Unmarshal(data)
		if err != nil {
			if im != nil {
				t.Fatal("Unmarshal returned both an image and an error")
			}
			return
		}
		out := im.Marshal()
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted image is not canonical: in %d bytes, out %d bytes", len(data), len(out))
		}
		// Reconstructing the program must not panic either; it may
		// reject a record whose seed its ID does not derive.
		_, _ = im.Program()
	})
}
