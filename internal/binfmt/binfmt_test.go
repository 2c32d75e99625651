package binfmt

import (
	"slices"
	"testing"

	"hprefetch/internal/isa"
	"hprefetch/internal/program"
)

func testProgram(t *testing.T) *program.Program {
	t.Helper()
	cfg := program.DefaultConfig()
	cfg.Name = "binfmt-test"
	cfg.Seed = 21
	cfg.OrphanFuncs = 150
	p, err := program.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRoundTripUnlinked(t *testing.T) {
	p := testProgram(t)
	im := FromProgram(p)
	data := im.Marshal()
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	q, err := back.Program()
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != p.Name || q.Seed != p.Seed || q.Entry != p.Entry ||
		q.RequestTypes != p.RequestTypes || q.NumFuncs() != p.NumFuncs() {
		t.Fatal("program header fields did not round-trip")
	}
	for i := range p.Funcs {
		a, b := &p.Funcs[i], &q.Funcs[i]
		if *a != *b {
			t.Fatalf("function %d fields differ after round-trip", i)
		}
	}
	if !slices.Equal(p.Calls, q.Calls) {
		t.Fatal("call sites differ after round-trip")
	}
	if len(q.TargetSets) != len(p.TargetSets) || len(q.Stages) != len(p.Stages) {
		t.Fatal("target sets or stages lost")
	}
	for i := range p.TargetSets {
		if p.TargetSets[i].ByType != q.TargetSets[i].ByType ||
			len(p.TargetSets[i].Funcs) != len(q.TargetSets[i].Funcs) {
			t.Fatalf("target set %d differs", i)
		}
	}
	for i := range p.TypeWeights {
		if p.TypeWeights[i] != q.TypeWeights[i] {
			t.Fatalf("type weight %d differs", i)
		}
	}
}

func TestBundleSegmentRoundTrip(t *testing.T) {
	p := testProgram(t)
	im := FromProgram(p)
	im.Bundles = BundleSegment{
		Threshold:   200 << 10,
		Entries:     []isa.FuncID{1, 5, 9},
		TaggedAddrs: []isa.Addr{0x400010, 0x400404, 0x408800},
	}
	back, err := Unmarshal(im.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.Bundles.Threshold != im.Bundles.Threshold {
		t.Error("threshold lost")
	}
	if len(back.Bundles.Entries) != 3 || back.Bundles.Entries[1] != 5 {
		t.Errorf("entries lost: %v", back.Bundles.Entries)
	}
	if len(back.Bundles.TaggedAddrs) != 3 || back.Bundles.TaggedAddrs[2] != 0x408800 {
		t.Errorf("tagged addrs lost: %v", back.Bundles.TaggedAddrs)
	}
	if im.Bundles.Empty() {
		t.Error("non-empty segment reported empty")
	}
	var empty BundleSegment
	if !empty.Empty() {
		t.Error("empty segment reported non-empty")
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	p := testProgram(t)
	data := FromProgram(p).Marshal()

	if _, err := Unmarshal(nil); err == nil {
		t.Error("nil input accepted")
	}
	if _, err := Unmarshal(data[:len(data)/2]); err == nil {
		t.Error("truncated image accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if _, err := Unmarshal(bad); err == nil {
		t.Error("bad magic accepted")
	}
	trailing := append(append([]byte(nil), data...), 0xAA)
	if _, err := Unmarshal(trailing); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Corrupt a length prefix deep inside: name length made absurd.
	absurd := append([]byte(nil), data...)
	absurd[10] = 0xFF
	absurd[11] = 0xFF
	absurd[12] = 0xFF
	absurd[13] = 0x7F
	if _, err := Unmarshal(absurd); err == nil {
		t.Error("absurd length prefix accepted")
	}
}

func TestMarshalDeterministic(t *testing.T) {
	p := testProgram(t)
	a := FromProgram(p).Marshal()
	b := FromProgram(p).Marshal()
	if string(a) != string(b) {
		t.Error("Marshal is not deterministic")
	}
}

// TestProgramRejectsInconsistentRecords: a program keeps no per-function
// seed, so Program must refuse an image whose record seed is not the one
// the function's ID derives (its bodies would expand differently), and
// one whose call counts do not cover the call-site table exactly.
func TestProgramRejectsInconsistentRecords(t *testing.T) {
	p := testProgram(t)
	if _, err := FromProgram(p).Program(); err != nil {
		t.Fatalf("consistent image rejected: %v", err)
	}
	im := FromProgram(p)
	im.Funcs[3].Seed++
	if _, err := im.Program(); err == nil {
		t.Error("record with a foreign seed accepted")
	}
	im = FromProgram(p)
	im.Calls = im.Calls[:len(im.Calls)-1]
	if _, err := im.Program(); err == nil {
		t.Error("call counts overrunning the call table accepted")
	}
	im = FromProgram(p)
	im.Calls = append(im.Calls, program.Call{})
	if _, err := im.Program(); err == nil {
		t.Error("call-site table with an unowned entry accepted")
	}
}
