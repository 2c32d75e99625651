package sim

import (
	"errors"
	"strings"
	"testing"

	"hprefetch/internal/isa"
)

// drySource emits a short straight-line stream and then runs dry — the
// shape of a trace file cut shorter than the requested run.
type drySource struct {
	events int
	addr   isa.Addr
	instr  uint64
	cause  error
}

func (s *drySource) Next() isa.BlockEvent {
	if s.events == 0 {
		return isa.BlockEvent{}
	}
	s.events--
	ev := isa.BlockEvent{Addr: s.addr, NumInstr: isa.InstrPerBlock}
	ev.Target = ev.EndAddr()
	s.addr = ev.Target
	s.instr += uint64(ev.NumInstr)
	return ev
}
func (s *drySource) Fill(ev []isa.BlockEvent, req []uint64, done []bool, reqs []uint64) int {
	for i := range ev {
		if ev[i] = s.Next(); ev[i].NumInstr == 0 {
			return i
		}
		req[i], done[i], reqs[i] = 0, false, 0
	}
	return len(ev)
}
func (s *drySource) Instructions() uint64 { return s.instr }
func (s *drySource) Requests() uint64     { return 0 }
func (s *drySource) Err() error           { return s.cause }

// TestRunFailsOnExhaustedSource: a finite event source that runs dry
// mid-run must produce a clean error carrying the source's own
// explanation — never an infinite loop or a panic.
func TestRunFailsOnExhaustedSource(t *testing.T) {
	cause := errors.New("drysource: torn tail")
	m, err := New(DefaultParams(), &drySource{events: 100, addr: 0x400000, cause: cause}, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run(1_000_000)
	if err == nil {
		t.Fatal("Run succeeded against a source that ran dry")
	}
	if !errors.Is(err, cause) {
		t.Fatalf("Run error %v does not wrap the source's terminal error", err)
	}
	// The error is sticky: further runs fail immediately.
	if err2 := m.Run(1); !errors.Is(err2, cause) {
		t.Fatalf("second Run returned %v, want the latched error", err2)
	}
}

// TestRunFailsOnSilentExhaustion covers sources without an Err method
// (the interface is optional): the machine still reports a useful error.
type silentDry struct{ drySource }

func (s *silentDry) Err() {} // shadows drySource.Err with a non-matching signature

func TestRunFailsOnSilentExhaustion(t *testing.T) {
	src := &silentDry{drySource{events: 50, addr: 0x400000}}
	m, err := New(DefaultParams(), src, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run(1_000_000)
	if err == nil {
		t.Fatal("Run succeeded against a dry source")
	}
	if !strings.Contains(err.Error(), "ended after") {
		t.Fatalf("error %q does not describe the exhaustion point", err)
	}
}

// TestRunCompletesWithinFiniteSource: a source holding more events than
// the run needs behaves exactly like an unbounded one.
func TestRunCompletesWithinFiniteSource(t *testing.T) {
	m, err := New(DefaultParams(), &drySource{events: 10_000, addr: 0x400000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(1_000); err != nil {
		t.Fatalf("Run failed despite sufficient events: %v", err)
	}
	if got := m.Stats().Instructions; got < 1_000 {
		t.Fatalf("ran %d instructions, want >= 1000", got)
	}
}
