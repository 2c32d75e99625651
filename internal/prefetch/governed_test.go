package prefetch

import (
	"testing"

	"hprefetch/internal/isa"
)

// tunableSpy records the knob settings and events a Governed wrapper
// forwards to its inner scheme.
type tunableSpy struct {
	degree, lookahead int
	retires           int
	resteers          int
	misses            int
	released          int
}

func (s *tunableSpy) Name() string                       { return "spy" }
func (s *tunableSpy) OnRetire(ev *isa.BlockEvent)        { s.retires++ }
func (s *tunableSpy) OnResteer()                         { s.resteers++ }
func (s *tunableSpy) OnDemandMiss(b isa.Block, l uint64) { s.misses++ }
func (s *tunableSpy) StorageBits() int                   { return 100 }
func (s *tunableSpy) SetAggressiveness(d, l int)         { s.degree, s.lookahead = d, l }
func (s *tunableSpy) Release()                           { s.released++ }

// ctrlScript changes the knobs on a chosen observation ordinal.
type ctrlScript struct {
	initial [2]int
	fireAt  int
	fired   [2]int
	seen    int
}

func (c *ctrlScript) Knobs() (int, int) { return c.initial[0], c.initial[1] }
func (c *ctrlScript) Observe(ev *isa.BlockEvent) (int, int, bool) {
	c.seen++
	if c.seen == c.fireAt {
		return c.fired[0], c.fired[1], true
	}
	return 0, 0, false
}
func (c *ctrlScript) StorageBits() int { return 42 }

// TestGovernedAppliesKnobs: attach applies the controller's initial
// operating point; a controller decision retunes the scheme before the
// scheme sees the deciding event; all events forward to the inner.
func TestGovernedAppliesKnobs(t *testing.T) {
	spy := &tunableSpy{}
	ctrl := &ctrlScript{initial: [2]int{4, 2}, fireAt: 3, fired: [2]int{8, 4}}
	g := NewGoverned(spy, ctrl)

	if spy.degree != 4 || spy.lookahead != 2 {
		t.Fatalf("initial knobs not applied: %+v", spy)
	}
	if g.Name() != "spy" {
		t.Fatalf("name %q", g.Name())
	}
	if g.StorageBits() != 142 {
		t.Fatalf("storage %d, want inner+controller = 142", g.StorageBits())
	}

	ev := &isa.BlockEvent{}
	g.OnRetire(ev)
	g.OnRetire(ev)
	if spy.degree != 4 {
		t.Fatalf("knobs moved before the controller decided: %+v", spy)
	}
	g.OnRetire(ev)
	if spy.degree != 8 || spy.lookahead != 4 {
		t.Fatalf("controller decision not applied: %+v", spy)
	}
	g.OnResteer()
	g.OnDemandMiss(7, 100)
	if spy.retires != 3 || spy.resteers != 1 || spy.misses != 1 {
		t.Fatalf("events not forwarded: %+v", spy)
	}
	g.Release()
	if spy.released != 1 {
		t.Fatalf("Release not forwarded: %+v", spy)
	}
	if g.Inner() != Tunable(spy) {
		t.Fatal("Inner() does not expose the wrapped scheme")
	}
}
