package sim_test

// Determinism tests: the paper's per-prefetch usefulness metrics only
// mean something if two runs of the same trace agree on every counter,
// not just IPC. These tests build everything fresh twice — engine,
// machine, prefetcher — exactly as two separate processes would, and
// require the *full* Stats to match bit for bit.

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"hprefetch/internal/prefetch"
	"hprefetch/internal/sim"
)

// runFresh performs a short warm+measure run on a newly built stack.
func runFresh(t *testing.T, seed uint64, s scheme) *sim.Stats {
	t.Helper()
	m, err := sim.New(sim.DefaultParams(), newEngine(t, seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	var pf prefetch.Prefetcher
	if s.mk != nil {
		pf = s.mk(m)
	}
	if pf != nil {
		m.SetPrefetcher(pf)
	}
	if err := m.Run(600_000); err != nil {
		t.Fatal(err)
	}
	m.ResetStats()
	if err := m.Run(1_200_000); err != nil {
		t.Fatal(err)
	}
	return m.Stats()
}

func TestFullStatsDeterministicAcrossFreshMachines(t *testing.T) {
	for _, s := range schemes() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			a := runFresh(t, 91, s)
			b := runFresh(t, 91, s)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("full Stats diverged between identical fresh runs:\n--- run A\n%s--- run B\n%s",
					a.Canonical(), b.Canonical())
			}
			if da, db := a.Digest(), b.Digest(); da != db {
				t.Errorf("digests diverged: %s vs %s", da, db)
			}
		})
	}
}

func TestDigestReflectsEveryCounter(t *testing.T) {
	a, b := sim.NewStats(), sim.NewStats()
	if a.Digest() != b.Digest() {
		t.Fatal("identical zero stats produced different digests")
	}
	b.PFUseless++
	if a.Digest() == b.Digest() {
		t.Error("digest blind to a counter change")
	}
	b.PFUseless--
	b.PFDistHist[3]++
	if a.Digest() == b.Digest() {
		t.Error("digest blind to a histogram change")
	}
	// The canonical form names every field, so a digest mismatch can be
	// diffed down to the counter that moved.
	typ := reflect.TypeOf(sim.Stats{})
	canon := a.Canonical()
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if !fieldNamed(canon, name) {
			t.Errorf("canonical form missing field %s", name)
		}
	}
}

// TestDigestHashesCanonical: for random statistics, Digest is the
// FNV-1a hash of Canonical in the "fnv1a64:<16 hex>" form, though it
// hashes the canonical form without building it; and it allocates only
// its result.
func TestDigestHashesCanonical(t *testing.T) {
	viaText := func(s *sim.Stats) string {
		h := fnv.New64a()
		h.Write([]byte(s.Canonical())) //nolint:errcheck // hash writes cannot fail
		return fmt.Sprintf("%s:%016x", sim.DigestPrefix, h.Sum64())
	}
	check := func(s sim.Stats) bool { return s.Digest() == viaText(&s) }
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	for _, s := range []*sim.Stats{{}, sim.NewStats()} {
		if !check(*s) {
			t.Errorf("Digest %s, hash of Canonical %s", s.Digest(), viaText(s))
		}
	}
	s := sim.NewStats()
	s.Instructions, s.ReqStallHist[3] = 123_456_789, 42
	if n := testing.AllocsPerRun(100, func() { _ = s.Digest() }); n > 1 {
		t.Errorf("Digest allocates %.0f times, want only its result", n)
	}
}

// fieldNamed reports whether the canonical form has a "name=" line.
func fieldNamed(canon, name string) bool {
	return strings.HasPrefix(canon, name+"=") || strings.Contains(canon, "\n"+name+"=")
}
