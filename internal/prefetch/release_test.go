package prefetch_test

import (
	"strings"
	"testing"

	"hprefetch/internal/core"
	"hprefetch/internal/isa"
	"hprefetch/internal/prefetch"
	"hprefetch/internal/prefetch/efetch"
	"hprefetch/internal/prefetch/eip"
	"hprefetch/internal/prefetch/ghb"
	"hprefetch/internal/prefetch/mana"
	"hprefetch/internal/prefetch/prefetchtest"
)

// TestReleasedPrefetcherPanics: Release hands a prefetcher's tables to
// the next one of its kind, so a released prefetcher must refuse to
// observe another event rather than share them. A second Release does
// nothing.
func TestReleasedPrefetcherPanics(t *testing.T) {
	m := prefetchtest.NewMockMachine()
	schemes := map[string]func() prefetch.Prefetcher{
		"EIP":          func() prefetch.Prefetcher { return eip.New(eip.DefaultConfig(), m) },
		"MANA":         func() prefetch.Prefetcher { return mana.New(mana.DefaultConfig(), m) },
		"EFetch":       func() prefetch.Prefetcher { return efetch.New(efetch.DefaultConfig(), m) },
		"GHB":          func() prefetch.Prefetcher { return ghb.New(ghb.DefaultConfig(), m) },
		"Hierarchical": func() prefetch.Prefetcher { return core.New(core.DefaultConfig(), m) },
	}
	ev := &isa.BlockEvent{Addr: 0x40_0000, NumInstr: 4, Branch: isa.BrCall, Target: 0x40_1000, Tagged: true}
	for name, build := range schemes {
		pf := build()
		// The same block twice takes the schemes' same-block shortcuts
		// before they are released.
		pf.OnRetire(ev)
		pf.OnRetire(ev)
		pf.OnDemandMiss(ev.Block(), 100)
		pf.Release()
		pf.Release()
		func() {
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, "after Release") {
					t.Errorf("%s: OnRetire after Release recovered %q, want a use-after-Release panic", name, r)
				}
			}()
			pf.OnRetire(ev)
		}()
	}
}
