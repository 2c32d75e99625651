package sim_test

import (
	"testing"

	"hprefetch/internal/core"
	"hprefetch/internal/prefetch"
	"hprefetch/internal/sim"
)

func ledger(t *testing.T, name string, st *sim.Stats) {
	cyc := float64(st.ScaledCycles) / 48
	t.Logf("%-6s IPC=%.3f cyc=%.0fk | stallShare=%.1f%% | fdipLateStall=%.0fk pfLateStall=%.0fk cleanL2=%.0fk cleanLLC=%.0fk cleanMem=%.0fk | tlbMiss=%d (%.0fk cyc) | redirects=%d mispred=%d | fdipIssued=%d fdipLate=%d | pfIssued=%d useful=%d useless=%d late=%d",
		name, st.IPC(), cyc/1000,
		float64(st.StallScaled)/float64(st.ScaledCycles)*100,
		float64(st.LateFDIPStallSum)/48e3, float64(st.LatePFStallSum)/48e3,
		float64(st.LatencyL2Sum)/48e3, float64(st.LatencyLLCSum)/48e3, float64(st.LatencyMemSum)/48e3,
		st.TLBMisses, float64(st.TLBMisses)*35/1000,
		st.BTBMissRedirects, st.CondMispredicts+st.IndirectMispredicts+st.RASMispredicts,
		st.FDIPIssued, st.LateFDIP, st.PFIssued, st.PFUseful, st.PFUseless, st.LatePF)
	t.Logf("   late-FDIP by level L2/LLC/mem: %d/%d/%d  late-PF: %d/%d/%d",
		st.LateFDIPByLevel[2], st.LateFDIPByLevel[3], st.LateFDIPByLevel[4],
		st.LatePFByLevel[2], st.LatePFByLevel[3], st.LatePFByLevel[4])

	// Every clean miss is served by exactly one level, every late hit
	// has exactly one origin, and each origin's per-level split sums to
	// its total.
	if served := st.ServedL2 + st.ServedLLC + st.ServedMem; served != st.L1IDemandMisses {
		t.Errorf("%s: ServedL2+ServedLLC+ServedMem = %d+%d+%d = %d, L1IDemandMisses %d",
			name, st.ServedL2, st.ServedLLC, st.ServedMem, served, st.L1IDemandMisses)
	}
	if late := st.LateFDIP + st.LatePF; late != st.L1ILateHits {
		t.Errorf("%s: LateFDIP+LatePF = %d+%d = %d, L1ILateHits %d",
			name, st.LateFDIP, st.LatePF, late, st.L1ILateHits)
	}
	for _, c := range []struct {
		name    string
		total   uint64
		byLevel [5]uint64
	}{
		{"LateFDIP", st.LateFDIP, st.LateFDIPByLevel},
		{"LatePF", st.LatePF, st.LatePFByLevel},
	} {
		var sum uint64
		for _, n := range c.byLevel {
			sum += n
		}
		if sum != c.total {
			t.Errorf("%s: %sByLevel %v sums to %d, %s %d", name, c.name, c.byLevel, sum, c.name, c.total)
		}
	}
}

func TestStallLedger(t *testing.T) {
	base := runScheme(t, 71, scheme{name: "FDIP"}, nil)
	hp := runScheme(t, 71, scheme{name: "HP", mk: func(m prefetch.Machine) prefetch.Prefetcher {
		return core.New(core.DefaultConfig(), m)
	}}, nil)
	ledger(t, "FDIP", base)
	ledger(t, "HP", hp)
}

func TestEFetchLedger(t *testing.T) {
	st := runScheme(t, 71, schemes()[1], nil)
	ledger(t, "EFetch", st)
}
