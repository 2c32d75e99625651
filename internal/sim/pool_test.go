package sim_test

import (
	"runtime"
	"strings"
	"testing"

	"hprefetch/internal/sim"
	"hprefetch/internal/workloads"
)

// TestMachineRecyclesTables: once a released machine's tables are in
// the pool, building and releasing a machine of the same shape
// allocates the machine and its statistics only, a few KB instead of
// the 1.35 MB of tables a machine holds.
func TestMachineRecyclesTables(t *testing.T) {
	built, err := workloads.Build("gin")
	if err != nil {
		t.Fatal(err)
	}
	eng := built.NewEngine()
	prm := sim.DefaultParams()
	cycle := func() {
		m, err := sim.New(prm, eng, nil)
		if err != nil {
			t.Fatal(err)
		}
		m.Release()
	}
	cycle()
	if a := testing.AllocsPerRun(20, cycle); a > 8 {
		t.Errorf("New+Release of a recycled machine: %.1f allocations, want at most 8", a)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	const cycles = 20
	for range cycles {
		cycle()
	}
	runtime.ReadMemStats(&ms)
	if per := (ms.TotalAlloc - before) / cycles; per > 4<<10 {
		t.Errorf("New+Release of a recycled machine allocates %d bytes, want at most 4 KB", per)
	}

	// A machine of another shape gets tables of its own.
	small := prm
	small.L1ISets /= 2
	runtime.ReadMemStats(&ms)
	before = ms.TotalAlloc
	m, err := sim.New(small, eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Release()
	runtime.ReadMemStats(&ms)
	if got := ms.TotalAlloc - before; got < 1<<20 {
		t.Errorf("a machine with half the L1-I sets allocated %d bytes, want its own tables (over 1 MB)", got)
	}
}

// TestReleasedMachinePanics: Release hands the tables to the next
// machine, so a released machine must refuse to run rather than share
// them. Its statistics stay readable, and a second Release does nothing.
func TestReleasedMachinePanics(t *testing.T) {
	built, err := workloads.Build("gin")
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(sim.DefaultParams(), built.NewEngine(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(20_000); err != nil {
		t.Fatal(err)
	}
	m.Release()
	m.Release()
	if m.Stats().Instructions < 20_000 {
		t.Errorf("released machine reports %d instructions, want at least 20000", m.Stats().Instructions)
	}
	for name, use := range map[string]func(){
		"Run":            func() { m.Run(1) },            //nolint:errcheck
		"SkipFunctional": func() { m.SkipFunctional(1) }, //nolint:errcheck
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "after Release") {
					t.Errorf("%s on a released machine: recovered %v, want a use-after-Release panic", name, r)
				}
			}()
			use()
		}()
	}
}
