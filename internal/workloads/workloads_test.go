package workloads

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hprefetch/internal/isa"
	"hprefetch/internal/program"
)

func TestAllPresetsResolve(t *testing.T) {
	for _, n := range Names() {
		w, err := Get(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if w.Name != n || w.Config.Name != n {
			t.Errorf("%s: name mismatch", n)
		}
		if err := w.Config.Validate(); err != nil {
			t.Errorf("%s: invalid config: %v", n, err)
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestBuildUnknownNameErrors(t *testing.T) {
	if _, err := Build("nope"); err == nil {
		t.Error("Build accepted an unknown workload name")
	}
}

func TestBuildSmallPresetAndMemoise(t *testing.T) {
	a, err := Build("gin")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build("gin")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Build not memoised")
	}
	if a.Loaded.Tags.Len() == 0 {
		t.Error("no tagged instructions")
	}
	// Entry fraction in a plausible band around the paper's 2.3-6.1%.
	frac := float64(len(a.Loaded.Entries)) / float64(a.Loaded.Prog.TextFuncs())
	if frac < 0.003 || frac > 0.15 {
		t.Errorf("gin entry fraction %.4f outside plausible band", frac)
	}
}

func TestEnginesAreIndependentAndDeterministic(t *testing.T) {
	b, err := Build("gorm")
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := b.NewEngine(), b.NewEngine()
	for i := 0; i < 50_000; i++ {
		a, bb := e1.Next(), e2.Next()
		if a != bb {
			t.Fatalf("engines diverged at event %d", i)
		}
	}
}

func TestMySQLVariantsShareBinaryShape(t *testing.T) {
	// The three mysql drivers model one binary: same structural seed,
	// same function count, different request mixes.
	a, err := Build("mysql-sysbench")
	if err != nil {
		t.Fatal(err)
	}
	bb, err := Build("mysql-ycsb")
	if err != nil {
		t.Fatal(err)
	}
	if a.Loaded.Prog.TextFuncs() != bb.Loaded.Prog.TextFuncs() {
		t.Error("mysql variants differ structurally")
	}
	wa, _ := Get("mysql-sysbench")
	wb, _ := Get("mysql-ycsb")
	if wa.Config.TypeZipf == wb.Config.TypeZipf {
		t.Error("mysql variants share the same request mix")
	}
}

func TestTable4NamesSubset(t *testing.T) {
	all := map[string]bool{}
	for _, n := range Names() {
		all[n] = true
	}
	for _, n := range Table4Names() {
		if !all[n] {
			t.Errorf("Table 4 name %s not a workload", n)
		}
	}
	if len(Table4Names()) != 8 {
		t.Errorf("Table 4 has 8 binaries, got %d", len(Table4Names()))
	}
	if len(SortedNames()) != len(Names()) {
		t.Error("SortedNames dropped entries")
	}
}

func TestDropCache(t *testing.T) {
	a, err := Build("gin")
	if err != nil {
		t.Fatal(err)
	}
	DropCache()
	b, err := Build("gin")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("DropCache kept the old build")
	}
	// Identical regardless of cache state.
	if a.Loaded.Prog.TextSize != b.Loaded.Prog.TextSize {
		t.Error("rebuild differs")
	}
	_ = isa.Addr(0)
}

// testNames numbers the workloads the Build tests register, so a test
// repeated in one process never collides with its earlier run.
var testNames atomic.Int64

// registerTestWorkload registers a small workload built by gen under a
// fresh name and removes it again when the test ends.
func registerTestWorkload(t *testing.T, gen func() (*program.Program, error)) string {
	t.Helper()
	name := fmt.Sprintf("test-build-%d", testNames.Add(1))
	if err := Register(Workload{Name: name, Config: smallConfig(name), Generator: gen}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		regMu.Lock()
		delete(registry, name)
		regMu.Unlock()
		cacheMu.Lock()
		delete(cache, name)
		cacheMu.Unlock()
	})
	return name
}

// smallConfig is a quick-to-build program preset.
func smallConfig(name string) program.Config {
	cfg := program.DefaultConfig()
	cfg.Name = name
	cfg.OrphanFuncs = 100
	return cfg
}

func TestBuildOtherNamesWhileOneBlocks(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	var name string
	name = registerTestWorkload(t, func() (*program.Program, error) {
		close(started)
		<-release
		return program.Generate(smallConfig(name))
	})
	blocked := make(chan error, 1)
	go func() {
		_, err := Build(name)
		blocked <- err
	}()
	<-started
	gin := make(chan error, 1)
	go func() {
		_, err := Build("gin")
		gin <- err
	}()
	select {
	case err := <-gin:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("Build(gin) waited behind another workload's build")
	}
	close(release)
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
}

func TestBuildConcurrentCallsShareOneBuild(t *testing.T) {
	var calls atomic.Int32
	gate := make(chan struct{})
	var name string
	name = registerTestWorkload(t, func() (*program.Program, error) {
		calls.Add(1)
		<-gate
		return program.Generate(smallConfig(name))
	})
	const n = 8
	var ready, wg sync.WaitGroup
	builds := make([]*Built, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		ready.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ready.Done()
			builds[i], errs[i] = Build(name)
		}()
	}
	// Hold the first build until every caller is on its way in.
	ready.Wait()
	close(gate)
	wg.Wait()
	for i := range builds {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if builds[i] != builds[0] {
			t.Errorf("caller %d got a different build", i)
		}
	}
	if c := calls.Load(); c != 1 {
		t.Errorf("%d concurrent Builds ran the generator %d times, want 1", n, c)
	}
}

func TestBuildFailureIsNotMemoised(t *testing.T) {
	var calls atomic.Int32
	var name string
	name = registerTestWorkload(t, func() (*program.Program, error) {
		switch calls.Add(1) {
		case 1:
			return nil, fmt.Errorf("transient")
		case 2:
			panic("generator panicked")
		}
		return program.Generate(smallConfig(name))
	})
	if _, err := Build(name); err == nil {
		t.Fatal("failed build reported success")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("generator panic did not reach the caller")
			}
		}()
		Build(name)
	}()
	a, err := Build(name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(name)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || calls.Load() != 3 {
		t.Errorf("generator ran %d times, want 3 (two failures, then one memoised build)", calls.Load())
	}
}
