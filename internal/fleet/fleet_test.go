package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"hprefetch/internal/harness"
	"hprefetch/internal/service"
)

// testBackend is an in-process hpserved instance on a stable address:
// stop() kills it abruptly (connections dropped, job state lost) and
// restart() brings a fresh instance up on the SAME address, like a
// crashed machine rejoining the fleet.
type testBackend struct {
	t    *testing.T
	addr string

	mu  sync.Mutex
	svc *service.Server
	srv *http.Server
}

func startBackend(t *testing.T) *testBackend {
	t.Helper()
	b := &testBackend{t: t}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b.addr = ln.Addr().String()
	b.serve(ln)
	t.Cleanup(b.stop)
	return b
}

func (b *testBackend) url() string { return "http://" + b.addr }

func (b *testBackend) serve(ln net.Listener) {
	svc, err := service.New(service.Config{
		Workers: 2, QueueDepth: 32,
		Retry: service.RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	})
	if err != nil {
		b.t.Fatal(err)
	}
	srv := &http.Server{Handler: svc.Handler()}
	b.mu.Lock()
	b.svc, b.srv = svc, srv
	b.mu.Unlock()
	go srv.Serve(ln) //nolint:errcheck // closed on stop
}

// stop kills the backend: listener and connections close immediately,
// in-flight jobs are cancelled, all job state is lost.
func (b *testBackend) stop() {
	b.mu.Lock()
	svc, srv := b.svc, b.srv
	b.svc, b.srv = nil, nil
	b.mu.Unlock()
	if srv != nil {
		srv.Close() //nolint:errcheck // abrupt by design
	}
	if svc != nil {
		svc.Close()
	}
}

// restart brings a fresh instance up on the same address.
func (b *testBackend) restart() {
	b.stop()
	ln, err := net.Listen("tcp", b.addr)
	if err != nil {
		b.t.Errorf("restart %s: %v", b.addr, err)
		return
	}
	b.serve(ln)
}

// tinySweep is a fast real sweep: 2 workloads × 2 schemes at smoke run
// lengths, a few seconds cold and milliseconds warm (the shared harness
// cache memoises across backends in-process).
func tinySweep() SweepSpec {
	return SweepSpec{
		Workloads:    []string{"gin", "echo"},
		Schemes:      []string{"FDIP", "Hierarchical"},
		WarmInstr:    50_000,
		MeasureInstr: 100_000,
	}
}

// fastFleetConfig tunes the coordinator for test time scales.
func fastFleetConfig(backends ...string) Config {
	return Config{
		Backends:      backends,
		Retry:         service.RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond},
		RetrySeed:     7,
		MaxAttempts:   12,
		ProbeInterval: 100 * time.Millisecond,
		BreakerWindow: 8, BreakerMinSamples: 2, BreakerThreshold: 0.6,
		BreakerCooldown: 300 * time.Millisecond,
		HTTP:            &http.Client{Timeout: 30 * time.Second},
	}
}

// awaitSweep polls a sweep to a terminal state.
func awaitSweep(t *testing.T, sw *Sweep, timeout time.Duration) SweepView {
	t.Helper()
	select {
	case <-sw.Done():
	case <-time.After(timeout):
		t.Fatalf("sweep %s did not settle in %v: %+v", sw.ID, timeout, sw.View())
	}
	return sw.View()
}

// TestSweepMatchesLocal is the core fleet contract: a sweep sharded
// over two backends aggregates to the byte-identical table a
// single-node local run produces — digests included, via the table
// notes.
func TestSweepMatchesLocal(t *testing.T) {
	harness.DropCache()
	b1, b2 := startBackend(t), startBackend(t)
	c, err := New(fastFleetConfig(b1.url(), b2.url()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sw, err := c.Submit(tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	v := awaitSweep(t, sw, 2*time.Minute)
	if v.State != service.JobDone {
		t.Fatalf("sweep finished %s: %s", v.State, v.Error)
	}
	if v.Done != v.Total || v.Total != 4 {
		t.Fatalf("done %d of %d, want 4/4", v.Done, v.Total)
	}

	local, err := RunLocal(context.Background(), tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	if v.Table != local.String() {
		t.Fatalf("fleet table differs from single-node run:\nfleet:\n%s\nlocal:\n%s", v.Table, local.String())
	}
	if v.TableDigest != local.Digest() {
		t.Fatalf("table digest %s != local %s", v.TableDigest, local.Digest())
	}
	// Routing is consistent-hash: both backends should have seen work in
	// a 4-job sweep with high probability... but that is distribution,
	// not correctness. What IS correctness: every job exactly once.
	seen := map[string]int{}
	for _, js := range v.Jobs {
		seen[js.Key]++
		if js.State != service.JobDone {
			t.Fatalf("job %s state %s", js.Key, js.State)
		}
	}
	for _, key := range sweepKeys(tinySweep()) {
		if seen[key] != 1 {
			t.Fatalf("job %s appears %d times", key, seen[key])
		}
	}
}

// TestSweepHTTPAPI drives the same contract through the coordinator's
// HTTP front door, including the long-poll wait and partial-result
// streaming fields.
func TestSweepHTTPAPI(t *testing.T) {
	harness.DropCache()
	b1 := startBackend(t)
	c, err := New(fastFleetConfig(b1.url()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mux := c.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // closed below
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	spec := tinySweep()
	spec.Workloads = []string{"gin"}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/sweeps", "application/json", newReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var accepted SweepView
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit returned %d", resp.StatusCode)
	}
	json.NewDecoder(resp.Body).Decode(&accepted) //nolint:errcheck
	resp.Body.Close()

	deadline := time.Now().Add(2 * time.Minute)
	var view SweepView
	for {
		r2, err := http.Get(base + "/v1/sweeps/" + accepted.ID + "?wait=5s")
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(r2.Body).Decode(&view) //nolint:errcheck
		r2.Body.Close()
		if view.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck: %+v", view)
		}
	}
	if view.State != service.JobDone || view.Table == "" || view.TableDigest == "" {
		t.Fatalf("sweep view: state=%s table=%d bytes", view.State, len(view.Table))
	}
	for _, js := range view.Jobs {
		if js.Digest == "" || js.IPC == 0 {
			t.Fatalf("job %s missing streamed result fields: %+v", js.Key, js)
		}
	}

	// Unknown sweeps and bad specs are client errors.
	if r, _ := http.Get(base + "/v1/sweeps/swp-999999"); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown sweep returned %d", r.StatusCode)
	}
	for name, spec := range map[string]SweepSpec{
		"unknown workload": {Workloads: []string{"no-such-workload"}},
		"bad fault":        {Workloads: []string{"gin"}, Fault: "no-such-class"},
		"workload":         {Workload: "gin"},
		"scheme":           {Scheme: "FDIP"},
		"experiment":       {Experiment: "fig9"},
		"trace_path":       {TracePath: t.TempDir()},
	} {
		bad, _ := json.Marshal(spec)
		r, err := http.Post(base+"/v1/sweeps", "application/json", newReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: bad spec returned %d", name, r.StatusCode)
		}
	}
}

// TestGovernedSweepMatchesLocal: every knob of a sweep spec reaches the
// backends, so a governed sweep sharded over two backends matches the
// governed single-node run — and differs from the plain one.
func TestGovernedSweepMatchesLocal(t *testing.T) {
	harness.DropCache()
	b1, b2 := startBackend(t), startBackend(t)
	c, err := New(fastFleetConfig(b1.url(), b2.url()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	spec := SweepSpec{Workloads: []string{"gin", "echo"}, Schemes: []string{"GHB"},
		WarmInstr: 50_000, MeasureInstr: 100_000, Governed: true}
	sw, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v := awaitSweep(t, sw, 2*time.Minute)
	if v.State != service.JobDone {
		t.Fatalf("sweep finished %s: %s", v.State, v.Error)
	}
	local, err := RunLocal(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if v.Table != local.String() || v.TableDigest != local.Digest() {
		t.Fatalf("governed fleet table differs from single-node run:\nfleet:\n%s\nlocal:\n%s", v.Table, local.String())
	}
	spec.Governed = false
	plain, err := RunLocal(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Digest() == local.Digest() {
		t.Fatal("governed and plain sweeps share a table digest")
	}
}

// TestFailoverDeadBackend kills one of two backends before the sweep:
// every job must land on the survivor (health breaker + preference-list
// walk), and the table must still match the local run.
func TestFailoverDeadBackend(t *testing.T) {
	harness.DropCache()
	b1, b2 := startBackend(t), startBackend(t)
	b2.stop() // dead before any dispatch

	c, err := New(fastFleetConfig(b1.url(), b2.url()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sw, err := c.Submit(tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	v := awaitSweep(t, sw, 2*time.Minute)
	if v.State != service.JobDone {
		t.Fatalf("sweep with dead backend finished %s: %s", v.State, v.Error)
	}
	for _, js := range v.Jobs {
		if js.Backend != b1.url() {
			t.Fatalf("job %s landed on %s, want survivor %s", js.Key, js.Backend, b1.url())
		}
	}
	local, err := RunLocal(context.Background(), tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	if v.Table != local.String() {
		t.Fatalf("failover table differs from local run")
	}
}

// TestCoordinatorCrashRecovery kills the coordinator mid-sweep and
// restarts it against the same journal: the sweep replays under its
// original id, prefers its journaled backend assignments, and completes
// with the byte-identical table.
func TestCoordinatorCrashRecovery(t *testing.T) {
	harness.DropCache()
	b1, b2 := startBackend(t), startBackend(t)
	jpath := t.TempDir() + "/coord.wal"

	// First life: the only backend is a stalled fake, so the sweep
	// deterministically cannot finish before the crash.
	stalled := newFakeBackend(t, "fnv1a64:0")
	stalled.setDelay(time.Hour)
	cfg1 := fastFleetConfig(stalled.url())
	cfg1.JournalPath = jpath
	c1, err := New(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := c1.Submit(tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	// Let dispatches journal their backend assignments, then crash. Close
	// keeps the sweep pending in the journal (shutdown is not terminal).
	time.Sleep(150 * time.Millisecond)
	c1.Close()

	// Second life: reconfigured with healthy backends, same journal. The
	// journaled assignments point at a backend no longer in the ring and
	// must be ignored, not chased.
	cfg := fastFleetConfig(b1.url(), b2.url())
	cfg.JournalPath = jpath
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := c2.Metrics().SweepsReplayed.Load(); got != 1 {
		t.Fatalf("replayed %d sweeps, want 1", got)
	}
	replayed, ok := c2.Sweep(sw.ID)
	if !ok {
		t.Fatalf("sweep %s not replayed (known: %v)", sw.ID, c2.Sweeps())
	}
	v := awaitSweep(t, replayed, 2*time.Minute)
	if v.State != service.JobDone {
		t.Fatalf("replayed sweep finished %s: %s", v.State, v.Error)
	}
	local, err := RunLocal(context.Background(), tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	if v.Table != local.String() {
		t.Fatalf("recovered table differs from local run:\n%s\nvs\n%s", v.Table, local.String())
	}

	// A third life finds nothing pending: the finish record landed.
	c2.Close()
	c3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if got := c3.Metrics().SweepsReplayed.Load(); got != 0 {
		t.Fatalf("finished sweep replayed %d times", got)
	}
}

// TestCoordinatorRefusesForeignJournal pins the startup guard: a
// coordinator pointed at an hpserved job journal must refuse rather
// than adopt (and mangle) pending jobs it cannot run.
func TestCoordinatorRefusesForeignJournal(t *testing.T) {
	jpath := t.TempDir() + "/jobs.wal"
	jl, _, _, err := service.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.AppendSubmit("job-000001", "run", service.RunRequest{Workload: "gin", Scheme: "FDIP"}); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := fastFleetConfig("http://127.0.0.1:1")
	cfg.JournalPath = jpath
	if _, err := New(cfg); err == nil {
		t.Fatal("coordinator adopted an hpserved journal")
	}
}

func newReader(b []byte) *bytes.Reader { return bytes.NewReader(b) }
