package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hprefetch/internal/harness"
	"hprefetch/internal/service"
)

// fakeBackend speaks just enough of the hpserved API to let tests
// script backend behaviour the real simulator cannot produce on demand:
// configurable completion delay (stragglers for hedging) and a
// configurable stats digest (divergence for quorum tests).
type fakeBackend struct {
	ts *httptest.Server

	mu      sync.Mutex
	digest  string
	delay   time.Duration
	next    int
	jobs    map[string]fakeJob
	cancels int
}

type fakeJob struct {
	req service.RunRequest
	at  time.Time
}

func newFakeBackend(t *testing.T, digest string) *fakeBackend {
	f := &fakeBackend{digest: digest, jobs: map[string]fakeJob{}}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", f.handleSubmit)
	mux.HandleFunc("GET /v1/runs/{id}", f.handlePoll)
	mux.HandleFunc("POST /v1/runs/{id}/cancel", f.handleCancel)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

func (f *fakeBackend) url() string { return f.ts.URL }

func (f *fakeBackend) setDelay(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.delay = d
}

func (f *fakeBackend) cancelCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cancels
}

func (f *fakeBackend) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req service.RunRequest
	json.NewDecoder(r.Body).Decode(&req) //nolint:errcheck // test fake
	f.mu.Lock()
	f.next++
	id := fmt.Sprintf("job-%06d", f.next)
	f.jobs[id] = fakeJob{req: req, at: time.Now()}
	f.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(service.JobView{ID: id, Kind: "run", State: service.JobQueued, Request: req}) //nolint:errcheck
}

func (f *fakeBackend) handlePoll(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	f.mu.Lock()
	j, ok := f.jobs[id]
	delay, digest := f.delay, f.digest
	f.mu.Unlock()
	if !ok {
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprintf(w, `{"error":"unknown job %q"}`, id)
		return
	}
	view := service.JobView{ID: id, Kind: "run", State: service.JobRunning, Request: j.req}
	if remaining := delay - time.Since(j.at); remaining > 0 {
		// Honour the long-poll the way a real server does, without ever
		// claiming completion early.
		if wait := r.URL.Query().Get("wait"); wait != "" {
			d, _ := time.ParseDuration(wait)
			if d > remaining {
				d = remaining
			}
			select {
			case <-time.After(d):
			case <-r.Context().Done():
			}
		}
		if time.Since(j.at) < delay {
			json.NewEncoder(w).Encode(view) //nolint:errcheck
			return
		}
	}
	view.State = service.JobDone
	view.Result = &service.RunResult{
		Workload:    j.req.Workload,
		Scheme:      harness.Scheme(j.req.Scheme),
		IPC:         1.2345,
		StatsDigest: digest,
	}
	json.NewEncoder(w).Encode(view) //nolint:errcheck
}

func (f *fakeBackend) handleCancel(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	f.cancels++
	f.mu.Unlock()
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprint(w, `{}`)
}

// oneJobSpec is the minimal sweep: one workload, one scheme.
func oneJobSpec() SweepSpec {
	return SweepSpec{Workloads: []string{"gin"}, Schemes: []string{"FDIP"}}
}

// TestHedgedDispatchStraggler makes the ring-preferred backend a
// straggler: the hedge must fire, the second backend must win, and the
// straggler's orphaned job must be cancelled.
func TestHedgedDispatchStraggler(t *testing.T) {
	digest := "fnv1a64:feedfacecafebeef"
	a := newFakeBackend(t, digest)
	b := newFakeBackend(t, digest)

	key := JobKey("gin", "FDIP")
	ring := NewRing([]string{a.url(), b.url()}, 0)
	primary, fast := a, b
	if ring.Owner(key) == b.url() {
		primary, fast = b, a
	}
	primary.setDelay(time.Hour) // never finishes without intervention

	cfg := fastFleetConfig(a.url(), b.url())
	cfg.HedgeAfter = 50 * time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sw, err := c.Submit(oneJobSpec())
	if err != nil {
		t.Fatal(err)
	}
	v := awaitSweep(t, sw, 30*time.Second)
	if v.State != service.JobDone {
		t.Fatalf("hedged sweep finished %s: %s", v.State, v.Error)
	}
	if v.Jobs[0].Backend != fast.url() {
		t.Fatalf("winner %s, want hedge backend %s", v.Jobs[0].Backend, fast.url())
	}
	if !v.Jobs[0].Hedged {
		t.Fatal("job not marked hedged")
	}
	m := c.Metrics()
	if m.Hedges.Load() != 1 || m.HedgeWins.Load() != 1 {
		t.Fatalf("hedges=%d wins=%d, want 1/1", m.Hedges.Load(), m.HedgeWins.Load())
	}
	// The straggler's job is cancelled best-effort once the race settles.
	deadline := time.Now().Add(5 * time.Second)
	for primary.cancelCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("straggler job never cancelled")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDigestQuorumAgrees double-runs every job on two agreeing backends:
// the sweep completes and the quorum counters show the audit happened.
func TestDigestQuorumAgrees(t *testing.T) {
	digest := "fnv1a64:feedfacecafebeef"
	a := newFakeBackend(t, digest)
	b := newFakeBackend(t, digest)
	cfg := fastFleetConfig(a.url(), b.url())
	cfg.QuorumFraction = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sw, err := c.Submit(oneJobSpec())
	if err != nil {
		t.Fatal(err)
	}
	v := awaitSweep(t, sw, 30*time.Second)
	if v.State != service.JobDone {
		t.Fatalf("quorum sweep finished %s: %s", v.State, v.Error)
	}
	if !v.Jobs[0].Quorum {
		t.Fatal("job not marked quorum-verified")
	}
	m := c.Metrics()
	if m.QuorumRuns.Load() != 1 || m.QuorumMismatches.Load() != 0 {
		t.Fatalf("quorum runs=%d mismatches=%d, want 1/0", m.QuorumRuns.Load(), m.QuorumMismatches.Load())
	}
}

// TestDigestQuorumMismatchFailsLoudly gives the two backends different
// digests for the same deterministic job — the reproducibility
// violation quorum exists to catch. The job (and sweep) must fail with
// an error naming both backends and both digests.
func TestDigestQuorumMismatchFailsLoudly(t *testing.T) {
	a := newFakeBackend(t, "fnv1a64:aaaaaaaaaaaaaaaa")
	b := newFakeBackend(t, "fnv1a64:bbbbbbbbbbbbbbbb")
	cfg := fastFleetConfig(a.url(), b.url())
	cfg.QuorumFraction = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sw, err := c.Submit(oneJobSpec())
	if err != nil {
		t.Fatal(err)
	}
	v := awaitSweep(t, sw, 30*time.Second)
	if v.State != service.JobFailed {
		t.Fatalf("mismatched quorum sweep finished %s, want failed", v.State)
	}
	for _, want := range []string{"MISMATCH", "aaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbb"} {
		if !strings.Contains(v.Error, want) {
			t.Fatalf("quorum error %q missing %q", v.Error, want)
		}
	}
	if got := c.Metrics().QuorumMismatches.Load(); got != 1 {
		t.Fatalf("mismatch counter %d, want 1", got)
	}
}

// TestCorpusQuarantineRedispatch: a shard reporting a corrupt/
// quarantined corpus artifact gets the job back with NoCorpus set, so
// the retry records live instead of trusting shared storage again.
func TestCorpusQuarantineRedispatch(t *testing.T) {
	var (
		mu   sync.Mutex
		reqs []service.RunRequest
	)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		var req service.RunRequest
		json.NewDecoder(r.Body).Decode(&req) //nolint:errcheck // test fake
		mu.Lock()
		reqs = append(reqs, req)
		id := fmt.Sprintf("job-%06d", len(reqs))
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(service.JobView{ID: id, Kind: "run", State: service.JobQueued, Request: req}) //nolint:errcheck
	})
	mux.HandleFunc("GET /v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		mu.Lock()
		n := len(reqs)
		var req service.RunRequest
		if n > 0 {
			req = reqs[n-1]
		}
		mu.Unlock()
		if id == "job-000001" {
			// First attempt: the shard's trace artifact turned out rotten.
			json.NewEncoder(w).Encode(service.JobView{ID: id, Kind: "run", State: service.JobFailed,
				Error: "run failed: tracefile: corrupt trace (object quarantined)"}) //nolint:errcheck
			return
		}
		json.NewEncoder(w).Encode(service.JobView{ID: id, Kind: "run", State: service.JobDone, //nolint:errcheck
			Result: &service.RunResult{Workload: req.Workload, Scheme: harness.Scheme(req.Scheme), IPC: 1.5,
				StatsDigest: "fnv1a64:feedfacecafebeef", TraceSource: "live"}})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	shard := httptest.NewServer(mux)
	t.Cleanup(shard.Close)

	c, err := New(fastFleetConfig(shard.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sw, err := c.Submit(oneJobSpec())
	if err != nil {
		t.Fatal(err)
	}
	v := awaitSweep(t, sw, 30*time.Second)
	if v.State != service.JobDone {
		t.Fatalf("sweep finished %s: %s", v.State, v.Error)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(reqs) < 2 {
		t.Fatalf("shard saw %d submissions, want >=2", len(reqs))
	}
	if reqs[0].NoCorpus {
		t.Fatal("first dispatch already carried NoCorpus")
	}
	if !reqs[1].NoCorpus {
		t.Fatal("redispatch after quarantine report did not set NoCorpus")
	}
	if got := c.Metrics().CorpusFallbacks.Load(); got != 1 {
		t.Fatalf("CorpusFallbacks = %d, want 1", got)
	}
}

// TestRedispatchOnBackendJobFailure: a backend that answers correctly
// but reports the job failed (its own retry budget burned) must not
// sink the sweep — the coordinator re-dispatches to the next backend.
func TestRedispatchOnBackendJobFailure(t *testing.T) {
	digest := "fnv1a64:feedfacecafebeef"
	good := newFakeBackend(t, digest)
	// A backend that instantly fails every job.
	badMux := http.NewServeMux()
	badMux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(service.JobView{ID: "job-000001", Kind: "run", State: service.JobQueued}) //nolint:errcheck
	})
	badMux.HandleFunc("GET /v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(service.JobView{ID: r.PathValue("id"), Kind: "run",
			State: service.JobFailed, Error: "synthetic permanent failure"}) //nolint:errcheck
	})
	badMux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	bad := httptest.NewServer(badMux)
	t.Cleanup(bad.Close)

	cfg := fastFleetConfig(bad.URL, good.url())
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Whatever the ring prefers, the sweep must end on the good backend.
	sw, err := c.Submit(oneJobSpec())
	if err != nil {
		t.Fatal(err)
	}
	v := awaitSweep(t, sw, 30*time.Second)
	if v.State != service.JobDone {
		t.Fatalf("sweep finished %s: %s", v.State, v.Error)
	}
	if v.Jobs[0].Backend != good.url() {
		t.Fatalf("job landed on %s, want %s", v.Jobs[0].Backend, good.url())
	}
}
