package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hprefetch/internal/harness"
)

// newTestServer builds a Server plus its HTTP front door and registers
// cleanup. The shared harness cache is cleared first so cache-metric
// assertions see only this test's runs.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	harness.DropCache()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// tinyRun is a fast real simulation request (a few hundred ms).
func tinyRun(scheme string) RunRequest {
	return RunRequest{
		Workload:     "gin",
		Scheme:       scheme,
		WarmInstr:    50_000,
		MeasureInstr: 100_000,
	}
}

// hugeRun is a request that cannot finish in test time without
// cancellation or a deadline.
func hugeRun(timeoutMS int64) RunRequest {
	r := tinyRun("FDIP")
	r.MeasureInstr = 4_000_000_000
	r.TimeoutMS = timeoutMS
	return r
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

// submit posts a run and returns its job view, asserting 202.
func submit(t *testing.T, ts *httptest.Server, req RunRequest) JobView {
	t.Helper()
	resp := postJSON(t, ts.URL+"/v1/runs", req)
	if resp.StatusCode != http.StatusAccepted {
		defer resp.Body.Close()
		var e apiError
		json.NewDecoder(resp.Body).Decode(&e) //nolint:errcheck
		t.Fatalf("submit returned %d: %s", resp.StatusCode, e.Error)
	}
	return decode[JobView](t, resp)
}

// await polls a job until terminal or the deadline passes.
func await(t *testing.T, ts *httptest.Server, id string, within time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		resp, err := http.Get(ts.URL + "/v1/runs/" + id + "?wait=2s")
		if err != nil {
			t.Fatal(err)
		}
		v := decode[JobView](t, resp)
		if v.State.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, v.State, within)
		}
	}
}

// awaitState polls until the job reaches the wanted (non-terminal)
// state.
func awaitState(t *testing.T, ts *httptest.Server, id string, want JobState, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		resp, err := http.Get(ts.URL + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		v := decode[JobView](t, resp)
		if v.State == want {
			return
		}
		if v.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s is %s, wanted %s", id, v.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubmitPollResult(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	v := submit(t, ts, tinyRun("Hierarchical"))
	if v.State != JobQueued || v.ID == "" {
		t.Fatalf("submit view %+v", v)
	}
	done := await(t, ts, v.ID, 2*time.Minute)
	if done.State != JobDone {
		t.Fatalf("job finished %s (%s)", done.State, done.Error)
	}
	if done.Result == nil || done.Result.IPC <= 0 {
		t.Fatalf("missing result: %+v", done.Result)
	}
	if done.Result.Scheme != "Hierarchical" {
		t.Fatalf("result scheme %q", done.Result.Scheme)
	}
	if done.Result.StatsDigest == "" {
		t.Fatal("run response carries no stats digest")
	}
	// An identical resubmission must reproduce the digest exactly — the
	// service-level determinism guarantee.
	again := await(t, ts, submit(t, ts, tinyRun("Hierarchical")).ID, 2*time.Minute)
	if again.State != JobDone || again.Result.StatsDigest != done.Result.StatsDigest {
		t.Fatalf("digest drifted across identical submissions: %q vs %q",
			done.Result.StatsDigest, again.Result.StatsDigest)
	}
}

// TestSingleFlightDedup is the acceptance demo in miniature: concurrent
// identical submissions perform exactly one simulation; everyone else is
// a cache hit or shares the in-flight run.
func TestSingleFlightDedup(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 16})
	const n = 8
	views := make([]JobView, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/v1/runs", tinyRun("FDIP"))
			if resp.StatusCode != http.StatusAccepted {
				resp.Body.Close()
				t.Errorf("submission %d: %d", i, resp.StatusCode)
				return
			}
			views[i] = decode[JobView](t, resp)
		}(i)
	}
	wg.Wait()
	for i := range views {
		if v := await(t, ts, views[i].ID, 2*time.Minute); v.State != JobDone {
			t.Fatalf("job %s finished %s (%s)", v.ID, v.State, v.Error)
		}
	}
	st := harness.CacheStats()
	if st.Misses != 1 {
		t.Fatalf("%d identical jobs performed %d simulations, want 1 (stats %+v)", n, st.Misses, st)
	}
	if st.Hits+st.SharedWaits != n-1 {
		t.Fatalf("dedup served %d of %d duplicates (stats %+v)", st.Hits+st.SharedWaits, n-1, st)
	}
	if got := s.Metrics().Completed.Load(); got != n {
		t.Fatalf("completed %d of %d", got, n)
	}
}

// TestBackpressure429 fills the queue and expects a 429 with Retry-After
// — then frees it via cancellation of both the running and queued jobs.
func TestBackpressure429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	running := submit(t, ts, hugeRun(600_000))
	awaitState(t, ts, running.ID, JobRunning, 30*time.Second)
	queued := submit(t, ts, hugeRun(600_000))

	resp := postJSON(t, ts.URL+"/v1/runs", hugeRun(600_000))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue returned %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	resp.Body.Close()
	if got := s.Metrics().Rejected.Load(); got != 1 {
		t.Fatalf("rejected counter %d", got)
	}

	// Cancel the queued job: it must go terminal without ever running.
	cresp := postJSON(t, ts.URL+"/v1/runs/"+queued.ID+"/cancel", nil)
	if cresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel queued returned %d", cresp.StatusCode)
	}
	if cv := decode[JobView](t, cresp); cv.State != JobCanceled || cv.Started != nil {
		t.Fatalf("queued cancel view %+v", cv)
	}

	// Cancel the running job: cooperative, should land quickly.
	cresp = postJSON(t, ts.URL+"/v1/runs/"+running.ID+"/cancel", nil)
	if cresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel running returned %d", cresp.StatusCode)
	}
	cresp.Body.Close()
	if v := await(t, ts, running.ID, 30*time.Second); v.State != JobCanceled {
		t.Fatalf("running job finished %s (%s)", v.State, v.Error)
	}

	// The worker survived: a normal job still completes.
	v := submit(t, ts, tinyRun("FDIP"))
	if done := await(t, ts, v.ID, 2*time.Minute); done.State != JobDone {
		t.Fatalf("post-cancel job finished %s (%s)", done.State, done.Error)
	}
	if got := s.Metrics().Canceled.Load(); got != 2 {
		t.Fatalf("canceled counter %d, want 2", got)
	}
}

// TestDeadlineExceeded submits an impossible run with a tiny deadline:
// it must fail cleanly (no hang, no leaked worker). Deadline expiry is
// classified transient, so the default retry budget is consumed first.
func TestDeadlineExceeded(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	v := submit(t, ts, hugeRun(100))
	done := await(t, ts, v.ID, 60*time.Second)
	if done.State != JobFailed {
		t.Fatalf("deadline job finished %s (%s)", done.State, done.Error)
	}
	if !strings.Contains(done.Error, "deadline") {
		t.Fatalf("deadline job error %q", done.Error)
	}
	if done.Attempts != 3 || done.MaxRetries != 2 {
		t.Fatalf("deadline job attempts=%d max_retries=%d, want 3/2", done.Attempts, done.MaxRetries)
	}
	if got := s.Metrics().Retried.Load(); got != 2 {
		t.Fatalf("retried counter %d, want 2", got)
	}
	// The worker is free again.
	v = submit(t, ts, tinyRun("FDIP"))
	if done := await(t, ts, v.ID, 2*time.Minute); done.State != JobDone {
		t.Fatalf("post-deadline job finished %s (%s)", done.State, done.Error)
	}
}

func TestExperimentJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 4})
	req := RunRequest{
		Workloads:    []string{"gin"},
		WarmInstr:    50_000,
		MeasureInstr: 100_000,
	}
	resp := postJSON(t, ts.URL+"/v1/experiments/fig9", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("experiment submit returned %d", resp.StatusCode)
	}
	v := decode[JobView](t, resp)
	done := await(t, ts, v.ID, 5*time.Minute)
	if done.State != JobDone {
		t.Fatalf("experiment finished %s (%s)", done.State, done.Error)
	}
	if done.Table == nil || done.Table.ID != "Figure 9" || len(done.Table.Rows) == 0 {
		t.Fatalf("experiment table %+v", done.Table)
	}
	if !strings.Contains(done.Table.Text, "Figure 9") {
		t.Fatal("rendered table text missing")
	}
}

func TestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	cases := []struct {
		name string
		url  string
		body any
		want int
	}{
		{"missing workload", "/v1/runs", RunRequest{}, http.StatusBadRequest},
		{"unknown workload", "/v1/runs", RunRequest{Workload: "nope"}, http.StatusBadRequest},
		{"unknown scheme", "/v1/runs", RunRequest{Workload: "gin", Scheme: "nope"}, http.StatusBadRequest},
		{"bad fault spec", "/v1/runs", RunRequest{Workload: "gin", Fault: "nope"}, http.StatusBadRequest},
		{"unknown experiment", "/v1/experiments/fig99", RunRequest{}, http.StatusNotFound},
	}
	for _, c := range cases {
		resp := postJSON(t, ts.URL+c.url, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: got %d want %d", c.name, resp.StatusCode, c.want)
		}
		resp.Body.Close()
	}
	// Unknown fields fail loudly.
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"workload":"gin","shceme":"FDIP"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("typo field: got %d want 400", resp.StatusCode)
	}
	resp.Body.Close()
	// Unknown job id.
	gresp, err := http.Get(ts.URL + "/v1/runs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	if gresp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: got %d want 404", gresp.StatusCode)
	}
	gresp.Body.Close()
}

func TestHealthzAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 4})
	v := submit(t, ts, tinyRun("EFetch"))
	if done := await(t, ts, v.ID, 2*time.Minute); done.State != JobDone {
		t.Fatalf("job finished %s (%s)", done.State, done.Error)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h := decode[map[string]any](t, resp)
	if h["status"] != "ok" {
		t.Fatalf("healthz %+v", h)
	}

	// Prometheus text format.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		"hpserved_jobs_accepted_total 1",
		"hpserved_jobs_completed_total 1",
		"hpserved_cache_misses_total",
		`hpserved_job_latency_ms_count{label="EFetch"} 1`,
		"# TYPE hpserved_queue_depth gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, text)
		}
	}

	// JSON format.
	resp, err = http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	snap := decode[Snapshot](t, resp)
	if snap.Jobs.Completed != 1 || snap.Workers != 2 {
		t.Fatalf("json metrics %+v", snap)
	}
	if d, ok := snap.Latency["EFetch"]; !ok || d.Count != 1 || d.P50MS <= 0 {
		t.Fatalf("latency digest %+v", snap.Latency)
	}
	if got := s.Metrics().Accepted.Load(); got != 1 {
		t.Fatalf("accepted %d", got)
	}
}

// TestCompletedCountedBeforeDone: a client that has seen its job done
// reads /metrics with the job already counted and its latency already
// observed. The journal makes the server fsync each job's terminal
// record after finishing it, which leaves a count made after the job is
// published a wide window to show up here as a counter one short.
func TestCompletedCountedBeforeDone(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 4, JournalPath: filepath.Join(t.TempDir(), "jobs.wal")})
	const jobs = 40
	for i := uint64(1); i <= jobs; i++ {
		v := submit(t, ts, tinyRun("FDIP"))
		if done := await(t, ts, v.ID, 2*time.Minute); done.State != JobDone {
			t.Fatalf("job %d finished %s (%s)", i, done.State, done.Error)
		}
		resp, err := http.Get(ts.URL + "/metrics?format=json")
		if err != nil {
			t.Fatal(err)
		}
		snap := decode[Snapshot](t, resp)
		if snap.Jobs.Completed != i || snap.Latency["FDIP"].Count != i {
			t.Fatalf("after %d jobs seen done, /metrics counts %d completed and %d latencies",
				i, snap.Jobs.Completed, snap.Latency["FDIP"].Count)
		}
	}
}

// TestConcurrentMixedLoad exercises genuinely concurrent *different*
// simulations under -race: distinct schemes across parallel workers.
func TestConcurrentMixedLoad(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 16})
	schemes := []string{"FDIP", "EFetch", "MANA", "EIP", "Hierarchical"}
	views := make([]JobView, len(schemes))
	for i, sc := range schemes {
		views[i] = submit(t, ts, tinyRun(sc))
	}
	for i, v := range views {
		done := await(t, ts, v.ID, 4*time.Minute)
		if done.State != JobDone {
			t.Fatalf("%s finished %s (%s)", schemes[i], done.State, done.Error)
		}
		if done.Result.IPC <= 0 {
			t.Fatalf("%s IPC %f", schemes[i], done.Result.IPC)
		}
	}
	// The run list endpoint sees them all.
	resp, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	list := decode[map[string][]JobView](t, resp)
	if len(list["jobs"]) != len(schemes) {
		t.Fatalf("list has %d jobs, want %d", len(list["jobs"]), len(schemes))
	}
}

// TestServerClose verifies Close cancels live work and leaves every job
// terminal.
func TestServerClose(t *testing.T) {
	harness.DropCache()
	s, err := New(Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	running := submit(t, ts, hugeRun(600_000))
	awaitState(t, ts, running.ID, JobRunning, 30*time.Second)
	queued := submit(t, ts, hugeRun(600_000))

	start := time.Now()
	s.Close()
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("Close took %v", elapsed)
	}
	for _, id := range []string{running.ID, queued.ID} {
		j, ok := s.store.get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st := j.State(); !st.Terminal() {
			t.Fatalf("job %s left %s after Close", id, st)
		}
	}
	// Submission after Close is refused.
	resp := postJSON(t, ts.URL+"/v1/runs", tinyRun("FDIP"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-Close submit returned %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestJobStoreRetention verifies finished jobs are trimmed past the
// bound while live ones survive.
func TestJobStoreRetention(t *testing.T) {
	st := newJobStore(2)
	mk := func(id string, state JobState) *Job {
		j := &Job{ID: id, state: state, done: make(chan struct{})}
		if state.Terminal() {
			close(j.done)
		}
		return j
	}
	st.put(mk("a", JobDone))
	st.put(mk("b", JobDone))
	st.put(mk("c", JobQueued))
	if _, ok := st.get("a"); ok {
		t.Fatal("oldest finished job not trimmed")
	}
	if _, ok := st.get("c"); !ok {
		t.Fatal("live job trimmed")
	}
	if len(st.list()) != 2 {
		t.Fatalf("list %+v", st.list())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram()
	for i := 0; i < 99; i++ {
		h.observe(3) // → bucket ≤5
	}
	h.observe(40_000) // → bucket ≤60000
	if p50 := h.quantile(0.50); p50 != 5 {
		t.Fatalf("p50 %g want 5", p50)
	}
	if p99 := h.quantile(0.99); p99 != 5 {
		t.Fatalf("p99 %g want 5", p99)
	}
	if p100 := h.quantile(1.0); p100 != 60_000 {
		t.Fatalf("p100 %g want 60000", p100)
	}
	if h.quantile(0.5) != 5 || h.total != 100 {
		t.Fatalf("histogram state %+v", h)
	}
	var empty histogram
	if empty.quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile not 0")
	}
}
