// Package service turns the experiment harness into a long-lived serving
// system: an HTTP/JSON API over a bounded job queue and a worker pool,
// with single-flight result caching (shared with every other harness
// consumer in the process), per-job deadlines plumbed into the
// simulator's cycle loop, and self-observation via /metrics.
//
// The flow: POST /v1/runs (or /v1/experiments/{id}) validates the
// request, admits it to the queue — or bounces with 429 + Retry-After
// when the queue is full, the server's backpressure signal — and returns
// a job id. Workers (one per core by default) pull jobs, execute them
// under a context deadline through harness.Run, and record the outcome;
// clients poll GET /v1/runs/{id} (optionally blocking with ?wait=2s) and
// may POST /v1/runs/{id}/cancel at any point before completion.
//
// Durability and self-healing: with a journal configured
// (Config.JournalPath, hpserved -journal), every submit/start/terminal
// transition is written ahead to an append-only log, so a restarted
// server replays the jobs that were queued or in flight when the
// process died — determinism guarantees the replayed run produces the
// identical StatsDigest. Transient failures (injected faults, worker
// panics, deadlines expired under load) retry with exponential backoff
// and decorrelated jitter up to a per-job budget; permanent failures do
// not. A circuit breaker over the worker failure rate sheds admissions
// with 503 while the pool is only producing failures, and queue-full
// 429 responses carry a Retry-After derived from the observed p90 job
// latency rather than a constant.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hprefetch/internal/fault"
	"hprefetch/internal/harness"
	"hprefetch/internal/workloads"
	"hprefetch/internal/xrand"
)

// Config sizes the server. Zero fields take the documented defaults.
type Config struct {
	// Workers is the worker-pool size (default runtime.NumCPU()).
	Workers int
	// QueueDepth bounds the job queue; a full queue rejects submissions
	// with 429 (default 64).
	QueueDepth int
	// CacheEntries re-bounds the shared harness result cache (default
	// harness.DefaultCacheEntries).
	CacheEntries int
	// DefaultTimeout applies to jobs that specify none (default 15m);
	// MaxTimeout clamps client-requested deadlines (default 1h).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxJobsRetained bounds how many finished jobs stay pollable
	// (default 1024).
	MaxJobsRetained int

	// JournalPath enables the write-ahead job journal: submits, starts
	// and terminal transitions are logged there and pending jobs replay
	// on restart. Empty disables durability.
	JournalPath string
	// Retry shapes transient-failure retries (see RetryPolicy).
	Retry RetryPolicy
	// RetrySeed seeds the backoff jitter stream (deterministic tests).
	RetrySeed uint64
	// MaxRequestRetries clamps client-requested max_retries (default 10).
	MaxRequestRetries int

	// Breaker knobs: the admission circuit breaker opens when at least
	// BreakerMinSamples (default 8) of the last BreakerWindow (default
	// 32) terminal outcomes are failures at a rate ≥ BreakerThreshold
	// (default 0.9), and half-opens after BreakerCooldown (default 10s).
	BreakerWindow     int
	BreakerMinSamples int
	BreakerThreshold  float64
	BreakerCooldown   time.Duration

	// MaxRetryAfter caps the base Retry-After hint on shed load
	// (default 60s); anti-lockstep jitter may add up to half the base
	// again on top.
	MaxRetryAfter time.Duration

	// Chaos injects service-level faults into job execution
	// (fault.ServiceClasses); dev/test only. The zero value disables it.
	Chaos fault.Config

	// CorpusDir resolves jobs without an explicit trace_path through a
	// shared content-addressed trace corpus (see internal/corpus):
	// workloads with a published object replay from it, damaged objects
	// self-heal, everything else runs live. Empty disables corpus
	// resolution.
	CorpusDir string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = harness.DefaultCacheEntries
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 15 * time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = time.Hour
	}
	if c.MaxJobsRetained <= 0 {
		c.MaxJobsRetained = 1024
	}
	c.Retry = c.Retry.withDefaults()
	if c.MaxRequestRetries <= 0 {
		c.MaxRequestRetries = 10
	}
	if c.BreakerWindow <= 0 {
		c.BreakerWindow = 32
	}
	if c.BreakerMinSamples <= 0 {
		c.BreakerMinSamples = 8
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 0.9
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Second
	}
	if c.MaxRetryAfter <= 0 {
		c.MaxRetryAfter = 60 * time.Second
	}
	return c
}

// Server is the simulation-serving subsystem. Create with New, expose
// via Handler, stop with Close.
type Server struct {
	cfg     Config
	queue   chan *Job
	store   *jobStore
	metrics *Metrics
	breaker *Breaker
	start   time.Time
	nextID  atomic.Uint64

	// journal is the write-ahead log (nil when durability is off);
	// draining suppresses terminal journal records during Close so
	// shutdown-cancelled jobs stay pending and replay on restart.
	journal  *Journal
	draining atomic.Bool

	// retryRNG drives backoff jitter; chaos makes the service-level
	// fault decisions. Both are single streams shared across workers,
	// hence the mutexes.
	retryMu  sync.Mutex
	retryRNG *xrand.RNG
	chaosMu  sync.Mutex
	chaos    *fault.Injector

	wg        sync.WaitGroup
	closeOnce sync.Once
	closed    chan struct{}
}

// New builds a Server, replays its journal (when configured), and
// starts the worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	harness.SetCacheLimit(cfg.CacheEntries)
	s := &Server{
		cfg:      cfg,
		queue:    make(chan *Job, cfg.QueueDepth),
		store:    newJobStore(cfg.MaxJobsRetained),
		metrics:  NewMetrics(),
		breaker:  NewBreaker(cfg.BreakerWindow, cfg.BreakerMinSamples, cfg.BreakerThreshold, cfg.BreakerCooldown),
		retryRNG: xrand.New(xrand.Mix(cfg.RetrySeed, 0x5E77)),
		start:    time.Now(),
		closed:   make(chan struct{}),
	}
	if cfg.Chaos.Enabled() {
		inj, err := fault.New(cfg.Chaos)
		if err != nil {
			return nil, err
		}
		s.chaos = inj
	}

	var replayed []*Job
	if cfg.JournalPath != "" {
		jl, pending, maxSeq, err := OpenJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		s.journal = jl
		s.nextID.Store(maxSeq)
		for _, rj := range pending {
			j, err := s.jobFromReplay(rj)
			if err != nil {
				// The journaled request no longer validates (workload
				// renamed, scheme removed): fail it terminally — and
				// journal that, so it never replays again.
				dead := &Job{
					ID: rj.ID, Kind: rj.Kind, Req: rj.Req,
					state: JobQueued, attempts: rj.Attempts,
					submitted: time.Now(), done: make(chan struct{}),
				}
				dead.finish(JobFailed, fmt.Sprintf("journal replay: %v", err), s.metrics.countFailed)
				s.store.put(dead)
				s.journalFinish(dead)
				continue
			}
			s.store.put(j)
			replayed = append(replayed, j)
		}
		s.metrics.Replayed.Add(uint64(len(replayed)))
	}

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if len(replayed) > 0 {
		// Feed replayed jobs from a goroutine so New never blocks on a
		// queue shallower than the replay set; they are already in the
		// store, hence pollable, while they wait.
		go func() {
			for _, j := range replayed {
				select {
				case s.queue <- j:
				case <-s.closed:
					return
				case <-j.Done():
				}
			}
		}()
	}
	return s, nil
}

// jobFromReplay revalidates a journaled pending job and rebuilds its
// executable form (the harness config is derived state, not journaled).
func (s *Server) jobFromReplay(rj ReplayJob) (*Job, error) {
	req := rj.Req
	switch rj.Kind {
	case "run":
		if req.Workload == "" {
			return nil, fmt.Errorf("run job without workload")
		}
		if _, err := workloads.Get(req.Workload); err != nil {
			return nil, err
		}
		if req.Scheme == "" {
			req.Scheme = string(harness.SchemeHier)
		}
		if !validSchemes()[req.Scheme] {
			return nil, fmt.Errorf("unknown scheme %q (known: %s)", req.Scheme, harness.SchemeNames())
		}
	case "experiment":
		if !experimentKnown(req.Experiment) {
			return nil, fmt.Errorf("unknown experiment %q", req.Experiment)
		}
	default:
		return nil, fmt.Errorf("unknown job kind %q", rj.Kind)
	}
	rc, timeout, err := s.buildRunConfig(&req)
	if err != nil {
		return nil, err
	}
	j := s.newJob(rj.Kind, req, rc, timeout)
	j.ID = rj.ID
	j.attempts = rj.Attempts
	return j, nil
}

// Metrics exposes the server's counters (tests and embedders).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Close stops accepting work, cancels every live job, waits for the
// workers to drain, and seals the journal. Shutdown cancellations are
// deliberately NOT journaled as terminal: a job cut short by Close is
// still pending from the journal's point of view and replays when a
// server reopens the same journal.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		close(s.closed)
		// Cancel whatever is queued or running; workers observe the
		// cancellation cooperatively and exit. Queued jobs go terminal
		// right here.
		for _, v := range s.store.list() {
			if j, ok := s.store.get(v.ID); ok {
				j.requestCancel(s.metrics.countCanceled)
			}
		}
	})
	s.wg.Wait()
	// Drain job pointers the workers never reached (their jobs are
	// already terminal from the cancellation sweep above).
	for {
		select {
		case j := <-s.queue:
			j.finish(JobCanceled, "server closed", s.metrics.countCanceled)
		default:
			if s.journal != nil {
				s.journal.Close() //nolint:errcheck // sticky error already counted
			}
			return
		}
	}
}

// worker executes queued jobs until Close.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.closed:
			return
		case j := <-s.queue:
			s.executeGuarded(j)
		}
	}
}

// executeGuarded wraps execute with panic recovery so a crashing job
// takes down neither its worker nor the pool; a recovered panic is a
// transient failure and follows the retry path.
func (s *Server) executeGuarded(j *Job) {
	started := time.Now()
	defer func() {
		if r := recover(); r != nil {
			s.metrics.WorkerPanics.Add(1)
			s.settle(j, harness.MarkTransient(fmt.Errorf("worker panic: %v", r)), started)
		}
	}()
	s.execute(j, started)
}

// execute runs one job attempt under its deadline and records the
// outcome.
func (s *Server) execute(j *Job, started time.Time) {
	ctx, cancel := context.WithTimeout(context.Background(), j.timeout)
	defer cancel()
	attempt, ok := j.begin(cancel)
	if !ok {
		// Cancelled while queued; requestCancel already finished and
		// counted it.
		return
	}
	s.journalStart(j, attempt)

	if s.chaosKillWorker() {
		// Simulate the worker goroutine dying mid-job; executeGuarded's
		// recover turns this into a transient failure + pool survival.
		panic(fmt.Sprintf("chaos: worker killed during %s", j.ID))
	}

	var err error
	switch {
	case s.chaosFailJob():
		err = harness.MarkTransient(fmt.Errorf("chaos: injected job failure (attempt %d)", attempt))
	case j.Kind == "run":
		err = s.execRun(ctx, j)
	case j.Kind == "experiment":
		err = s.execExperiment(ctx, j)
	default:
		err = fmt.Errorf("unknown job kind %q", j.Kind)
	}
	s.settle(j, err, started)
}

// settle decides a finished attempt's fate: success, cooperative
// cancellation, a retry (transient error with budget left), or terminal
// failure. Exactly one terminal metrics increment happens per job.
func (s *Server) settle(j *Job, err error, started time.Time) {
	switch {
	case err == nil:
		if j.finish(JobDone, "", func() {
			s.metrics.Completed.Add(1)
			s.metrics.ObserveLatency(j.latencyLabel(), float64(time.Since(started).Microseconds())/1000)
		}) {
			s.journalFinish(j)
			s.breaker.Record(false)
		}
		return
	case errors.Is(err, context.Canceled):
		if j.finish(JobCanceled, err.Error(), s.metrics.countCanceled) {
			s.journalFinish(j)
		}
		return
	}

	attempts, budget := j.retryBudget()
	if harness.IsTransient(err) && attempts <= budget && !s.draining.Load() {
		if s.scheduleRetry(j, err) {
			return
		}
	}
	if j.finish(JobFailed, err.Error(), s.metrics.countFailed) {
		s.journalFinish(j)
		s.breaker.Record(true)
	}
}

// scheduleRetry moves a transiently-failed job back to queued and
// re-enqueues it after a decorrelated-jitter backoff. Returns false when
// the job can no longer retry (cancelled, terminal) — the caller
// finishes it instead.
func (s *Server) scheduleRetry(j *Job, cause error) bool {
	s.retryMu.Lock()
	delay := s.cfg.Retry.Next(s.retryRNG, j.prevBackoff())
	s.retryMu.Unlock()
	if !j.retryReset(fmt.Sprintf("retrying after transient failure: %v", cause), delay) {
		return false
	}
	s.metrics.Retried.Add(1)
	timer := time.AfterFunc(delay, func() {
		select {
		case s.queue <- j:
		case <-s.closed:
			// Shutdown during backoff: leave the job queued (pending in
			// the journal) so a restart replays it; Close's sweep has
			// already run, so cancel it here for this process's books.
			j.finish(JobCanceled, "server closed during retry backoff", s.metrics.countCanceled)
		case <-j.Done():
			// Cancelled during backoff; nothing to enqueue.
		}
	})
	// Tie the timer to server shutdown so tests closing quickly don't
	// leak armed timers (the AfterFunc body itself handles the race).
	go func() {
		select {
		case <-s.closed:
			if timer.Stop() {
				j.finish(JobCanceled, "server closed during retry backoff", s.metrics.countCanceled)
			}
		case <-j.Done():
			timer.Stop()
		}
	}()
	return true
}

// chaosFailJob asks the chaos injector whether this attempt should fail
// transiently (dev/test only; nil injector means never). The injector is
// a single seeded stream shared across workers, hence the mutex — which
// also guards the nil check because tests disarm chaos mid-run.
func (s *Server) chaosFailJob() bool {
	s.chaosMu.Lock()
	defer s.chaosMu.Unlock()
	return s.chaos != nil && s.chaos.FailJob()
}

// chaosKillWorker asks the chaos injector whether this attempt should
// panic mid-execution.
func (s *Server) chaosKillWorker() bool {
	s.chaosMu.Lock()
	defer s.chaosMu.Unlock()
	return s.chaos != nil && s.chaos.KillWorker()
}

// journalSubmit records an admitted job; submission fails if the record
// cannot be made durable (the journal is the source of truth).
func (s *Server) journalSubmit(j *Job) error {
	if s.journal == nil {
		return nil
	}
	return s.journal.Append(journalRecord{Op: opSubmit, ID: j.ID, Kind: j.Kind, Req: j.Req})
}

// journalStart records an execution attempt beginning (best effort: a
// failed append degrades recovery precision, not correctness).
func (s *Server) journalStart(j *Job, attempt int) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(journalRecord{Op: opStart, ID: j.ID, Attempt: uint32(attempt)}); err != nil {
		s.metrics.JournalErrors.Add(1)
	}
}

// journalFinish records a terminal transition (best effort), including
// the result digest for completed runs so recovery checks can compare
// digests across lives. Suppressed while draining: shutdown-cancelled
// jobs must stay pending and replay.
func (s *Server) journalFinish(j *Job) {
	if s.journal == nil || s.draining.Load() {
		return
	}
	v := j.View()
	rec := journalRecord{Op: opFinish, ID: j.ID, State: v.State, ErrMsg: v.Error}
	if v.Result != nil {
		rec.Digest = v.Result.StatsDigest
	}
	if err := s.journal.Append(rec); err != nil {
		s.metrics.JournalErrors.Add(1)
	}
}

// latencyLabel buckets a job for the latency histograms: the scheme for
// runs, "experiment:<id>" for experiments.
func (j *Job) latencyLabel() string {
	if j.Kind == "experiment" {
		return "experiment:" + j.Req.Experiment
	}
	return j.Req.Scheme
}

// ComputeRunResult performs a (workload, scheme) simulation plus its
// FDIP baseline (for the speedup column) through the shared Runner and
// assembles the run result. It is the one place a harness.Result turns
// into a RunResult: backend jobs, the fleet coordinator's local path
// and hprefetch.Simulate all call it, so their values are identical —
// the determinism guarantee that makes fleet digest cross-checks exact.
func ComputeRunResult(ctx context.Context, workload, scheme string, rc harness.RunConfig) (*RunResult, error) {
	rc.Ctx = ctx
	sc := harness.Scheme(scheme)
	r, err := harness.Run(workload, sc, rc)
	if err != nil {
		return nil, err
	}
	out := &RunResult{
		Workload:            workload,
		Scheme:              sc,
		IPC:                 r.Stats.IPC(),
		Instructions:        r.Stats.Instructions,
		Cycles:              r.Stats.Cycles(),
		BranchMPKI:          r.Stats.MPKI(),
		L1IMPKI:             r.Stats.L1IMPKI(),
		PrefetchAccuracy:    r.Stats.PFAccuracy(),
		CoverageL1:          r.Stats.PFCoverageL1(),
		CoverageL2:          r.Stats.PFCoverageL2(),
		LateFraction:        r.Stats.PFLateFraction(),
		AvgPrefetchDistance: r.Stats.PFAvgDistance(),
		TagDrops:            r.TagDrops,
		BundleRejects:       r.BundleRejects,
		StatsDigest:         r.Stats.Digest(),
		TraceSource:         r.TraceSource,
		CorpusHealed:        r.CorpusHealed,
		TLBMissFraction:     r.Stats.PFTLBMissFraction(),
		TLBDropped:          r.Stats.PFTLBDropped,
		Governor:            r.Governor,
	}
	if r.Sample != nil {
		out.SampleIntervals = r.Sample.Intervals
		out.SampleIPCMean = r.Sample.IPCMean
		out.SampleIPCStdErr = r.Sample.IPCStdErr
		out.SampleDetailedFrac = r.Sample.DetailedFrac
	}
	if sc != harness.SchemeFDIP {
		sp, err := harness.Speedup(workload, sc, rc)
		if err != nil {
			return nil, err
		}
		out.SpeedupOverFDIP = sp
	}
	return out, nil
}

// execRun performs a (workload, scheme) simulation plus its FDIP
// baseline (for the speedup column) through the shared Runner.
func (s *Server) execRun(ctx context.Context, j *Job) error {
	out, err := ComputeRunResult(ctx, j.Req.Workload, j.Req.Scheme, j.rc)
	if err != nil {
		return err
	}
	if out.Governor != nil {
		s.metrics.GovIntervals.Add(out.Governor.Intervals)
		s.metrics.GovStepUps.Add(out.Governor.StepUps)
		s.metrics.GovStepDowns.Add(out.Governor.StepDowns)
	}
	j.mu.Lock()
	j.run = out
	j.mu.Unlock()
	return nil
}

// execExperiment regenerates one paper table; the deadline reaches every
// simulation the experiment performs via rc.Ctx.
func (s *Server) execExperiment(ctx context.Context, j *Job) error {
	rc := j.rc
	rc.Ctx = ctx
	tbl, err := harness.Experiment(j.Req.Experiment, rc)
	if err != nil {
		return err
	}
	j.mu.Lock()
	j.table = &TableResult{Table: *tbl, Text: tbl.String()}
	j.mu.Unlock()
	return nil
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmitRun)
	mux.HandleFunc("GET /v1/runs", s.handleListRuns)
	mux.HandleFunc("GET /v1/runs/{id}", s.handlePollRun)
	mux.HandleFunc("POST /v1/runs/{id}/cancel", s.handleCancelRun)
	mux.HandleFunc("POST /v1/experiments/{id}", s.handleSubmitExperiment)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// validSchemes is the accepted Scheme set — the harness registry, so a
// scheme added there is immediately servable.
func validSchemes() map[string]bool {
	out := map[string]bool{}
	for _, sc := range harness.AllSchemes() {
		out[string(sc)] = true
	}
	return out
}

// buildRunConfig validates req and resolves it into a harness
// configuration plus the job deadline. The knobs resolve through
// RunSpec.Config; the server adds its own policy: one scheme per run,
// its -corpus store, and the deadline bounds.
func (s *Server) buildRunConfig(req *RunRequest) (harness.RunConfig, time.Duration, error) {
	if len(req.Schemes) > 0 {
		return harness.RunConfig{}, 0, fmt.Errorf("schemes is a fleet-coordinator sweep field; a single server takes one scheme per run")
	}
	// Corpus resolution is a fallback, not an override: an explicit
	// trace_path wins, no_corpus opts out, and the harness skips the
	// corpus for faulted or recording runs.
	spec := *req
	spec.CorpusDir = s.cfg.CorpusDir
	rc, err := spec.Config()
	if err != nil {
		return rc, 0, err
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	return rc, timeout, nil
}

// submit admits a validated job to the queue, or sheds it: 503 when
// closing or the circuit breaker is open, 429 when the queue is full
// (backpressure). Both shed paths carry an honest Retry-After.
func (s *Server) submit(w http.ResponseWriter, j *Job) {
	select {
	case <-s.closed:
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	default:
	}
	if ok, wait := s.breaker.Allow(); !ok {
		s.metrics.BreakerRejected.Add(1)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterJitter(ceilSeconds(wait))))
		writeError(w, http.StatusServiceUnavailable,
			"circuit breaker open (worker failure rate too high); retry later")
		return
	}
	// Shed on a full queue BEFORE journaling: a rejected submission must
	// leave no journal trace (it never became a job).
	if len(s.queue) >= cap(s.queue) {
		s.shedQueueFull(w)
		return
	}
	if err := s.journalSubmit(j); err != nil {
		s.metrics.JournalErrors.Add(1)
		writeError(w, http.StatusInternalServerError, "journal append failed: %v", err)
		return
	}
	select {
	case s.queue <- j:
		s.store.put(j)
		s.metrics.Accepted.Add(1)
		w.Header().Set("Location", "/v1/runs/"+j.ID)
		writeJSON(w, http.StatusAccepted, j.View())
	default:
		// Lost the race for the last slot after the submit record landed;
		// journal the rejection so the id never replays.
		j.finish(JobFailed, "queue full at admission", nil)
		s.journalFinish(j)
		s.shedQueueFull(w)
	}
}

// shedQueueFull writes the 429 backpressure response.
func (s *Server) shedQueueFull(w http.ResponseWriter) {
	s.metrics.Rejected.Add(1)
	w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterJitter(s.retryAfterSeconds())))
	writeError(w, http.StatusTooManyRequests,
		"queue full (%d jobs waiting); retry later", len(s.queue))
}

// retryAfterSeconds derives the Retry-After hint for queue-full shedding
// from observed behaviour instead of a constant: the p90 job latency
// times the number of queue "waves" ahead of a new arrival — how long
// until the backlog has likely drained enough to admit it.
func (s *Server) retryAfterSeconds() int {
	p90 := s.metrics.QuantileAllMS(0.90)
	if p90 <= 0 {
		return 1 // no history yet; the old constant is the honest floor
	}
	waves := (len(s.queue) + s.cfg.Workers) / s.cfg.Workers
	secs := int((p90*float64(waves) + 999) / 1000)
	if secs < 1 {
		secs = 1
	}
	if max := int(s.cfg.MaxRetryAfter / time.Second); secs > max {
		secs = max
	}
	return secs
}

// retryAfterJitter spreads a Retry-After hint upward by as much as half
// its base value, drawn from the seeded retry stream. Clients shed in
// the same instant (queue full, breaker open) would otherwise all come
// back in the same second and collide again; jitter never shortens the
// hint, so it stays honest.
func (s *Server) retryAfterJitter(secs int) int {
	if secs < 1 {
		secs = 1
	}
	s.retryMu.Lock()
	secs += s.retryRNG.IntN(secs/2 + 1)
	s.retryMu.Unlock()
	return secs
}

// ceilSeconds rounds a duration up to whole seconds (minimum 1) for
// Retry-After headers.
func ceilSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Workload == "" {
		writeError(w, http.StatusBadRequest, "workload is required (one of %s)",
			strings.Join(workloads.AllSorted(), ", "))
		return
	}
	if _, err := workloads.Get(req.Workload); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Scheme == "" {
		req.Scheme = string(harness.SchemeHier)
	}
	if !validSchemes()[req.Scheme] {
		writeError(w, http.StatusBadRequest, "unknown scheme %q (known: %s)", req.Scheme, harness.SchemeNames())
		return
	}
	rc, timeout, err := s.buildRunConfig(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.submit(w, s.newJob("run", req, rc, timeout))
}

func (s *Server) handleSubmitExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !experimentKnown(id) {
		writeError(w, http.StatusNotFound, "unknown experiment %q (one of %s)",
			id, strings.Join(harness.ExperimentIDs(), ", "))
		return
	}
	req, err := DecodeRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	req.Experiment = id
	req.Workload, req.Scheme = "", "" // experiment jobs name no single pair
	rc, timeout, err := s.buildRunConfig(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.submit(w, s.newJob("experiment", req, rc, timeout))
}

// newJob allocates a Job with the next id and its resolved retry budget.
func (s *Server) newJob(kind string, req RunRequest, rc harness.RunConfig, timeout time.Duration) *Job {
	return &Job{
		ID:         newJobID(s.nextID.Add(1)),
		Kind:       kind,
		Req:        req,
		rc:         rc,
		timeout:    timeout,
		state:      JobQueued,
		submitted:  time.Now(),
		maxRetries: s.resolveRetries(req),
		done:       make(chan struct{}),
	}
}

// resolveRetries turns a request's max_retries into the job's budget:
// 0 keeps the server default, negative disables retries, positive values
// are clamped to MaxRequestRetries.
func (s *Server) resolveRetries(req RunRequest) int {
	switch {
	case req.MaxRetries == 0:
		return s.cfg.Retry.MaxRetries
	case req.MaxRetries < 0:
		return 0
	case req.MaxRetries > s.cfg.MaxRequestRetries:
		return s.cfg.MaxRequestRetries
	}
	return req.MaxRetries
}

func (s *Server) handlePollRun(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if waitSpec := r.URL.Query().Get("wait"); waitSpec != "" {
		d, err := time.ParseDuration(waitSpec)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad wait duration %q: %v", waitSpec, err)
			return
		}
		if d > 30*time.Second {
			d = 30 * time.Second
		}
		// A stopped timer leaves the runtime's timer heap at once; one
		// from time.After would stay live for all of d after the job
		// finished.
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-j.Done():
		case <-t.C:
		case <-r.Context().Done():
		}
	}
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Server) handleCancelRun(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	switch j.requestCancel(s.metrics.countCanceled) {
	case cancelNoop:
		writeJSON(w, http.StatusConflict, j.View())
	case cancelledQueued:
		s.journalFinish(j)
		writeJSON(w, http.StatusAccepted, j.View())
	case cancellingRunning:
		writeJSON(w, http.StatusAccepted, j.View())
	}
}

func (s *Server) handleListRuns(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.store.list()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"workers":     s.cfg.Workers,
		"queue_depth": len(s.queue),
		"uptime_ms":   time.Since(s.start).Milliseconds(),
		"journal":     s.journal != nil,
		"breaker":     s.breaker.Status().State,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.Snapshot(len(s.queue), s.cfg.Workers, harness.CacheStats(), s.breaker.Status())
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, snap)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, snap.Prometheus()) //nolint:errcheck // client went away
}

// DecodeRequest parses an optional JSON request body (empty bodies
// decode as the zero request) and rejects unknown fields so typos fail
// loudly. hpserved and the fleet coordinator both accept bodies through
// it.
func DecodeRequest(body io.Reader) (RunRequest, error) {
	var req RunRequest
	data, err := io.ReadAll(io.LimitReader(body, 1<<20))
	if err != nil {
		return req, err
	}
	if len(bytes.TrimSpace(data)) == 0 {
		return req, nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err = dec.Decode(&req)
	return req, err
}

// experimentKnown reports whether id is a valid experiment identifier.
func experimentKnown(id string) bool { return slices.Contains(harness.ExperimentIDs(), id) }
