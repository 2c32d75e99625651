package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hprefetch/internal/harness"
	"hprefetch/internal/prefetch/feedback"
)

// JobState is a job's lifecycle position.
type JobState string

// The job lifecycle: queued → running → one of the three terminal
// states. Cancellation hits queued jobs before they ever run and running
// jobs through their context.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether s is a final state.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// RunRequest is the wire form of a simulation submission
// (POST /v1/runs, POST /v1/experiments/{id}) and the spec the journal
// records: harness.RunSpec, whose JSON tags are the API. The zero value
// of every optional field keeps the harness default; the in-process
// fields (Parallel, CorpusDir) never cross the wire.
type RunRequest = harness.RunSpec

// RunResult summarises one completed simulation. It is the only run
// result type: the hpserved API serves it as JSON, the fleet aggregates
// it, and the facade exposes it as hprefetch.RunStats.
type RunResult struct {
	// Workload and Scheme echo the run inputs.
	Workload string         `json:"workload"`
	Scheme   harness.Scheme `json:"scheme"`
	// IPC is instructions per cycle; SpeedupOverFDIP is IPC relative to
	// the FDIP baseline of the same workload and configuration (0 for
	// the baseline itself).
	IPC             float64 `json:"ipc"`
	SpeedupOverFDIP float64 `json:"speedup_over_fdip"`
	// Instructions and Cycles are the measured totals.
	Instructions uint64  `json:"instructions"`
	Cycles       float64 `json:"cycles"`
	// BranchMPKI and L1IMPKI are mispredictions and clean L1-I misses
	// per kilo-instruction.
	BranchMPKI float64 `json:"branch_mpki"`
	L1IMPKI    float64 `json:"l1i_mpki"`
	// Prefetcher metrics (zero for FDIP/PerfectL1I).
	PrefetchAccuracy    float64 `json:"prefetch_accuracy,omitempty"`
	CoverageL1          float64 `json:"coverage_l1,omitempty"`
	CoverageL2          float64 `json:"coverage_l2,omitempty"`
	LateFraction        float64 `json:"late_fraction,omitempty"`
	AvgPrefetchDistance float64 `json:"avg_prefetch_distance,omitempty"`
	// TagDrops and BundleRejects count Bundle hints discarded by the
	// loader and by the prefetcher's degraded-mode validation; nonzero
	// only under fault injection (RunRequest.Fault).
	TagDrops      int    `json:"tag_drops,omitempty"`
	BundleRejects uint64 `json:"bundle_rejects,omitempty"`
	// StatsDigest fingerprints every counter of the run. Simulations are
	// deterministic: the same workload, scheme and configuration yield
	// the same digest in any process, so clients can verify
	// reproducibility end to end (EXPERIMENTS.md, "Determinism and
	// digests").
	StatsDigest string `json:"stats_digest"`
	// Sampled-run metrics (RunRequest.Sample): interval count, mean and
	// standard error of per-interval IPC, and the detailed-instruction
	// fraction. Zero/absent for exact runs.
	SampleIntervals    int     `json:"sample_intervals,omitempty"`
	SampleIPCMean      float64 `json:"sample_ipc_mean,omitempty"`
	SampleIPCStdErr    float64 `json:"sample_ipc_stderr,omitempty"`
	SampleDetailedFrac float64 `json:"sample_detailed_frac,omitempty"`
	// TraceSource reports where the run's event stream came from
	// ("live", "replay", "corpus", "record"); empty on results computed
	// by builds that predate it. CorpusHealed marks runs that found
	// their corpus object damaged and self-healed (quarantine +
	// re-record) — the statistics are identical to a clean run's.
	TraceSource  string `json:"trace_source,omitempty"`
	CorpusHealed bool   `json:"corpus_healed,omitempty"`
	// TLB-aware prefetch metrics: the share of issued prefetches whose
	// page missed the ITLB at issue, and the count a TLB-aware scheme
	// withheld instead of issuing blind.
	TLBMissFraction float64 `json:"tlb_miss_fraction,omitempty"`
	TLBDropped      uint64  `json:"tlb_dropped,omitempty"`
	// Governor is the feedback governor's end-of-run summary (level,
	// transition counters, schedule); absent on ungoverned runs.
	Governor *feedback.Summary `json:"governor,omitempty"`
}

// TableResult is a rendered experiment table for the API: the table's
// fields plus its aligned-text rendering.
type TableResult struct {
	harness.Table
	Text string `json:"text"`
}

// Job is one queued unit of work and its eventual outcome. All mutable
// fields are guarded by mu; done closes exactly once on entering a
// terminal state.
type Job struct {
	ID string
	// Kind is "run" or "experiment".
	Kind string
	Req  RunRequest
	// rc is the resolved harness configuration (validated at submit).
	rc harness.RunConfig
	// timeout is the resolved per-job deadline.
	timeout time.Duration

	mu        sync.Mutex
	state     JobState
	err       string
	run       *RunResult
	table     *TableResult
	submitted time.Time
	started   time.Time
	finished  time.Time
	// cancelRequested marks a cancel that arrived while queued; the
	// worker skips the job instead of running it.
	cancelRequested bool
	// cancel aborts the running simulation's context.
	cancel context.CancelFunc
	// attempts counts execution attempts begun (journal-replayed jobs
	// start with the attempts their previous life recorded); maxRetries
	// is the job's transient-failure retry budget beyond the first
	// attempt of each life.
	attempts   int
	maxRetries int
	// lastBackoff remembers the previous retry delay for decorrelated
	// jitter.
	lastBackoff time.Duration

	done chan struct{}
}

// JobView is the JSON projection of a Job (GET /v1/runs/{id}).
type JobView struct {
	ID        string       `json:"id"`
	Kind      string       `json:"kind"`
	State     JobState     `json:"state"`
	Request   RunRequest   `json:"request"`
	Error     string       `json:"error,omitempty"`
	Result    *RunResult   `json:"result,omitempty"`
	Table     *TableResult `json:"table,omitempty"`
	Submitted time.Time    `json:"submitted"`
	Started   *time.Time   `json:"started,omitempty"`
	Finished  *time.Time   `json:"finished,omitempty"`
	// WaitMS and RunMS are queue latency and execution latency.
	WaitMS int64 `json:"wait_ms,omitempty"`
	RunMS  int64 `json:"run_ms,omitempty"`
	// Attempts counts execution attempts begun; MaxRetries is the job's
	// transient-failure retry budget.
	Attempts   int `json:"attempts,omitempty"`
	MaxRetries int `json:"max_retries,omitempty"`
}

// View snapshots the job for serialisation.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:         j.ID,
		Kind:       j.Kind,
		State:      j.state,
		Request:    j.Req,
		Error:      j.err,
		Result:     j.run,
		Table:      j.table,
		Submitted:  j.submitted,
		Attempts:   j.attempts,
		MaxRetries: j.maxRetries,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
		v.WaitMS = j.started.Sub(j.submitted).Milliseconds()
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
		if !j.started.IsZero() {
			v.RunMS = j.finished.Sub(j.started).Milliseconds()
		}
	}
	return v
}

// State returns the current lifecycle position.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// begin transitions queued → running, returning the 1-based attempt
// number, or false when the job was cancelled while waiting (the worker
// must skip it).
func (j *Job) begin(cancel context.CancelFunc) (int, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancelRequested || j.state.Terminal() {
		return 0, false
	}
	j.state = JobRunning
	j.started = time.Now()
	j.cancel = cancel
	j.attempts++
	return j.attempts, true
}

// retryBudget snapshots the attempt counters for the retry decision.
func (j *Job) retryBudget() (attempts, maxRetries int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempts, j.maxRetries
}

// prevBackoff returns the previous retry delay (decorrelated jitter
// input).
func (j *Job) prevBackoff() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lastBackoff
}

// retryReset moves a running job back to the queue for another attempt
// after a transient failure, remembering the failure message and the
// chosen backoff. It refuses (false) when the job is no longer running
// or a cancel arrived — the caller must finish it instead.
func (j *Job) retryReset(cause string, backoff time.Duration) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobRunning || j.cancelRequested {
		return false
	}
	j.state = JobQueued
	j.cancel = nil
	// Surface the transient error while the job waits for its retry; a
	// later terminal transition overwrites it.
	j.err = cause
	j.lastBackoff = backoff
	return true
}

// finish moves the job to a terminal state, reporting whether this call
// performed the transition (false when already terminal). count, when
// not nil, runs only if it did, and before the job is published as
// terminal: whoever sees the job finished (a poll, a woken long-poll)
// also sees it counted, and each outcome is counted exactly once.
func (j *Job) finish(state JobState, errMsg string, count func()) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finishLocked(state, errMsg, count)
}

func (j *Job) finishLocked(state JobState, errMsg string, count func()) bool {
	if j.state.Terminal() {
		return false
	}
	if count != nil {
		count()
	}
	j.state = state
	j.err = errMsg
	j.finished = time.Now()
	j.cancel = nil
	close(j.done)
	return true
}

// cancelOutcome reports what requestCancel did.
type cancelOutcome int

const (
	// cancelNoop: the job was already terminal.
	cancelNoop cancelOutcome = iota
	// cancelledQueued: the job never ran; it is terminal now, counted
	// by requestCancel's count.
	cancelledQueued
	// cancellingRunning: the running job's context was cancelled; the
	// worker finishes (and counts) it when the simulator notices.
	cancellingRunning
)

// requestCancel asks the job to stop. A queued job goes terminal
// immediately (its worker will skip it); a running job gets its context
// cancelled and finishes cooperatively. count runs as finish runs it
// when a queued job goes terminal.
func (j *Job) requestCancel(count func()) cancelOutcome {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return cancelNoop
	}
	j.cancelRequested = true
	if j.state == JobQueued {
		j.finishLocked(JobCanceled, "canceled while queued", count)
		return cancelledQueued
	}
	if j.cancel != nil {
		j.cancel()
	}
	return cancellingRunning
}

// jobStore is the id → Job map with bounded retention of finished jobs.
type jobStore struct {
	mu sync.Mutex
	m  map[string]*Job
	// order remembers insertion order for retention trimming.
	order []string
	max   int
}

func newJobStore(max int) *jobStore {
	return &jobStore{m: map[string]*Job{}, max: max}
}

func (s *jobStore) put(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[j.ID] = j
	s.order = append(s.order, j.ID)
	// Trim oldest *terminal* jobs past the bound; live jobs are never
	// dropped, so the store can transiently exceed max while the queue
	// is deep.
	for len(s.m) > s.max {
		trimmed := false
		for i, id := range s.order {
			if jb, ok := s.m[id]; ok && jb.State().Terminal() {
				delete(s.m, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				trimmed = true
				break
			}
		}
		if !trimmed {
			break
		}
	}
}

func (s *jobStore) get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.m[id]
	return j, ok
}

// list returns views of every retained job, newest first.
func (s *jobStore) list() []JobView {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.m))
	for i := len(s.order) - 1; i >= 0; i-- {
		if j, ok := s.m[s.order[i]]; ok {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := make([]JobView, len(jobs))
	for i, j := range jobs {
		out[i] = j.View()
	}
	return out
}

// newJobID formats a monotonic job identifier.
func newJobID(n uint64) string { return fmt.Sprintf("job-%06d", n) }
