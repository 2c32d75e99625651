package service

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"hprefetch/internal/harness"
)

// latencyBucketsMS are the histogram upper bounds (milliseconds,
// exponential-ish). The final implicit bucket is +Inf.
var latencyBucketsMS = []float64{
	1, 2, 5, 10, 25, 50, 100, 250, 500,
	1_000, 2_500, 5_000, 10_000, 30_000, 60_000, 300_000,
}

// histogram is a fixed-bucket latency histogram. Guarded by the owning
// Metrics' mutex.
type histogram struct {
	counts []uint64 // len(latencyBucketsMS)+1; last slot is +Inf
	sum    float64
	total  uint64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]uint64, len(latencyBucketsMS)+1)}
}

func (h *histogram) observe(ms float64) {
	i := sort.SearchFloat64s(latencyBucketsMS, ms)
	h.counts[i]++
	h.sum += ms
	h.total++
}

// quantile estimates the q-quantile (0 < q ≤ 1) as the upper bound of
// the bucket where the cumulative count crosses q. The +Inf bucket
// reports the largest finite bound — a floor, but an honest one.
func (h *histogram) quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := uint64(q * float64(h.total))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i < len(latencyBucketsMS) {
				return latencyBucketsMS[i]
			}
			return latencyBucketsMS[len(latencyBucketsMS)-1]
		}
	}
	return latencyBucketsMS[len(latencyBucketsMS)-1]
}

// Metrics holds the server's self-observation counters. Scalar counters
// are atomics (hot path: one Add per event); histograms share one mutex
// (touched once per completed job, far off the simulation's critical
// path).
type Metrics struct {
	Accepted  atomic.Uint64 // jobs admitted to the queue
	Rejected  atomic.Uint64 // submissions bounced with 429 (queue full)
	Completed atomic.Uint64 // jobs finished successfully
	Failed    atomic.Uint64 // jobs finished with an error
	Canceled  atomic.Uint64 // jobs cancelled before or during execution

	Retried         atomic.Uint64 // transient failures sent back to the queue
	Replayed        atomic.Uint64 // jobs re-admitted from the journal at startup
	WorkerPanics    atomic.Uint64 // panics recovered in the worker pool
	JournalErrors   atomic.Uint64 // best-effort journal appends that failed
	BreakerRejected atomic.Uint64 // submissions bounced with 503 (breaker open)

	// Feedback-governor aggregates across every governed run served:
	// decision intervals elapsed and state transitions in each direction.
	GovIntervals atomic.Uint64
	GovStepUps   atomic.Uint64
	GovStepDowns atomic.Uint64

	mu sync.Mutex
	// latency histograms keyed by label: the scheme for run jobs,
	// "experiment:<id>" for experiment jobs.
	hist map[string]*histogram
}

// NewMetrics builds an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{hist: map[string]*histogram{}}
}

// countFailed and countCanceled count one terminal outcome; Job.finish
// runs them before it publishes the job as terminal.
func (m *Metrics) countFailed()   { m.Failed.Add(1) }
func (m *Metrics) countCanceled() { m.Canceled.Add(1) }

// ObserveLatency records a completed job's execution latency.
func (m *Metrics) ObserveLatency(label string, ms float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.hist[label]
	if !ok {
		h = newHistogram()
		m.hist[label] = h
	}
	h.observe(ms)
}

// QuantileAllMS estimates the q-quantile of job execution latency across
// every label by merging the per-label histograms bucket-wise. The
// admission layer uses the p90 to derive an honest Retry-After.
func (m *Metrics) QuantileAllMS(q float64) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	merged := newHistogram()
	for _, h := range m.hist {
		for i, c := range h.counts {
			merged.counts[i] += c
		}
		merged.sum += h.sum
		merged.total += h.total
	}
	if merged.total == 0 {
		return 0
	}
	return merged.quantile(q)
}

// LatencySummary is one label's latency digest.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// Snapshot is the JSON form of /metrics.
type Snapshot struct {
	Jobs struct {
		Accepted        uint64 `json:"accepted"`
		Rejected        uint64 `json:"rejected"`
		Completed       uint64 `json:"completed"`
		Failed          uint64 `json:"failed"`
		Canceled        uint64 `json:"canceled"`
		Retried         uint64 `json:"retried"`
		Replayed        uint64 `json:"replayed"`
		WorkerPanics    uint64 `json:"worker_panics"`
		BreakerRejected uint64 `json:"breaker_rejected"`
	} `json:"jobs"`
	QueueDepth    int           `json:"queue_depth"`
	Workers       int           `json:"workers"`
	Breaker       BreakerStatus `json:"breaker"`
	JournalErrors uint64        `json:"journal_errors"`
	// Governor aggregates feedback-throttling activity over all governed
	// runs this server executed.
	Governor struct {
		Intervals uint64 `json:"intervals"`
		StepUps   uint64 `json:"step_ups"`
		StepDowns uint64 `json:"step_downs"`
	} `json:"governor"`
	// LatencyP90MS is the cross-label p90 execution latency that drives
	// Retry-After on load shedding.
	LatencyP90MS float64 `json:"latency_p90_ms"`
	Cache        struct {
		Hits        uint64 `json:"hits"`
		SharedWaits uint64 `json:"shared_waits"`
		Misses      uint64 `json:"misses"`
		Evictions   uint64 `json:"evictions"`
		Entries     int    `json:"entries"`
		InFlight    int    `json:"in_flight"`
	} `json:"cache"`
	Latency map[string]LatencySummary `json:"latency"`
}

// Snapshot captures every counter plus the shared Runner's cache stats
// and the admission breaker's state.
func (m *Metrics) Snapshot(queueDepth, workers int, cache harness.RunnerStats, breaker BreakerStatus) Snapshot {
	var s Snapshot
	s.Jobs.Accepted = m.Accepted.Load()
	s.Jobs.Rejected = m.Rejected.Load()
	s.Jobs.Completed = m.Completed.Load()
	s.Jobs.Failed = m.Failed.Load()
	s.Jobs.Canceled = m.Canceled.Load()
	s.Jobs.Retried = m.Retried.Load()
	s.Jobs.Replayed = m.Replayed.Load()
	s.Jobs.WorkerPanics = m.WorkerPanics.Load()
	s.Jobs.BreakerRejected = m.BreakerRejected.Load()
	s.JournalErrors = m.JournalErrors.Load()
	s.Governor.Intervals = m.GovIntervals.Load()
	s.Governor.StepUps = m.GovStepUps.Load()
	s.Governor.StepDowns = m.GovStepDowns.Load()
	s.QueueDepth = queueDepth
	s.Workers = workers
	s.Breaker = breaker
	s.LatencyP90MS = m.QuantileAllMS(0.90)
	s.Cache.Hits = cache.Hits
	s.Cache.SharedWaits = cache.SharedWaits
	s.Cache.Misses = cache.Misses
	s.Cache.Evictions = cache.Evictions
	s.Cache.Entries = cache.Entries
	s.Cache.InFlight = cache.InFlight
	s.Latency = map[string]LatencySummary{}
	m.mu.Lock()
	defer m.mu.Unlock()
	for label, h := range m.hist {
		mean := 0.0
		if h.total > 0 {
			mean = h.sum / float64(h.total)
		}
		s.Latency[label] = LatencySummary{
			Count:  h.total,
			MeanMS: mean,
			P50MS:  h.quantile(0.50),
			P99MS:  h.quantile(0.99),
		}
	}
	return s
}

// Prometheus renders the snapshot in the Prometheus text exposition
// format (stdlib only — no client library).
func (s Snapshot) Prometheus() string {
	var b strings.Builder
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("hpserved_jobs_accepted_total", "Jobs admitted to the queue.", s.Jobs.Accepted)
	counter("hpserved_jobs_rejected_total", "Submissions rejected with 429 (queue full).", s.Jobs.Rejected)
	counter("hpserved_jobs_completed_total", "Jobs finished successfully.", s.Jobs.Completed)
	counter("hpserved_jobs_failed_total", "Jobs finished with an error.", s.Jobs.Failed)
	counter("hpserved_jobs_canceled_total", "Jobs cancelled before or during execution.", s.Jobs.Canceled)
	counter("hpserved_jobs_retried_total", "Transient failures sent back to the queue with backoff.", s.Jobs.Retried)
	counter("hpserved_jobs_replayed_total", "Jobs re-admitted from the journal at startup.", s.Jobs.Replayed)
	counter("hpserved_worker_panics_total", "Panics recovered in the worker pool.", s.Jobs.WorkerPanics)
	counter("hpserved_jobs_breaker_rejected_total", "Submissions rejected with 503 (circuit breaker open).", s.Jobs.BreakerRejected)
	counter("hpserved_journal_errors_total", "Best-effort journal appends that failed.", s.JournalErrors)
	counter("hpserved_governor_intervals_total", "Feedback-governor decision intervals across governed runs.", s.Governor.Intervals)
	counter("hpserved_governor_step_ups_total", "Feedback-governor transitions toward aggressive.", s.Governor.StepUps)
	counter("hpserved_governor_step_downs_total", "Feedback-governor transitions toward conservative.", s.Governor.StepDowns)
	counter("hpserved_breaker_opens_total", "Circuit breaker closed-to-open transitions.", s.Breaker.Opens)
	open := 0
	if s.Breaker.State == "open" {
		open = 1
	}
	gauge("hpserved_breaker_open", "Whether the admission circuit breaker is open.", open)
	gauge("hpserved_queue_depth", "Jobs currently waiting in the queue.", s.QueueDepth)
	gauge("hpserved_workers", "Size of the worker pool.", s.Workers)
	counter("hpserved_cache_hits_total", "Simulations served from the result cache.", s.Cache.Hits)
	counter("hpserved_cache_shared_waits_total", "Callers that shared an in-flight identical simulation.", s.Cache.SharedWaits)
	counter("hpserved_cache_misses_total", "Simulations actually performed.", s.Cache.Misses)
	counter("hpserved_cache_evictions_total", "Results displaced by the LRU bound.", s.Cache.Evictions)
	gauge("hpserved_cache_entries", "Results currently cached.", s.Cache.Entries)
	gauge("hpserved_cache_in_flight", "Simulations currently executing.", s.Cache.InFlight)
	fmt.Fprintf(&b, "# HELP hpserved_job_latency_p90_ms Cross-label p90 job latency (drives Retry-After).\n"+
		"# TYPE hpserved_job_latency_p90_ms gauge\nhpserved_job_latency_p90_ms %g\n", s.LatencyP90MS)

	labels := make([]string, 0, len(s.Latency))
	for l := range s.Latency {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	if len(labels) > 0 {
		b.WriteString("# HELP hpserved_job_latency_ms Job execution latency quantiles (bucket-estimated).\n")
		b.WriteString("# TYPE hpserved_job_latency_ms summary\n")
		for _, l := range labels {
			d := s.Latency[l]
			fmt.Fprintf(&b, "hpserved_job_latency_ms{label=%q,quantile=\"0.5\"} %g\n", l, d.P50MS)
			fmt.Fprintf(&b, "hpserved_job_latency_ms{label=%q,quantile=\"0.99\"} %g\n", l, d.P99MS)
			fmt.Fprintf(&b, "hpserved_job_latency_ms_sum{label=%q} %g\n", l, d.MeanMS*float64(d.Count))
			fmt.Fprintf(&b, "hpserved_job_latency_ms_count{label=%q} %d\n", l, d.Count)
		}
	}
	return b.String()
}
