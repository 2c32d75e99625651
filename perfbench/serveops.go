package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"hprefetch/internal/fleet"
	"hprefetch/internal/harness"
	"hprefetch/internal/service"
	"hprefetch/internal/workloads"
)

// serveKey is one run request of the serve-jobs mix.
type serveKey struct {
	workload, scheme string
	warm, measure    uint64
}

// serveWindow is every serve-jobs run's warm plus measure length; fresh
// keys differ in how they split it.
const serveWindow = 60_000

// serveRepeatFrac is the share of serve-jobs operations that repeat one
// of the client's serveRecent latest keys. Latencies are bimodal: about
// 0.5 ms for a cache hit, several ms for a fresh simulation. With half
// the operations repeats the median falls between the two modes, and
// over four seeds it read 2.8 to 4.3 ms; at 60% it is a cache hit and
// read 0.41 to 0.50 ms over ten.
const (
	serveRepeatFrac = 0.6
	serveRecent     = 100
)

// serveCacheEntries bounds the server's result cache, so the heap does not
// grow with the number of operations a run completes. It holds every
// client's serveRecent latest keys with their FDIP baselines.
const serveCacheEntries = 1024

var (
	serveWorkloads = []string{"gin", "chain-burst", "mysql-sysbench"}
	serveSchemes   = []string{"Hierarchical", "EIP", "EFetch", "MANA"}
)

// keyStream is one client's seeded request mix: repeats of the client's
// own recently completed keys, and fresh keys no other request has used.
type keyStream struct {
	rng     *rand.Rand
	client  int
	clients int
	fresh   int
	// recent holds the client's serveRecent latest completed keys, oldest
	// first.
	recent []serveKey
}

// next returns the client's next key and whether it is fresh.
func (k *keyStream) next() (serveKey, bool) {
	if len(k.recent) > 0 && k.rng.Float64() < serveRepeatFrac {
		return k.recent[k.rng.IntN(len(k.recent))], false
	}
	// Fresh keys are unique across clients by their warm length, so
	// every fresh key misses the Runner for its run and its baseline.
	slot := uint64((k.fresh*k.clients + k.client) % 40_000)
	k.fresh++
	warm := 10_000 + slot
	return serveKey{
		workload: serveWorkloads[k.rng.IntN(len(serveWorkloads))],
		scheme:   serveSchemes[k.rng.IntN(len(serveSchemes))],
		warm:     warm,
		measure:  serveWindow - warm,
	}, true
}

// remember records a completed key, dropping the oldest beyond
// serveRecent.
func (k *keyStream) remember(key serveKey) {
	if len(k.recent) == serveRecent {
		copy(k.recent, k.recent[1:])
		k.recent = k.recent[:serveRecent-1]
	}
	k.recent = append(k.recent, key)
}

// serveOutcome is what one completed serve-jobs operation returned: its
// key and a hash of the served stats digest. It holds no pointer to
// per-operation memory, so the outcomes fit in one allocation.
type serveOutcome struct {
	key    serveKey
	digest uint64
}

// digestHash condenses a stats digest for comparison.
func digestHash(d string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(d)) //nolint:errcheck // hash writes cannot fail
	return h.Sum64()
}

// serveJobs is the serve-jobs workload: nproc closed-loop clients
// against an in-process hpserved. Each operation POSTs /v1/runs and
// long-polls the job until it is terminal. The journal is off: its
// fsyncs made the cache-hit latency swing threefold between identical
// runs on a shared disk, so the layer probe times journal appends alone
// (service.journal_append_ms).
type serveJobs struct {
	srv     *service.Server
	ts      *httptest.Server
	http    *http.Client
	streams []*keyStream

	mu sync.Mutex
	// outcomes holds operation id's outcome at id-1, allocated in set-up
	// for the run's maximum operations; later ones go to overflow.
	outcomes []serveOutcome
	overflow map[int64]serveOutcome
	// Service-layer samples: waitMS, execMS and overheadMS from the
	// traced phase only, computeMS from verify.
	waitMS, execMS, overheadMS, computeMS []float64
	submits, shed                         int
	speedupSum                            float64
	speedupN                              int
	// runnerBase is the Runner's counters when the phase began, runner
	// its lookups during the phase.
	runnerBase harness.RunnerStats
	runner     runnerCounts
}

func setupServeJobs(e *env, sp span) (instance, error) {
	workloads.DropCache()
	harness.DropCache()
	for _, w := range serveWorkloads {
		if err := build(w, sp); err != nil {
			return nil, err
		}
	}
	s := sp.child("service.New")
	srv, err := service.New(service.Config{Workers: e.nproc, CacheEntries: serveCacheEntries})
	s.end()
	if err != nil {
		return nil, err
	}
	j := &serveJobs{
		srv:      srv,
		ts:       httptest.NewServer(srv.Handler()),
		http:     newHTTPClient(e.nproc),
		outcomes: make([]serveOutcome, e.maxOps),
		overflow: map[int64]serveOutcome{},
	}
	for c := 0; c < e.nproc; c++ {
		j.streams = append(j.streams, &keyStream{
			rng:     rand.New(rand.NewPCG(e.seed, uint64(c)+1)),
			client:  c,
			clients: e.nproc,
			recent:  make([]serveKey, 0, serveRecent),
		})
	}
	return j, nil
}

// newHTTPClient keeps at most n connections per host.
func newHTTPClient(n int) *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n},
	}
}

func (j *serveJobs) clients() int { return len(j.streams) }

// call sends one request to the server under a span and decodes the job
// view. Any status other than want is a failed operation.
func (j *serveJobs) call(sp span, name, method, url string, body []byte, want int) (service.JobView, error) {
	var v service.JobView
	s := sp.child(name)
	defer s.end()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return v, err
	}
	resp, err := j.http.Do(req)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return v, err
	}
	if resp.StatusCode != want {
		return v, &httpStatusError{op: name, code: resp.StatusCode, body: string(bytes.TrimSpace(data))}
	}
	return v, json.Unmarshal(data, &v)
}

func (j *serveJobs) op(c int, id int64, sp span) (uint64, error) {
	k, fresh := j.streams[c].next()
	body, err := json.Marshal(service.RunRequest{
		Workload: k.workload, Scheme: k.scheme, WarmInstr: k.warm, MeasureInstr: k.measure,
	})
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	v, err := j.call(sp, "service.Handler POST /v1/runs", http.MethodPost, j.ts.URL+"/v1/runs", body, http.StatusAccepted)
	j.mu.Lock()
	j.submits++
	if refused(err) {
		j.shed++
	}
	j.mu.Unlock()
	for err == nil && !v.State.Terminal() {
		v, err = j.call(sp, "service.Handler GET /v1/runs/{id}", http.MethodGet, j.ts.URL+"/v1/runs/"+v.ID+"?wait=30s", nil, http.StatusOK)
	}
	if err != nil {
		return 0, err
	}
	total := time.Since(t0)
	if v.State != service.JobDone || v.Result == nil || v.Started == nil || v.Finished == nil {
		return 0, fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
	}
	wait := v.Started.Sub(v.Submitted)
	exec := v.Finished.Sub(*v.Started)
	out := serveOutcome{key: k, digest: digestHash(v.Result.StatsDigest)}
	j.mu.Lock()
	if id <= int64(len(j.outcomes)) {
		j.outcomes[id-1] = out
	} else {
		j.overflow[id] = out
	}
	if sp.traced() {
		j.waitMS = append(j.waitMS, ms(wait))
		j.execMS = append(j.execMS, ms(exec))
		j.overheadMS = append(j.overheadMS, ms(total-wait-exec))
	}
	if k.scheme == string(harness.SchemeHier) {
		j.speedupSum += v.Result.SpeedupOverFDIP
		j.speedupN++
	}
	j.mu.Unlock()
	j.streams[c].remember(k)
	if fresh {
		return 2 * serveWindow, nil
	}
	return 0, nil
}

// verify recomputes every distinct key directly with ComputeRunResult on
// an emptied Runner and fails each operation whose served digest differs.
func (j *serveJobs) verify(recs []opRecord, sp span) {
	// The phase has just ended: count its Runner lookups before the
	// references empty the Runner.
	end := harness.CacheStats()
	j.mu.Lock()
	j.runner.add(harness.RunnerStats{
		Hits:        end.Hits - j.runnerBase.Hits,
		SharedWaits: end.SharedWaits - j.runnerBase.SharedWaits,
		Misses:      end.Misses - j.runnerBase.Misses,
	})
	j.mu.Unlock()
	harness.DropCache()
	refs := map[serveKey]uint64{}
	for i := range recs {
		r := &recs[i]
		if r.err != nil {
			continue
		}
		out, ok := j.overflow[r.id]
		if !ok {
			out = j.outcomes[r.id-1]
		}
		want, ok := refs[out.key]
		if !ok {
			rc := harness.DefaultRunConfig()
			rc.WarmInstr, rc.MeasureInstr = out.key.warm, out.key.measure
			s := sp.child("service.ComputeRunResult")
			t0 := time.Now()
			res, err := service.ComputeRunResult(context.Background(), out.key.workload, out.key.scheme, rc)
			d := time.Since(t0)
			s.end()
			if err != nil {
				r.err = err
				continue
			}
			want = digestHash(res.StatsDigest)
			refs[out.key] = want
			j.computeMS = append(j.computeMS, ms(d))
		}
		if out.digest != want {
			r.err = mismatch("served "+out.key.workload+"/"+out.key.scheme+" digest hash",
				fmt.Sprintf("%016x", out.digest), fmt.Sprintf("%016x", want))
		}
	}
}

func (j *serveJobs) extras() map[string]float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return map[string]float64{"hier_speedup_pct": 100 * j.speedupSum / float64(max(1, j.speedupN))}
}

func (j *serveJobs) layers() map[string]float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return map[string]float64{
		"service.queue_wait_ms":   medianOf(j.waitMS),
		"service.exec_ms":         medianOf(j.execMS),
		"service.overhead_ms":     medianOf(j.overheadMS),
		"service.compute_ms":      medianOf(j.computeMS),
		"service.shed_ratio":      float64(j.shed) / float64(max(1, j.submits)),
		"harness.cache_hit_ratio": j.runner.ratio(),
	}
}

func (j *serveJobs) reset() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.waitMS, j.execMS, j.overheadMS, j.computeMS = nil, nil, nil, nil
	j.submits, j.shed = 0, 0
	j.runnerBase, j.runner = harness.CacheStats(), runnerCounts{}
}

func (j *serveJobs) close() {
	j.ts.Close()
	j.srv.Close()
	j.http.CloseIdleConnections()
}

// fleetSweep is the fleet-sweep workload: a coordinator over two
// in-process hpserved backends of one worker each. Each operation
// submits one small sweep and waits for its table.
type fleetSweep struct {
	backends []*service.Server
	servers  []*httptest.Server
	http     *http.Client
	coord    *fleet.Coordinator
	spec     fleet.SweepSpec
	ref      string
	instr    uint64
	speedup  float64

	mu         sync.Mutex
	base       fleet.MetricsSnapshot
	overheadMS []float64
	runner     runnerCounts
}

var (
	fleetWorkloads = []string{"gin", "chain-burst"}
	fleetSchemes   = []string{"FDIP", "Hierarchical", "EIP"}
)

func setupFleetSweep(e *env, sp span) (instance, error) {
	workloads.DropCache()
	harness.DropCache()
	f := &fleetSweep{
		spec: fleet.SweepSpec{
			Workloads:    fleetWorkloads,
			Schemes:      fleetSchemes,
			WarmInstr:    100_000 + 1000*uint64(e.rng.IntN(16)),
			MeasureInstr: 200_000,
		},
	}
	for _, w := range fleetWorkloads {
		if err := build(w, sp); err != nil {
			return nil, err
		}
	}
	// The ring places keys by backend URL. Fixed host names, dialled to
	// the test servers' random ports, keep the placement the same in
	// every run.
	var urls []string
	addrs := map[string]string{}
	for i := 0; i < 2; i++ {
		s := sp.child("service.New")
		srv, err := service.New(service.Config{Workers: 1})
		s.end()
		if err != nil {
			f.close()
			return nil, err
		}
		ts := httptest.NewServer(srv.Handler())
		f.backends = append(f.backends, srv)
		f.servers = append(f.servers, ts)
		host := fmt.Sprintf("backend-%d", i)
		urls = append(urls, "http://"+host)
		addrs[host+":80"] = ts.Listener.Addr().String()
	}
	f.http = newHTTPClient(e.nproc)
	f.http.Transport.(*http.Transport).DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if a, ok := addrs[addr]; ok {
			addr = a
		}
		var d net.Dialer
		return d.DialContext(ctx, network, addr)
	}
	s := sp.child("fleet.New")
	coord, err := fleet.New(fleet.Config{
		Backends:    urls,
		MaxInFlight: e.nproc,
		HedgeAfter:  time.Second,
		HTTP:        f.http,
	})
	s.end()
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = coord

	s = sp.child("fleet.RunLocal")
	tbl, err := fleet.RunLocal(context.Background(), f.spec)
	s.end()
	if err != nil {
		f.close()
		return nil, err
	}
	f.ref = tbl.Digest()
	rc := harness.DefaultRunConfig()
	rc.WarmInstr, rc.MeasureInstr = f.spec.WarmInstr, f.spec.MeasureInstr
	var sum float64
	for _, w := range fleetWorkloads {
		v, err := harness.Speedup(w, harness.SchemeHier, rc)
		if err != nil {
			f.close()
			return nil, err
		}
		sum += v
	}
	f.speedup = 100 * sum / float64(len(fleetWorkloads))
	// Every distinct (workload, scheme) pair simulates once per sweep;
	// the non-FDIP schemes find their FDIP baseline in the Runner.
	f.instr = uint64(len(fleetWorkloads)*len(fleetSchemes)) * (f.spec.WarmInstr + f.spec.MeasureInstr)
	f.reset()
	return f, nil
}

func (f *fleetSweep) clients() int { return 1 }

// busyMS is the execution time each backend has spent on jobs so far.
func (f *fleetSweep) busyMS() []float64 {
	out := make([]float64, len(f.backends))
	for i, b := range f.backends {
		snap := b.Metrics().Snapshot(0, 0, harness.RunnerStats{}, service.BreakerStatus{})
		for _, l := range snap.Latency {
			out[i] += float64(l.Count) * l.MeanMS
		}
	}
	return out
}

func (f *fleetSweep) op(_ int, _ int64, sp span) (uint64, error) {
	// The Runner is process-wide: without a reset the backends would
	// serve every sweep after the first from memory.
	harness.DropCache()
	busy0 := f.busyMS()
	t0 := time.Now()
	s := sp.child("fleet.Submit")
	sw, err := f.coord.Submit(f.spec)
	s.end()
	if err != nil {
		return 0, err
	}
	s = sp.child("fleet.Sweep.Done")
	<-sw.Done()
	s.end()
	// The backends run in parallel, so the sweep cannot finish before the
	// busiest one; the rest is dispatch.
	total := ms(time.Since(t0))
	var busiest float64
	for i, b := range f.busyMS() {
		busiest = max(busiest, b-busy0[i])
	}
	f.mu.Lock()
	if sp.traced() {
		f.overheadMS = append(f.overheadMS, total-busiest)
	}
	f.runner.add(harness.CacheStats())
	f.mu.Unlock()
	v := sw.View()
	if v.State != service.JobDone {
		return 0, fmt.Errorf("sweep %s ended %s: %s", v.ID, v.State, v.Error)
	}
	if got := sw.Table().Digest(); got != f.ref {
		return f.instr, mismatch("fleet sweep table vs RunLocal", got, f.ref)
	}
	return f.instr, nil
}

func (f *fleetSweep) verify([]opRecord, span) {}

func (f *fleetSweep) extras() map[string]float64 {
	return map[string]float64{"hier_speedup_pct": f.speedup}
}

func (f *fleetSweep) layers() map[string]float64 {
	m := f.coord.Metrics().Snapshot(nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	dispatched := float64(max(1, m.JobsDispatched-f.base.JobsDispatched))
	return map[string]float64{
		"fleet.dispatch_overhead_ms": medianOf(f.overheadMS),
		"fleet.redispatch_ratio":     float64(m.JobsRedispatched-f.base.JobsRedispatched) / dispatched,
		"fleet.hedge_ratio":          float64(m.Hedges-f.base.Hedges) / dispatched,
		"harness.cache_hit_ratio":    f.runner.ratio(),
	}
}

func (f *fleetSweep) reset() {
	m := f.coord.Metrics().Snapshot(nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.base = m
	f.overheadMS = nil
	f.runner = runnerCounts{}
}

func (f *fleetSweep) close() {
	if f.coord != nil {
		f.coord.Close()
	}
	for i := range f.servers {
		f.servers[i].Close()
		f.backends[i].Close()
	}
	if f.http != nil {
		f.http.CloseIdleConnections()
	}
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
