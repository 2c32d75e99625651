package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"regexp"
	"sort"
	"time"
)

// opRecord is the outcome of one timed operation.
type opRecord struct {
	id  int64
	lat time.Duration
	// scale turns lat into a time at the reference speed (see speed.go);
	// zero means unscaled.
	scale float64
	// instr is the simulated instructions the operation covered.
	instr uint64
	// err marks a failed operation: an error, a refused request (HTTP 429
	// or 503) or a failed correctness check.
	err error
}

// errDigestMismatch marks an operation whose output differs from its
// reference.
var errDigestMismatch = errors.New("digest mismatch")

// httpStatusError is a non-success HTTP reply. A refused request (429 or
// 503) is a failed operation like any other.
type httpStatusError struct {
	op   string
	code int
	body string
}

func (e *httpStatusError) Error() string {
	return fmt.Sprintf("%s: HTTP %d: %s", e.op, e.code, e.body)
}

// refused reports whether err is the server refusing work: HTTP 429
// (queue full) or 503 (shutting down or circuit breaker open).
func refused(err error) bool {
	var he *httpStatusError
	return errors.As(err, &he) && (he.code == http.StatusTooManyRequests || he.code == http.StatusServiceUnavailable)
}

// mismatch builds the failure for an output that differs from its
// reference.
func mismatch(what, got, want string) error {
	return fmt.Errorf("%s: %w: got %s, want %s", what, errDigestMismatch, got, want)
}

// minTailBeyond is how many samples must lie beyond the reported tail
// percentile.
const minTailBeyond = 10

// tail returns the highest percentile of sorted that has at least
// minTailBeyond samples beyond it: its value, its percentile and the
// number of samples beyond it. With too few samples it falls back to the
// maximum (percentile 100, nothing beyond).
func tail(sorted []float64) (value, pct float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, 0
	}
	if n <= minTailBeyond {
		return sorted[n-1], 100, 0
	}
	i := n - 1 - minTailBeyond
	return sorted[i], 100 * float64(i+1) / float64(n), n - 1 - i
}

// median returns the middle of sorted (the mean of the two middle values
// for an even count).
func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf sorts a copy of vs and returns its median.
func medianOf(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return median(s)
}

// opSummary condenses a timed phase's operations.
type opSummary struct {
	attempted, failed int
	// p50MS, tailMS, tailPct and tailBeyond describe the scaled latency
	// of the successful operations; samples is their count. rawP50MS and
	// rawTailMS are the same percentiles of wall time.
	p50MS, tailMS, tailPct float64
	rawP50MS, rawTailMS    float64
	tailBeyond, samples    int
	// missedLimit counts operations that failed or took longer than the
	// latency limit.
	missedLimit int
	instr       uint64
	firstErr    error
}

// summarize accounts a phase's operations against a latency limit on
// wall time. A failed operation counts as failed and as missing the
// limit; only successful ones contribute latency samples.
func summarize(recs []opRecord, limit time.Duration) opSummary {
	s := opSummary{attempted: len(recs)}
	var lats, raw []float64
	for _, r := range recs {
		s.instr += r.instr
		if r.err != nil {
			s.failed++
			s.missedLimit++
			if s.firstErr == nil {
				s.firstErr = r.err
			}
			continue
		}
		if r.lat > limit {
			s.missedLimit++
		}
		scale := r.scale
		if scale == 0 {
			scale = 1
		}
		ms := float64(r.lat) / float64(time.Millisecond)
		lats = append(lats, ms*scale)
		raw = append(raw, ms)
	}
	sort.Float64s(lats)
	sort.Float64s(raw)
	s.samples = len(lats)
	s.p50MS = median(lats)
	s.tailMS, s.tailPct, s.tailBeyond = tail(lats)
	s.rawP50MS = median(raw)
	s.rawTailMS, _, _ = tail(raw)
	return s
}

// errorRate is failed operations over attempted ones.
func (s opSummary) errorRate() float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.failed) / float64(s.attempted)
}

// unattributed is the part of an end-to-end cost the named layers do not
// account for: total minus the sum of the layers. It may be negative when
// layers measured in isolation cost more than they do together.
func unattributed(total float64, layers map[string]float64) float64 {
	for _, v := range layers {
		total -= v
	}
	return total
}

// metricDef declares one reported metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// declaration is what BENCHMARK.json declares: the workloads and the
// metrics the benchmark reports, with their units.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadDeclaration reads and checks the benchmark's declaration: every
// metric well formed, and every declared workload one this program runs.
func loadDeclaration(path string) (*declaration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, defs := range [][]metricDef{d.EndToEnd, d.PerLayer} {
		if err := validateDefs(defs); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	if len(d.Workloads) == 0 {
		return nil, fmt.Errorf("%s declares no workloads", path)
	}
	for _, w := range d.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			return nil, fmt.Errorf("%s: workload %q is not one this benchmark runs", path, w.Name)
		}
	}
	return &d, nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateDefs checks every declared metric's name, unit and direction,
// and that no name is declared twice.
func validateDefs(defs []metricDef) error {
	seen := map[string]bool{}
	for _, d := range defs {
		if !nameRE.MatchString(d.Name) {
			return fmt.Errorf("metric name %q: want 1-64 of [A-Za-z0-9_.-], starting with a letter or digit", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			return fmt.Errorf("metric %s: unit %q: want 1-16 of [A-Za-z0-9_/%%.-]", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			return fmt.Errorf("metric %s: better %q: want higher or lower", d.Name, d.Better)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// checkValues checks that values holds exactly the declared metrics, each
// a finite number.
func checkValues(defs []metricDef, values map[string]float64) error {
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
	}
	if len(values) != len(defs) {
		declared := map[string]bool{}
		for _, d := range defs {
			declared[d.Name] = true
		}
		for name := range values {
			if !declared[name] {
				return fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return nil
}
