package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// spanRec is one recorded call into a layer: its name, the span that
// caused it, the operation it belongs to, and when it ran (nanoseconds
// since the tracer started).
type spanRec struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent,omitempty"`
	Op      int64  `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark writes them out. A
// nil tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []spanRec
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is a handle on an open span; the zero value (from a nil tracer)
// is a no-op.
type span struct {
	tr *tracer
	id int32
	op int64
}

// root opens a top-level span for operation op.
func (t *tracer) root(name string, op int64) span {
	return span{tr: t, op: op}.child(name)
}

// child opens a span caused by s.
func (s span) child(name string) span {
	if s.tr == nil {
		return span{op: s.op}
	}
	now := time.Since(s.tr.t0).Nanoseconds()
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	id := int32(len(s.tr.spans) + 1)
	s.tr.spans = append(s.tr.spans, spanRec{ID: id, Parent: s.id, Op: s.op, Name: name, StartNS: now})
	return span{tr: s.tr, id: id, op: s.op}
}

// traced reports whether s records spans.
func (s span) traced() bool { return s.tr != nil }

// end closes the span.
func (s span) end() {
	if s.tr == nil {
		return
	}
	now := time.Since(s.tr.t0).Nanoseconds()
	s.tr.mu.Lock()
	s.tr.spans[s.id-1].EndNS = now
	s.tr.mu.Unlock()
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	// SelfMS is the total minus the time the span's children cover.
	SelfMS float64 `json:"self_ms"`
}

// selfTimes aggregates spans by name, largest self time first.
func selfTimes(spans []spanRec) []spanStat {
	childNS := make([]int64, len(spans)+1)
	for _, s := range spans {
		if s.Parent > 0 {
			childNS[s.Parent] += s.EndNS - s.StartNS
		}
	}
	byName := map[string]*spanStat{}
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
		}
		dur := s.EndNS - s.StartNS
		self := dur - childNS[s.ID]
		if self < 0 {
			self = 0
		}
		st.Count++
		st.TotalMS += float64(dur) / 1e6
		st.SelfMS += float64(self) / 1e6
	}
	out := make([]spanStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// write saves every span and the per-name self times as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans []spanRec  `json:"spans"`
		Self  []spanStat `json:"self"`
	}{t.spans, selfTimes(t.spans)})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
