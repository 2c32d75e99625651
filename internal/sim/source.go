package sim

import "hprefetch/internal/isa"

// EventSource feeds the machine its retired block-event stream one
// window at a time. The live implementations are trace.Engine and the
// microservice interleaver; tracefile.MemReader replays a decoded
// trace, and tracefile.Recorder tees a live stream to disk. The machine cannot tell them apart, which
// is exactly the record/replay digest-equality guarantee.
//
// The machine calls Fill only once its cursors have looked at every
// event of the previous fill, so a source may treat a Fill call as
// proof that everything it delivered before was consumed.
//
// A live stream is unbounded. A finite source (a trace file) signals
// its end by filling fewer events than asked; sources that can also
// explain why should implement
//
//	Err() error
//
// which the machine consults to report the cause (e.g. a truncated
// trace) instead of a bare exhaustion error.
type EventSource interface {
	// Fill writes the stream's next events into ev and, index for
	// index, each event's request id (req), whether it was its
	// request's last event (done), and the Requests count after it
	// (reqs). The four slices have equal length. Fill returns how many
	// events it wrote: len(ev) unless the stream ended.
	Fill(ev []isa.BlockEvent, req []uint64, done []bool, reqs []uint64) int
	// Instructions is the total instructions delivered so far.
	Instructions() uint64
	// Requests is how many requests had started when the most recently
	// delivered event retired (before any: the pre-stream count).
	Requests() uint64
}

// BatchSource is an EventSource whose whole remainder is already
// decoded in memory (tracefile.MemReader). The machine takes it as one
// zero-copy window instead of filling a window of its own.
type BatchSource interface {
	EventSource
	// Batch hands over the undelivered remainder as parallel slices
	// with Fill's meaning and moves the source's cursor to the end of
	// the stream. The slices alias the source's storage and must not
	// be mutated.
	Batch() (ev []isa.BlockEvent, req []uint64, done []bool, reqs []uint64)
}
