package sim

import "hprefetch/internal/isa"

// DefaultWindowChunk is the window chunk every machine outside the
// window-boundary tests uses.
const DefaultWindowChunk = defaultWindowChunk

// SetWindowChunk sets how many events a filling source writes per
// refill for machines built after the call, and returns a func that
// restores the previous size. Window-boundary tests shrink it to put a
// refill at every lookahead position.
func SetWindowChunk(n int) (restore func()) {
	old := windowChunk
	windowChunk = n
	return func() { windowChunk = old }
}

// Window returns the events in the machine's lookahead window: a
// contiguous run of the stream ending at the last event taken from the
// source.
func (m *Machine) Window() []isa.BlockEvent { return m.win.ev }

// SetReadAhead makes every ReadAhead built after the call read its
// source ahead in chunks of chunk events (on), or read it on the
// machine's goroutine from the start, as a direct run would (off). It
// returns a func that restores both. Boundary tests shrink the chunk to
// put a chunk boundary at every lookahead position.
func SetReadAhead(on bool, chunk int) (restore func()) {
	oldInline, oldChunk := readAheadInline, readAheadChunk
	readAheadInline, readAheadChunk = !on, chunk
	return func() { readAheadInline, readAheadChunk = oldInline, oldChunk }
}

// DefaultReadAheadChunk is the read-ahead chunk outside boundary tests.
const DefaultReadAheadChunk = defaultReadAheadChunk
