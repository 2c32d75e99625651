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
