package prefetch

import "hprefetch/internal/freelist"

// Tables recycles one kind of prefetcher table. A prefetcher's New takes
// its tables from Get and its Release hands them back with Put, so the
// next prefetcher of that kind reuses them instead of allocating and
// zeroing its own. Tables are handed out zeroed, which is what a fresh
// make gives, so a prefetcher on recycled tables starts exactly like one
// on new tables. The zero value is ready to use.
type Tables[T any] struct{ free freelist.List[[]T] }

// Get returns a zeroed table of n entries: the most recently released one
// when it has room for n, a new one otherwise. A released table too short
// for n is dropped.
func (p *Tables[T]) Get(n int) []T {
	if t, ok := p.free.Get(); ok && cap(t) >= n {
		t = t[:n]
		clear(t)
		return t
	}
	return make([]T, n)
}

// Put hands t back for a later Get. The caller must not use t again.
func (p *Tables[T]) Put(t []T) {
	if cap(t) > 0 {
		p.free.Put(t)
	}
}
