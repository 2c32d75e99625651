// Package freelist recycles storage between users that come and go, such
// as the tables of one simulation run and the next.
//
// A List is used in place of a sync.Pool because a pool's contents depend
// on timing: a pool empties itself over two garbage collections and keeps
// part of what it holds per processor, so whether a run found released
// tables, and so what the run allocated, depended on when collections ran
// and which processor the run was scheduled on. What a List hands out
// depends only on the order of Get and Put calls. The price is that a
// List keeps what it holds until it is taken again: as much as was ever
// in use at once, up to Max values.
package freelist

import "sync"

// Max is how many released values a List keeps. It is far above the number
// of runs a process holds at once, so it bounds only a burst of releases.
const Max = 64

// List is a bounded stack of released values, safe for concurrent use.
// The zero value is an empty list.
type List[T any] struct {
	mu   sync.Mutex
	free []T
}

// Get removes and returns the most recently released value, or reports
// false when the list is empty.
func (l *List[T]) Get() (v T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return v, false
	}
	v = l.free[n-1]
	var zero T
	l.free[n-1] = zero // the list no longer holds it
	l.free = l.free[:n-1]
	return v, true
}

// Put releases v for a later Get; when the list already holds Max values,
// v is dropped. The caller must not use v again.
func (l *List[T]) Put(v T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) < Max {
		l.free = append(l.free, v)
	}
}
