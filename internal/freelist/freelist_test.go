package freelist

import (
	"runtime"
	"sync"
	"testing"
)

// TestListKeepsAcrossCollections: a List hands back the most recently
// released value first, keeps what it holds across garbage collections
// (a sync.Pool empties over two) and holds at most Max values.
func TestListKeepsAcrossCollections(t *testing.T) {
	var l List[*int]
	if _, ok := l.Get(); ok {
		t.Fatal("Get on an empty list reported a value")
	}
	vals := make([]*int, Max+1)
	for i := range vals {
		vals[i] = new(int)
		*vals[i] = i
		l.Put(vals[i])
	}
	runtime.GC()
	runtime.GC()
	for i := Max - 1; i >= 0; i-- {
		v, ok := l.Get()
		if !ok || v != vals[i] {
			t.Fatalf("Get %d after two collections: %v, %v; want value %d", Max-1-i, v, ok, i)
		}
	}
	if v, ok := l.Get(); ok {
		t.Fatalf("list kept %d past Max", *v)
	}
}

// TestListConcurrent: every value put from several goroutines at once
// comes back exactly once.
func TestListConcurrent(t *testing.T) {
	var l List[int]
	const workers, each = 4, Max / 4
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				l.Put(w*each + i)
				if v, ok := l.Get(); ok {
					l.Put(v)
				}
			}
		}()
	}
	wg.Wait()
	seen := make([]bool, workers*each)
	for {
		v, ok := l.Get()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("value %d came back twice", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("value %d was lost", v)
		}
	}
}
