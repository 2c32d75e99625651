package prefetch

import "testing"

// TestTablesHandOutZeroed: a recycled table comes back zeroed over its
// whole new length, also when it was last handed out shorter than it
// is now.
func TestTablesHandOutZeroed(t *testing.T) {
	var p Tables[int]
	fill := func(s []int, v int) {
		for i := range s {
			s[i] = v
		}
	}
	check := func(s []int, n int) {
		t.Helper()
		if len(s) != n {
			t.Fatalf("Get(%d) returned %d entries", n, len(s))
		}
		for i, v := range s {
			if v != 0 {
				t.Fatalf("Get(%d)[%d] = %d, want a zeroed table", n, i, v)
			}
		}
	}
	long := p.Get(8)
	check(long, 8)
	fill(long, 1)
	p.Put(long)
	short := p.Get(4)
	check(short, 4)
	fill(short, 2)
	p.Put(short)
	check(p.Get(8), 8)
	check(p.Get(16), 16)
}
