package main

import (
	"fmt"
	"runtime/debug"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts: on a shared machine the same simulation can
// take twice as long from one minute to the next. The benchmark therefore
// times a fixed calibration kernel next to the work it measures and
// scales every timing to the speed at which the kernel takes refKernel.
// The kernel shares no state with the repository's code and runs with the
// collector quiescent (see scale), so a change to the code does not move
// it: the scaled times keep every real change to the code and lose most
// of the drift. Raw wall times are reported beside the scaled ones.

// kernelIters is the calibration kernel's size: some 10 ms of integer
// work and random loads over an 8 MiB table, the mix of arithmetic and
// cache-missing loads the simulator does.
const kernelIters = 1_000_000

// refKernel is the kernel's time at the reference speed: about its time
// between operations on a 2-vCPU Intel Xeon virtual machine at that
// machine's usual speed.
const refKernel = 8500 * time.Microsecond

// speedometer runs the calibration kernel on a fixed number of threads at
// once: as many as the measured work keeps busy. Its tables are mapped
// outside the Go heap, so they do not count in peak_heap_mb. It is not
// safe for concurrent use.
type speedometer struct {
	tables [][]uint64
	sinks  []uint64
}

// tableWords is the size of one kernel table in 8-byte words.
const tableWords = 1 << 20

func newSpeedometer(threads int) (*speedometer, error) {
	s := &speedometer{sinks: make([]uint64, threads)}
	for i := 0; i < threads; i++ {
		mem, err := syscall.Mmap(-1, 0, 8*tableWords, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("mapping a calibration table: %w", err)
		}
		s.tables = append(s.tables, unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), tableWords))
	}
	// The first pass faults the fresh pages in; measurements start warm.
	s.scale()
	return s, nil
}

// close unmaps the tables.
func (s *speedometer) close() {
	for _, t := range s.tables {
		mem := unsafe.Slice((*byte)(unsafe.Pointer(&t[0])), 8*tableWords)
		syscall.Munmap(mem) //nolint:errcheck // the mapping is private and about to be dropped
	}
	s.tables = nil
}

// kernel runs iters steps of the calibration kernel over table i.
func (s *speedometer) kernel(i, iters int) {
	const mask = tableWords - 1
	table := s.tables[i]
	x := uint64(88172645463325252)
	var sink uint64
	for n := 0; n < iters; n++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		table[j] += x
		sink += table[(j*7)&mask]
	}
	s.sinks[i] += sink
}

// runKernels runs iters steps of the kernel on every thread at once and
// returns how long they took.
func (s *speedometer) runKernels(iters int) time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := range s.tables {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.kernel(i, iters)
		}(i)
	}
	wg.Wait()
	return time.Since(t0)
}

// scale is the factor that turns a wall time measured now into a time at
// the reference speed: refKernel over the time the kernels take when run
// on every thread at once.
//
// The kernels must not pay for the work measured just before them. A
// collection still marking that work's garbage would take processor time
// from them, so a change that allocates more would also slow the kernel
// and hide part of its own cost. Disabling the collector waits for any
// mark phase in progress to end, and the kernels allocate nothing, so
// none starts while they run. An untimed third of a pass then brings the
// tables back into the caches while the sweeper frees the last cycle's
// spans. On the virtual machine above, with 150 MB of live pointers,
// 128 MB of garbage just before lowered the scale by 25% on one thread
// and 50% on two when the kernel was timed at once, and by under 10%
// this way.
func (s *speedometer) scale() float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s.runKernels(kernelIters / 3)
	return float64(refKernel) / float64(s.runKernels(kernelIters))
}
