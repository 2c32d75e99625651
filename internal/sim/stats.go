package sim

import "reflect"

// DistanceBuckets are the prefetch-distance histogram bucket upper bounds
// (in cache blocks), matching the Figure 2c analysis.
var DistanceBuckets = []uint64{2, 4, 8, 16, 32, 64, 128, 256, 1 << 62}

// ReqStallBuckets are the per-request fetch-stall histogram bucket upper
// bounds, in cycles: a power-of-two ladder from stall-free requests up
// through the deep tail, with a catch-all final bucket. A request lands
// in the first bucket whose bound is >= its total fetch stall.
var ReqStallBuckets = []uint64{
	0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096,
	8192, 16384, 32768, 65536, 131072, 262144, 524288, 1 << 62,
}

// Stats aggregates everything a run measures. All times are in scaled
// units (CycleScale per cycle) unless the accessor converts.
type Stats struct {
	// Instructions and ScaledCycles drive the IPC metric.
	Instructions uint64
	ScaledCycles uint64
	// Requests counts completed request-loop iterations.
	Requests uint64

	// Front-end redirects.
	CondMispredicts     uint64
	IndirectMispredicts uint64
	RASMispredicts      uint64
	BTBMissRedirects    uint64
	Branches            uint64

	// Demand instruction-fetch outcomes at the L1-I.
	L1IDemandHits   uint64
	L1IDemandMisses uint64 // clean misses (no prefetch in flight)
	L1ILateHits     uint64 // demand hit an in-flight fill (by origin below)

	// Where clean demand misses were served, with latency sums (scaled).
	ServedL2, ServedLLC, ServedMem             uint64
	LatencyL2Sum, LatencyLLCSum, LatencyMemSum uint64
	LateFDIP, LatePF                           uint64
	LateFDIPStallSum, LatePFStallSum           uint64
	LateFDIPByLevel, LatePFByLevel             [5]uint64
	StallScaled                                uint64 // total fetch stall (post-overlap)
	TLBMisses, TLBHits                         uint64

	// FDIP prefetch accounting.
	FDIPIssued, FDIPUseful, FDIPUseless uint64

	// Evaluated-prefetcher accounting. Late prefetches (a demand access
	// arriving while the PF fill is still in flight) are counted once,
	// in LatePF above, which the accessors below share.
	PFIssued     uint64 // requests that allocated an MSHR/fill
	PFRedundant  uint64 // dropped: already resident or in flight
	PFDropped    uint64 // dropped: MSHR pressure
	PFUseful     uint64 // first demand hit on a PF line (L1-I)
	PFUseless    uint64 // PF line evicted unused
	PFDistSum    uint64 // sum of distances (blocks) at first use
	PFDistCount  uint64
	PFDistHist   []uint64 // per DistanceBuckets: uses at that distance
	PFDistUseful []uint64 // useful at that distance
	PFTLBMiss    uint64   // issued PF whose page missed the ITLB at issue
	PFTLBDropped uint64   // PF withheld by a TLB-aware scheme (no translation)

	// Coverage bookkeeping at the L2 (long-range view).
	L2CoveredByPF uint64 // demand L2 hits on PF-installed lines
	L2Beyond      uint64 // demand misses that went past the L2

	// Fault-injection accounting (zero when no injector is attached).
	FaultPFDrops       uint64 // prefetch issues lost at the machine boundary
	FaultPFDelays      uint64 // prefetch fills given extra latency
	FaultJitteredFills uint64 // LLC/memory fills with jittered latency
	FaultMSHRBlocks    uint64 // allocations blocked by injected starvation
	FaultTagFlips      uint64 // retired events with an inverted Bundle tag

	// Bandwidth in blocks transferred from memory.
	MemBlocksDemand uint64
	MemBlocksFDIP   uint64
	MemBlocksPF     uint64
	MemBlocksMeta   uint64
	MetaReads       uint64
	MetaWrites      uint64
	MetaReadBlocks  uint64
	MetaWriteBlocks uint64

	// Per-request fetch-stall attribution, from the request marks the
	// event source fills beside each event. A request's stall is every
	// scaled unit its demand accesses added to StallScaled between its
	// first and last event; the histogram (per ReqStallBuckets, in
	// cycles) is what the tail percentiles read.
	ReqCompleted uint64
	ReqStallSum  uint64 // scaled units over completed requests
	ReqStallMax  uint64 `stats:"max"` // scaled units, worst completed request
	ReqStallHist []uint64
}

// NewStats returns a Stats with histogram storage allocated.
func NewStats() *Stats {
	return &Stats{
		PFDistHist:   make([]uint64, len(DistanceBuckets)),
		PFDistUseful: make([]uint64, len(DistanceBuckets)),
		ReqStallHist: make([]uint64, len(ReqStallBuckets)),
	}
}

// AddFrom accumulates o into s by walking the struct the way Canonical
// does: scalar counters and latency sums add, arrays and slices
// (histograms) add element-wise over their common length, and a field
// tagged `stats:"max"` (ReqStallMax) takes the maximum. Interval
// sampling folds each measured interval's statistics into one
// aggregate with it. A new counter needs only its field.
func (s *Stats) AddFrom(o *Stats) {
	dst, src := reflect.ValueOf(s).Elem(), reflect.ValueOf(o).Elem()
	t := dst.Type()
	for i := 0; i < t.NumField(); i++ {
		d, f := dst.Field(i), src.Field(i)
		switch d.Kind() {
		case reflect.Slice, reflect.Array:
			for j := 0; j < min(d.Len(), f.Len()); j++ {
				d.Index(j).SetUint(d.Index(j).Uint() + f.Index(j).Uint())
			}
		default:
			if t.Field(i).Tag.Get("stats") == "max" {
				d.SetUint(max(d.Uint(), f.Uint()))
			} else {
				d.SetUint(d.Uint() + f.Uint())
			}
		}
	}
}

// Cycles returns elapsed cycles.
func (s *Stats) Cycles() float64 { return float64(s.ScaledCycles) / CycleScale }

// IPC returns instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.ScaledCycles == 0 {
		return 0
	}
	return float64(s.Instructions) * CycleScale / float64(s.ScaledCycles)
}

// MPKI returns branch mispredictions per kilo-instruction.
func (s *Stats) MPKI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	mis := s.CondMispredicts + s.IndirectMispredicts + s.RASMispredicts
	return float64(mis) * 1000 / float64(s.Instructions)
}

// L1IMPKI returns clean demand misses per kilo-instruction.
func (s *Stats) L1IMPKI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.L1IDemandMisses) * 1000 / float64(s.Instructions)
}

// PFAccuracy returns useful / issued for the evaluated prefetcher,
// counting late prefetches as issued-but-not-fully-useful, matching the
// paper's "prefetches that yield an L1-I hit for a demand fetch".
func (s *Stats) PFAccuracy() float64 {
	if s.PFIssued == 0 {
		return 0
	}
	return float64(s.PFUseful) / float64(s.PFIssued)
}

// PFCoverageL1 returns the fraction of would-be L1-I misses (beyond what
// FDIP already covers) eliminated by the evaluated prefetcher.
func (s *Stats) PFCoverageL1() float64 {
	den := s.PFUseful + s.LatePF + s.L1IDemandMisses
	if den == 0 {
		return 0
	}
	return float64(s.PFUseful) / float64(den)
}

// PFCoverageL2 returns the fraction of L2-level instruction misses
// eliminated by prefetcher-installed L2 lines.
func (s *Stats) PFCoverageL2() float64 {
	den := s.L2CoveredByPF + s.L2Beyond
	if den == 0 {
		return 0
	}
	return float64(s.L2CoveredByPF) / float64(den)
}

// PFLateFraction returns the share of useful+late prefetches that were
// late (Figure 10).
func (s *Stats) PFLateFraction() float64 {
	den := s.PFUseful + s.LatePF
	if den == 0 {
		return 0
	}
	return float64(s.LatePF) / float64(den)
}

// PFTLBMissFraction returns the share of issued prefetches whose target
// page was absent from the ITLB at issue — translation-blocked prefetches
// (Jamet et al.), a failure class distinct from ordinary uselessness.
func (s *Stats) PFTLBMissFraction() float64 {
	if s.PFIssued == 0 {
		return 0
	}
	return float64(s.PFTLBMiss) / float64(s.PFIssued)
}

// PFAvgDistance returns the mean prefetch distance in blocks at first use.
func (s *Stats) PFAvgDistance() float64 {
	if s.PFDistCount == 0 {
		return 0
	}
	return float64(s.PFDistSum) / float64(s.PFDistCount)
}

// AvgMissLatencyCycles returns the average latency paid by clean demand
// misses, in cycles.
func (s *Stats) AvgMissLatencyCycles() float64 {
	n := s.ServedL2 + s.ServedLLC + s.ServedMem
	if n == 0 {
		return 0
	}
	sum := s.LatencyL2Sum + s.LatencyLLCSum + s.LatencyMemSum
	return float64(sum) / float64(n) / CycleScale
}

// TotalMissLatencyCycles returns the total stall attributable to
// instruction misses (clean miss latency plus late-fill residuals), in
// cycles — the quantity Figure 11 compares.
func (s *Stats) TotalMissLatencyCycles() float64 {
	sum := s.LatencyL2Sum + s.LatencyLLCSum + s.LatencyMemSum +
		s.LateFDIPStallSum + s.LatePFStallSum
	return float64(sum) / CycleScale
}

// MemBlocksTotal returns all blocks fetched from memory.
func (s *Stats) MemBlocksTotal() uint64 {
	return s.MemBlocksDemand + s.MemBlocksFDIP + s.MemBlocksPF + s.MemBlocksMeta
}

// ReqStallMeanCycles returns the mean fetch stall per completed request,
// in cycles.
func (s *Stats) ReqStallMeanCycles() float64 {
	if s.ReqCompleted == 0 {
		return 0
	}
	return float64(s.ReqStallSum) / float64(s.ReqCompleted) / CycleScale
}

// ReqStallPercentileCycles returns the q-th percentile (q in [0,1]) of
// the per-request fetch-stall distribution, in cycles, interpolated
// linearly within the histogram bucket holding that rank. Display only:
// digests pin the integer histogram, not this derived value.
func (s *Stats) ReqStallPercentileCycles(q float64) float64 {
	if s.ReqCompleted == 0 || len(s.ReqStallHist) == 0 {
		return 0
	}
	// Clamp the rank into [0,1]; a NaN q (a caller's 0/0) reads as 0.
	if q != q || q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.ReqCompleted)
	var cum uint64
	for i, n := range s.ReqStallHist {
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			lo := float64(0)
			if i > 0 && i-1 < len(ReqStallBuckets) {
				lo = float64(ReqStallBuckets[i-1])
			}
			var hi float64
			if i == len(s.ReqStallHist)-1 || i >= len(ReqStallBuckets) {
				// Catch-all (or out-of-spec trailing) bucket: the worst
				// observed request bounds it. A single-bucket histogram
				// lands here too and interpolates from 0 to that bound.
				hi = float64(s.ReqStallMax) / CycleScale
				if hi < lo {
					hi = lo
				}
			} else {
				hi = float64(ReqStallBuckets[i])
			}
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + frac*(hi-lo)
		}
		cum += n
	}
	return float64(s.ReqStallMax) / CycleScale
}
