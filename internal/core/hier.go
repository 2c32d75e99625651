// Package core implements the paper's contribution: the Hierarchical
// Prefetcher (§5.3). Software (the linker's Bundle identification pass)
// tags the call/return instructions that begin coarse-grained
// functionalities; at commit time the hardware described here reacts to
// those tags. Each tagged instruction starts a new Bundle whose ID is
// hashed from the address of the next instruction. The prefetcher then
//
//   - records the Bundle's retired instruction footprint, compressed into
//     spatial regions by a 16-entry Compression Buffer (§5.3.1), into an
//     in-memory Metadata Buffer organised as segments of 32 regions in an
//     implicit linked list (§5.3.2), superseding the previous record; and
//   - replays the footprint recorded by the previous execution of the
//     same Bundle, located through the on-chip Metadata Address Table
//     (§5.3.3), streaming it into the L1-I segment by segment, paced by
//     each segment's num-insts mark so the prefetched content tracks
//     execution without overflowing the cache (§5.3.5).
//
// Replay is non-speculative (it starts only when the tagged instruction
// commits) and deliberately takes no corrective action on intra-Bundle
// control-flow variation, which is what lets it run arbitrarily far ahead
// of fetch — the property that produces the paper's coverage and
// timeliness results. Metadata reads and writes are charged through the
// simulated LLC/memory path.
package core

import (
	"sort"

	"hprefetch/internal/isa"
	"hprefetch/internal/prefetch"
)

// Config sizes the Hierarchical Prefetcher (defaults per §5.3/§6.3).
type Config struct {
	// CompressionEntries sizes the Compression Buffer (paper: 16).
	CompressionEntries int
	// MATEntries and MATWays size the Metadata Address Table
	// (paper: 512 entries, 8-way — 1.94KB on chip).
	MATEntries, MATWays int
	// BundleIDBits is the Bundle ID width (paper: 24).
	BundleIDBits int
	// MetadataKB is the in-memory Metadata Buffer capacity (paper: 512).
	MetadataKB int
	// RegionsPerSegment is the segment payload (paper: 32 spatial
	// regions per segment, ~0.37KB).
	RegionsPerSegment int
	// MaxSegments caps one Bundle's record length.
	MaxSegments int
	// BurstPrefetches bounds replay issue per retired event.
	BurstPrefetches int
	// TrackStats enables the per-Bundle instrumentation behind the
	// Table 4 statistics (footprints, execution cycles, Jaccard).
	TrackStats bool

	// RecordOnce is an ablation: keep the first recorded footprint of
	// each Bundle forever instead of superseding it with the most
	// recent execution (§5.3.4 argues for replay-latest because it
	// quickly unlearns sporadic paths).
	RecordOnce bool
	// DisablePacing is an ablation: stream the whole recorded footprint
	// as fast as the queue allows instead of pacing segments by their
	// num-insts marks (§5.3.5 argues pacing keeps the stream within
	// L1-I capacity).
	DisablePacing bool
}

// DefaultConfig mirrors the paper's configuration.
func DefaultConfig() Config {
	return Config{
		CompressionEntries: 16,
		MATEntries:         512,
		MATWays:            8,
		BundleIDBits:       24,
		MetadataKB:         512,
		RegionsPerSegment:  32,
		MaxSegments:        96,
		BurstPrefetches:    8,
	}
}

// segmentHeaderBytes models next-seg, num-insts and Bundle ID storage.
const segmentHeaderBytes = 12

// regionBytes models one stored spatial region (base + bit vector).
const regionBytes = 12

// metadataBase is where the Metadata Buffer lives in the simulated
// physical address space (disjoint from any text segment).
const metadataBase = isa.Addr(0x7F00_0000_0000)

// segment is one Metadata Buffer segment.
type segment struct {
	regions  []prefetch.Region
	next     int32  // chain link, -1 at the tail
	numInsts uint64 // instructions from Bundle start at creation
	owner    uint32 // owning Bundle ID
	isHead   bool
	valid    bool
}

// matEntry is one Metadata Address Table way.
type matEntry struct {
	tag   uint32
	head  int32
	valid bool
	age   uint8
}

// BundleStat aggregates one Bundle's dynamic behaviour (TrackStats mode).
type BundleStat struct {
	// Execs counts completed executions.
	Execs uint64
	// BlocksSum accumulates per-execution footprint sizes in blocks.
	BlocksSum uint64
	// CyclesSum accumulates per-execution durations in cycles.
	CyclesSum uint64
	// JaccardSum and JaccardCount aggregate consecutive-execution
	// footprint similarity.
	JaccardSum   float64
	JaccardCount uint64

	prev map[isa.Block]struct{}
	cur  map[isa.Block]struct{}
}

// matTables, segTables and regionTables recycle the tables of released
// prefetchers.
var (
	matTables    prefetch.Tables[matEntry]
	segTables    prefetch.Tables[segment]
	regionTables prefetch.Tables[prefetch.Region]
)

// Hier is the Hierarchical Prefetcher.
type Hier struct {
	cfg Config
	m   prefetch.Machine

	mat     []matEntry
	matSets int

	segs  []segment
	alloc int
	// regionChunks back the segments' region lists: a segment takes
	// RegionsPerSegment slots of regionFree, the untaken rest of the
	// newest chunk, when it is first allocated, so a run holds only the
	// chunks its records reach.
	regionChunks [][]prefetch.Region
	regionFree   []prefetch.Region

	// Record state.
	recActive bool
	recFull   bool
	recBundle uint32
	recHead   int32
	recCur    int32
	recSegs   int
	recStart  uint64 // InstrSeq at Bundle start
	cb        *prefetch.RegionBuffer
	flushed   []prefetch.Region // finishRecord's Compression Buffer flush, reused

	// Replay state.
	repActive  bool
	repBundle  uint32
	repSeg     int32
	repOrdinal int
	fifo       []prefetch.Region
	fifoIdx    int
	bitIdx     int
	readyAt    uint64
	repStart   uint64 // InstrSeq at Bundle start
	paceMark   uint64 // numInsts of the current segment

	// Aggressiveness knobs (prefetch.Tunable): burst is the replay issue
	// budget per retired event (initialised from cfg.BurstPrefetches);
	// freeSegs is how many segments stream unpaced at the start of a
	// replay before the num-insts rule engages (1 = the paper's policy:
	// first and second segments go immediately).
	burst    int
	freeSegs int

	// Instrumentation.
	stats      map[uint32]*BundleStat
	curStat    *BundleStat
	statStartC uint64
	// spareFoot is the footprint set closeStat last retired, kept to
	// be cleared and reused by the next Bundle.
	spareFoot map[isa.Block]struct{}

	// Degraded-mode text bounds: tagged targets and replayed regions
	// outside [textBase, textEnd) are treated as corrupted metadata.
	// Zero bounds disable the check (trusting mode, the default).
	textBase, textEnd isa.Addr

	// Counters is cheap always-on diagnostics.
	Counters struct {
		Boundaries    uint64 // tagged instructions seen
		MATHits       uint64 // replays started
		ReplayEnds    uint64 // replays that ran a chain to its end
		ChainBroken   uint64 // replays killed by reclaimed segments
		SegsLoaded    uint64 // segments streamed
		PrefIssued    uint64 // prefetches handed to the machine
		PaceStalls    uint64 // advance attempts blocked by pacing
		LeadSum       uint64 // sum of per-advance replay leads (instr)
		LeadCount     uint64
		BundleRejects uint64 // malformed hints ignored (degraded mode)
	}
}

// New builds a Hierarchical Prefetcher attached to machine m.
func New(cfg Config, m prefetch.Machine) *Hier {
	nSegs := cfg.MetadataKB * 1024 / (segmentHeaderBytes + cfg.RegionsPerSegment*regionBytes)
	if nSegs < 4 {
		nSegs = 4
	}
	h := &Hier{
		cfg:      cfg,
		m:        m,
		mat:      matTables.Get(cfg.MATEntries),
		matSets:  cfg.MATEntries / cfg.MATWays,
		segs:     segTables.Get(nSegs),
		cb:       prefetch.NewRegionBuffer(cfg.CompressionEntries),
		flushed:  make([]prefetch.Region, 0, cfg.CompressionEntries),
		burst:    cfg.BurstPrefetches,
		freeSegs: 1,
	}
	if cfg.TrackStats {
		h.stats = make(map[uint32]*BundleStat)
	}
	return h
}

// Name identifies the scheme.
func (h *Hier) Name() string { return "Hierarchical" }

// Release hands the Metadata Address Table and the Metadata Buffer back
// for the next Hierarchical Prefetcher to reuse. Counters and
// BundleSummary stay valid after Release.
func (h *Hier) Release() {
	if h.segs != nil {
		matTables.Put(h.mat)
		segTables.Put(h.segs)
		for _, c := range h.regionChunks {
			regionTables.Put(c)
		}
		h.mat, h.segs, h.regionChunks, h.regionFree = nil, nil, nil, nil
	}
}

// SetAggressiveness retargets the bundle-issue policy (prefetch.Tunable):
// degree becomes the per-event replay burst budget and lookahead the
// number of segments streamed before pacing engages. Ungoverned runs
// keep cfg.BurstPrefetches and the paper's one-free-segment policy.
func (h *Hier) SetAggressiveness(degree, lookahead int) {
	if degree < 1 {
		degree = 1
	}
	if lookahead < 1 {
		lookahead = 1
	}
	if lookahead > len(h.segs) {
		lookahead = len(h.segs)
	}
	h.burst, h.freeSegs = degree, lookahead
}

// SetTextBounds arms degraded-mode validation: the prefetcher is given
// the text segment [base, end) and treats any Bundle hint pointing
// outside it — or carried by a non-call/return instruction — as
// corrupted metadata to ignore (counted in Counters.BundleRejects)
// rather than trust. This is the hardware side of the channel contract:
// bad software metadata degrades the prefetcher to FDIP, it never
// redirects it.
func (h *Hier) SetTextBounds(base, end isa.Addr) {
	h.textBase, h.textEnd = base, end
}

// validBoundary vets a tagged retired event before it is allowed to
// start a Bundle. The loader only tags call and return instructions
// (§5.2); a tag on anything else, or a boundary target outside the text
// segment, is a corrupted hint.
func (h *Hier) validBoundary(ev *isa.BlockEvent) bool {
	if !ev.Branch.IsCall() && ev.Branch != isa.BrRet {
		return false
	}
	return h.inText(ev.Target)
}

// inText reports whether addr falls inside the armed text bounds
// (always true in trusting mode).
func (h *Hier) inText(addr isa.Addr) bool {
	if h.textEnd <= h.textBase {
		return true
	}
	return addr >= h.textBase && addr < h.textEnd
}

// NumSegments returns the Metadata Buffer capacity in segments.
func (h *Hier) NumSegments() int { return len(h.segs) }

// StorageBits reports the on-chip budget. The paper counts the Metadata
// Address Table: 18-bit tag + 11-bit pointer + valid per entry plus one
// LRU bit per way — 15872 bits (1.94KB) at the default 512x8
// configuration. The 16-entry Compression Buffer is the only other
// on-chip state and is reported by its own StorageBits.
func (h *Hier) StorageBits() int {
	return h.cfg.MATEntries*(18+11+1) + h.cfg.MATEntries
}

// bundleID hashes the address following the tagged instruction into the
// configured ID width (§5.3: "a Bundle ID hashed from the address of the
// next instruction following the tagged one").
func (h *Hier) bundleID(next isa.Addr) uint32 {
	v := uint64(next) >> 2
	v ^= v >> 23
	v *= 0x2545F4914F6CDD1D
	v ^= v >> 29
	return uint32(v) & (1<<uint(h.cfg.BundleIDBits) - 1)
}

// segAddr returns the simulated memory address of a segment.
func (h *Hier) segAddr(idx int32) isa.Addr {
	segBytes := segmentHeaderBytes + h.cfg.RegionsPerSegment*regionBytes
	return metadataBase + isa.Addr(int(idx)*segBytes)
}

func (h *Hier) segBytes() int {
	return segmentHeaderBytes + h.cfg.RegionsPerSegment*regionBytes
}

// OnRetire drives everything: footprint recording, Bundle boundaries,
// and the replay pump.
func (h *Hier) OnRetire(ev *isa.BlockEvent) {
	if h.segs == nil {
		panic("core: prefetcher used after Release")
	}
	if h.recActive && !h.recFull {
		if evicted, ok := h.cb.Insert(ev.Block()); ok {
			h.appendRegion(evicted)
		}
	}
	if h.curStat != nil {
		h.curStat.cur[ev.Block()] = struct{}{}
	}

	h.pumpReplay()

	if ev.Tagged {
		if !h.validBoundary(ev) {
			h.Counters.BundleRejects++
		} else {
			h.Counters.Boundaries++
			h.onBundleBoundary(ev.Target)
		}
	}
}

// onBundleBoundary ends the current Bundle and starts the next one:
// finish the record, look the new ID up in the MAT, and start replay
// (on a hit) plus a fresh record.
func (h *Hier) onBundleBoundary(next isa.Addr) {
	h.finishRecord()
	id := h.bundleID(next)

	if head, ok := h.matLookup(id); ok && h.segs[head].valid && h.segs[head].owner == id {
		h.Counters.MATHits++
		h.startReplay(id, head)
		if h.cfg.RecordOnce {
			h.recActive = false
		} else {
			h.startRecord(id, head)
		}
	} else {
		h.repActive = false
		seg := h.allocSegment(id, true)
		h.matInsert(id, seg)
		h.startRecordFresh(id, seg)
	}

	if h.stats != nil {
		s := h.stats[id]
		if s == nil {
			s = &BundleStat{}
			h.stats[id] = s
		}
		if s.cur = h.spareFoot; s.cur != nil {
			clear(s.cur)
			h.spareFoot = nil
		} else {
			s.cur = make(map[isa.Block]struct{}, 256)
		}
		h.curStat = s
		h.statStartC = h.m.Now()
	}
}

// startRecord begins re-recording over an existing chain, superseding
// the previous record (§5.3.4).
func (h *Hier) startRecord(id uint32, head int32) {
	h.recActive = true
	h.recFull = false
	h.recBundle = id
	h.recHead = head
	h.recCur = head
	h.recSegs = 1
	h.recStart = h.m.InstrSeq()
	s := &h.segs[head]
	s.regions = s.regions[:0]
	s.numInsts = 0
	s.owner = id
	s.isHead = true
	h.cb.Clear() // discard residue from the previous Bundle
}

// startRecordFresh begins recording into a newly allocated head segment.
func (h *Hier) startRecordFresh(id uint32, head int32) {
	h.startRecord(id, head)
}

// appendRegion stores one evicted spatial region into the record chain.
func (h *Hier) appendRegion(r prefetch.Region) {
	if !h.recActive || h.recFull {
		return
	}
	s := &h.segs[h.recCur]
	if len(s.regions) >= h.cfg.RegionsPerSegment {
		if h.recSegs >= h.cfg.MaxSegments {
			// Record length threshold exceeded (§5.3): stop recording.
			h.recFull = true
			return
		}
		// The segment is complete: write it back and advance, reusing
		// the existing chain where possible.
		h.m.MetadataWrite(h.segAddr(h.recCur), h.segBytes())
		next := s.next
		if next >= 0 && h.segs[next].valid && h.segs[next].owner == h.recBundle && !h.segs[next].isHead {
			h.recCur = next
			ns := &h.segs[next]
			ns.regions = ns.regions[:0]
			ns.numInsts = h.m.InstrSeq() - h.recStart
		} else {
			idx := h.allocSegment(h.recBundle, false)
			h.segs[h.recCur].next = idx
			h.recCur = idx
			h.segs[idx].numInsts = h.m.InstrSeq() - h.recStart
		}
		h.recSegs++
		s = &h.segs[h.recCur]
	}
	s.regions = append(s.regions, r)
}

// finishRecord flushes the Compression Buffer, truncates the chain at
// the current segment, and writes the tail back.
func (h *Hier) finishRecord() {
	if h.recActive {
		h.flushed = h.cb.Flush(h.flushed[:0])
		for _, r := range h.flushed {
			h.appendRegion(r)
			if h.recFull {
				break
			}
		}
		h.segs[h.recCur].next = -1
		h.m.MetadataWrite(h.segAddr(h.recCur), h.segBytes())
		h.recActive = false
	}
	h.closeStat()
}

// closeStat finalises per-Bundle instrumentation for the ending Bundle.
func (h *Hier) closeStat() {
	if h.curStat == nil {
		return
	}
	s := h.curStat
	h.curStat = nil
	s.Execs++
	s.BlocksSum += uint64(len(s.cur))
	s.CyclesSum += (h.m.Now() - h.statStartC) / h.m.CycleScale()
	if s.prev != nil {
		var inter int
		for b := range s.cur {
			if _, ok := s.prev[b]; ok {
				inter++
			}
		}
		union := len(s.cur) + len(s.prev) - inter
		if union > 0 {
			s.JaccardSum += float64(inter) / float64(union)
			s.JaccardCount++
		}
	}
	h.spareFoot, s.prev, s.cur = s.prev, s.cur, nil
}

// allocSegment takes the next segment from the circular Metadata Buffer,
// invalidating whatever Bundle owned it (§5.3.2).
func (h *Hier) allocSegment(owner uint32, isHead bool) int32 {
	for tries := 0; tries < len(h.segs); tries++ {
		idx := int32(h.alloc)
		h.alloc = (h.alloc + 1) % len(h.segs)
		s := &h.segs[idx]
		if s.valid && s.owner == owner {
			// Never cannibalise the Bundle being recorded/replayed.
			continue
		}
		if s.valid {
			if s.isHead {
				h.matInvalidate(s.owner)
			}
			if h.repActive && s.owner == h.repBundle {
				// The replaying Bundle's chain is being overwritten.
				h.repActive = false
			}
		}
		regions := s.regions[:0]
		if regions == nil {
			regions = h.takeRegions()
		}
		*s = segment{regions: regions, next: -1, owner: owner, isHead: isHead, valid: true}
		return idx
	}
	// Every segment belongs to the current Bundle (tiny buffers only):
	// reuse the head's successor arbitrarily.
	h.recFull = true
	return h.recHead
}

// regionChunkSegs is how many segments' region lists one region chunk
// backs.
const regionChunkSegs = 64

// takeRegions returns an empty region list with room for one segment's
// regions, cut from the newest region chunk.
func (h *Hier) takeRegions() []prefetch.Region {
	n := h.cfg.RegionsPerSegment
	if len(h.regionFree) < n {
		h.regionFree = regionTables.Get(regionChunkSegs * n)
		h.regionChunks = append(h.regionChunks, h.regionFree)
	}
	r := h.regionFree[:0:n]
	h.regionFree = h.regionFree[n:]
	return r
}

// startReplay begins streaming the recorded footprint of a Bundle
// (§5.3.5): the head segment is read from the Metadata Buffer (charged
// through the LLC), its regions enter the FIFO, and pacing state arms.
func (h *Hier) startReplay(id uint32, head int32) {
	h.repActive = true
	h.repBundle = id
	h.repSeg = head
	h.repOrdinal = 0
	h.repStart = h.m.InstrSeq()
	h.loadSegment(head)
}

// loadSegment snapshots a segment's regions into the replay FIFO and
// charges the metadata read latency.
func (h *Hier) loadSegment(idx int32) {
	s := &h.segs[idx]
	h.Counters.SegsLoaded++
	h.fifo = append(h.fifo[:0], s.regions...)
	h.fifoIdx = 0
	h.bitIdx = 0
	h.paceMark = s.numInsts
	h.readyAt = h.m.MetadataRead(h.segAddr(idx), segmentHeaderBytes+len(s.regions)*regionBytes)
}

// pumpReplay issues up to BurstPrefetches block prefetches from the
// replay FIFO, honouring the metadata latency gate and the num-insts
// pacing rule: segment N+1 may start once execution has passed segment
// N's creation mark (the first two segments go immediately).
func (h *Hier) pumpReplay() {
	if !h.repActive || h.m.Now() < h.readyAt {
		return
	}
	budget := h.burst
	if space := h.m.PrefetchSpace(); space < budget {
		budget = space
	}
	for budget > 0 {
		if h.fifoIdx >= len(h.fifo) {
			if !h.advanceSegment() {
				return
			}
			continue
		}
		r := &h.fifo[h.fifoIdx]
		if h.bitIdx == 0 && !h.inText(r.Base.Addr()) {
			// A replayed region pointing outside the text segment is
			// corrupted metadata (a reclaimed or bit-rotted record):
			// skip it instead of prefetching garbage addresses.
			h.Counters.BundleRejects++
			h.fifoIdx++
			continue
		}
		for h.bitIdx < prefetch.RegionBlocks {
			bit := h.bitIdx
			h.bitIdx++
			if r.Vec&(1<<uint(bit)) != 0 {
				h.Counters.PrefIssued++
				h.m.Prefetch(r.Base + isa.Block(bit))
				budget--
				if budget == 0 {
					return
				}
			}
		}
		h.fifoIdx++
		h.bitIdx = 0
	}
}

// advanceSegment moves replay to the next segment when the chain and the
// pacing rule allow it.
func (h *Hier) advanceSegment() bool {
	s := &h.segs[h.repSeg]
	next := s.next
	if next < 0 {
		h.Counters.ReplayEnds++
		h.repActive = false
		return false
	}
	if !h.segs[next].valid || h.segs[next].owner != h.repBundle {
		h.Counters.ChainBroken++
		h.repActive = false
		return false
	}
	// Pacing: the (N+1)th segment is triggered when the instructions
	// executed in this Bundle surpass the Nth segment's num-insts mark
	// (snapshotted at load, so the concurrent re-record cannot race it);
	// the first and second segments stream immediately. Because segment
	// N's mark is where the *previous* execution started filling N,
	// replay reaches each segment about one segment ahead of the
	// re-record overwriting it.
	if h.repOrdinal >= h.freeSegs && !h.cfg.DisablePacing {
		executed := h.m.InstrSeq() - h.repStart
		if executed <= h.paceMark {
			h.Counters.PaceStalls++
			return false
		}
	}
	h.repOrdinal++
	h.repSeg = next
	// Replay lead: where execution will be when the re-record reaches
	// this segment (its old creation mark) minus where execution is now.
	if mark := h.segs[next].numInsts; mark > 0 {
		executed := h.m.InstrSeq() - h.repStart
		if mark > executed {
			h.Counters.LeadSum += mark - executed
			h.Counters.LeadCount++
		}
	}
	h.loadSegment(next)
	return h.m.Now() >= h.readyAt
}

// OnResteer is a no-op by design: Bundle replay is decoupled from the
// fetch stream and takes no corrective action on control-flow variation.
func (h *Hier) OnResteer() {}

// OnDemandMiss is a no-op: if a fetched block is not in the recorded
// footprint, the prefetcher does nothing (the record is updated for next
// time as part of normal recording).
func (h *Hier) OnDemandMiss(isa.Block, uint64) {}

// --- Metadata Address Table ---

func (h *Hier) matSet(id uint32) int { return int(id) % h.matSets }

func (h *Hier) matLookup(id uint32) (int32, bool) {
	base := h.matSet(id) * h.cfg.MATWays
	for w := 0; w < h.cfg.MATWays; w++ {
		e := &h.mat[base+w]
		if e.valid && e.tag == id {
			h.matTouch(base, w)
			return e.head, true
		}
	}
	return 0, false
}

func (h *Hier) matInsert(id uint32, head int32) {
	base := h.matSet(id) * h.cfg.MATWays
	victim := 0
	for w := 0; w < h.cfg.MATWays; w++ {
		e := &h.mat[base+w]
		if e.valid && e.tag == id {
			e.head = head
			h.matTouch(base, w)
			return
		}
		if !e.valid {
			victim = w
			break
		}
		if e.age > h.mat[base+victim].age {
			victim = w
		}
	}
	e := &h.mat[base+victim]
	if !e.valid {
		e.age = 255
	}
	e.tag = id
	e.head = head
	e.valid = true
	h.matTouch(base, victim)
}

func (h *Hier) matInvalidate(id uint32) {
	base := h.matSet(id) * h.cfg.MATWays
	for w := 0; w < h.cfg.MATWays; w++ {
		e := &h.mat[base+w]
		if e.valid && e.tag == id {
			e.valid = false
			return
		}
	}
}

func (h *Hier) matTouch(base, way int) {
	old := h.mat[base+way].age
	for w := 0; w < h.cfg.MATWays; w++ {
		if h.mat[base+w].age < old {
			h.mat[base+w].age++
		}
	}
	h.mat[base+way].age = 0
}

// --- Table 4 instrumentation ---

// Summary is the aggregate Bundle behaviour of a run (TrackStats mode).
type Summary struct {
	// DistinctBundles is the number of distinct Bundle IDs executed.
	DistinctBundles int
	// AvgFootprintKB is the mean per-execution footprint (per-Bundle
	// averages, averaged over Bundles, like Table 4).
	AvgFootprintKB float64
	// AvgExecCycles is the mean Bundle execution time in cycles.
	AvgExecCycles float64
	// AvgJaccard is the mean consecutive-execution Jaccard index.
	AvgJaccard float64
	// Executions is the total Bundle executions observed.
	Executions uint64
}

// BundleSummary aggregates the per-Bundle statistics. It requires
// TrackStats; otherwise the zero Summary is returned.
func (h *Hier) BundleSummary() Summary {
	var out Summary
	if h.stats == nil {
		return out
	}
	ids := make([]uint32, 0, len(h.stats))
	for id, s := range h.stats {
		if s.Execs == 0 {
			continue
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var fp, cyc, jac float64
	var jacN int
	for _, id := range ids {
		s := h.stats[id]
		fp += float64(s.BlocksSum) / float64(s.Execs) * isa.BlockSize / 1024
		cyc += float64(s.CyclesSum) / float64(s.Execs)
		if s.JaccardCount > 0 {
			jac += s.JaccardSum / float64(s.JaccardCount)
			jacN++
		}
		out.Executions += s.Execs
	}
	n := len(ids)
	out.DistinctBundles = n
	if n > 0 {
		out.AvgFootprintKB = fp / float64(n)
		out.AvgExecCycles = cyc / float64(n)
	}
	if jacN > 0 {
		out.AvgJaccard = jac / float64(jacN)
	}
	return out
}

var (
	_ prefetch.Prefetcher = (*Hier)(nil)
	_ prefetch.Tunable    = (*Hier)(nil)
)
