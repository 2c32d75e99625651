// Package binfmt defines the binary image format of the synthetic
// applications: an ELF-like container holding the code layout, symbol and
// call-site tables needed to reconstruct the static call graph, plus the
// .bundles segment the linker appends with the Bundle entry points and the
// tagged call/return instruction addresses — the paper's software→hardware
// channel (§5.2). The loader consumes this segment to set the reserved
// tag bit on the flagged instructions.
package binfmt

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"hprefetch/internal/isa"
	"hprefetch/internal/program"
)

// Magic identifies the image format ("HPBin" packed).
const Magic = 0x4850_4249_4E01

// Version is the current format version.
const Version = 1

// Image is a decoded binary image. It carries everything the analysis
// tools and the loader need: the program structure and, once linked, the
// .bundles segment.
type Image struct {
	// Name is the workload name.
	Name string
	// Seed is the program's master generation seed.
	Seed uint64
	// Entry is the program entry function.
	Entry isa.FuncID
	// TextBase and TextSize describe the linked text segment.
	TextBase isa.Addr
	TextSize uint64
	// RequestTypes and TypeWeights describe the request mix baked into
	// the workload driver section.
	RequestTypes int
	TypeWeights  []float64
	// Funcs is the symbol table, indexed by FuncID.
	Funcs []FuncRecord
	// Calls is the call-site table: each function's NumCalls sites in
	// turn, in FuncID order.
	Calls []program.Call
	// TargetSets holds indirect-call dispatch tables.
	TargetSets []TargetSetRecord
	// Stages describes the request pipeline.
	Stages []StageRecord
	// Bundles is the linker-added segment (empty before linking).
	Bundles BundleSegment
}

// FuncRecord is one symbol-table entry. Its NumCalls call sites follow
// those of the functions before it in Image.Calls. Seed must be the
// one Program.FuncSeed derives from the image seed and the FuncID.
type FuncRecord struct {
	Addr     isa.Addr
	Size     uint32
	Seed     uint64
	Kind     uint8
	Stage    int16
	NumCalls uint32
}

// TargetSetRecord mirrors program.TargetSet.
type TargetSetRecord struct {
	ByType bool
	Funcs  []isa.FuncID
}

// StageRecord mirrors program.Stage.
type StageRecord struct {
	Name     string
	Func     isa.FuncID
	Diverges bool
	Handlers []isa.FuncID
}

// BundleSegment is the .bundles section: the output of the link-time
// Bundle identification pass.
type BundleSegment struct {
	// Threshold is the divergence threshold used (bytes).
	Threshold uint64
	// Entries lists Bundle entry functions in ascending order.
	Entries []isa.FuncID
	// TaggedAddrs lists the call/return instruction addresses to tag,
	// in ascending order.
	TaggedAddrs []isa.Addr
}

// Empty reports whether the segment is absent (unlinked image).
func (b *BundleSegment) Empty() bool {
	return len(b.Entries) == 0 && len(b.TaggedAddrs) == 0
}

// FromProgram builds an image from a program (linked or not).
func FromProgram(p *program.Program) *Image {
	im := &Image{
		Name:         p.Name,
		Seed:         p.Seed,
		Entry:        p.Entry,
		TextBase:     p.TextBase,
		TextSize:     p.TextSize,
		RequestTypes: p.RequestTypes,
		TypeWeights:  append([]float64(nil), p.TypeWeights...),
	}
	im.Funcs = make([]FuncRecord, len(p.Funcs))
	for i := range p.Funcs {
		f := &p.Funcs[i]
		im.Funcs[i] = FuncRecord{Addr: f.Addr, Size: f.Size, Seed: p.FuncSeed(isa.FuncID(i)),
			Kind: uint8(f.Kind), Stage: f.Stage, NumCalls: f.NumCalls}
	}
	im.Calls = slices.Clone(p.Calls)
	im.TargetSets = make([]TargetSetRecord, len(p.TargetSets))
	for i, ts := range p.TargetSets {
		im.TargetSets[i] = TargetSetRecord{ByType: ts.ByType, Funcs: append([]isa.FuncID(nil), ts.Funcs...)}
	}
	im.Stages = make([]StageRecord, len(p.Stages))
	for i, s := range p.Stages {
		im.Stages[i] = StageRecord{Name: s.Name, Func: s.Func, Diverges: s.Diverges, Handlers: append([]isa.FuncID(nil), s.Handlers...)}
	}
	return im
}

// Program reconstructs the program structure from the image. It fails
// when a record's seed is not the one its ID derives, since the program
// keeps no seeds and would expand a different body, or when the call
// counts do not add up to the call-site table.
func (im *Image) Program() (*program.Program, error) {
	p := &program.Program{
		Name:         im.Name,
		Seed:         im.Seed,
		Entry:        im.Entry,
		TextBase:     im.TextBase,
		TextSize:     im.TextSize,
		RequestTypes: im.RequestTypes,
		TypeWeights:  append([]float64(nil), im.TypeWeights...),
	}
	p.Funcs = make([]program.Function, len(im.Funcs))
	next := uint64(0)
	for i := range im.Funcs {
		fr := &im.Funcs[i]
		if want := p.FuncSeed(isa.FuncID(i)); fr.Seed != want {
			return nil, fmt.Errorf("binfmt: function %d has seed %#x, its ID derives %#x", i, fr.Seed, want)
		}
		if next+uint64(fr.NumCalls) > uint64(len(im.Calls)) {
			return nil, fmt.Errorf("binfmt: function %d calls overrun the %d-entry call table", i, len(im.Calls))
		}
		p.Funcs[i] = program.Function{Addr: fr.Addr, Size: fr.Size, FirstCall: uint32(next), NumCalls: fr.NumCalls,
			Kind: program.FuncKind(fr.Kind), Stage: fr.Stage}
		next += uint64(fr.NumCalls)
	}
	if next != uint64(len(im.Calls)) {
		return nil, fmt.Errorf("binfmt: functions own %d of %d call sites", next, len(im.Calls))
	}
	p.Calls = make([]program.Call, len(im.Calls))
	copy(p.Calls, im.Calls)
	p.TargetSets = make([]program.TargetSet, len(im.TargetSets))
	for i, ts := range im.TargetSets {
		p.TargetSets[i] = program.TargetSet{ByType: ts.ByType, Funcs: append([]isa.FuncID(nil), ts.Funcs...)}
	}
	p.Stages = make([]program.Stage, len(im.Stages))
	for i, s := range im.Stages {
		p.Stages[i] = program.Stage{Name: s.Name, Func: s.Func, Diverges: s.Diverges, Handlers: append([]isa.FuncID(nil), s.Handlers...)}
	}
	if p.Linked() {
		p.BuildAddrIndex()
	}
	return p, nil
}

// writer serialises with little-endian fixed-width fields.
type writer struct{ buf []byte }

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }

// Marshal encodes the image. The records' NumCalls must add up to at
// most len(im.Calls), as they do in every image FromProgram or
// Unmarshal returns.
func (im *Image) Marshal() []byte {
	w := &writer{buf: make([]byte, 0, 64+len(im.Funcs)*40)}
	w.u64(Magic)
	w.u16(Version)
	w.str(im.Name)
	w.u64(im.Seed)
	w.u32(uint32(im.Entry))
	w.u64(uint64(im.TextBase))
	w.u64(im.TextSize)
	w.u32(uint32(im.RequestTypes))
	w.u32(uint32(len(im.TypeWeights)))
	for _, v := range im.TypeWeights {
		w.f64(v)
	}
	w.u32(uint32(len(im.Funcs)))
	calls := im.Calls
	for i := range im.Funcs {
		f := &im.Funcs[i]
		w.u64(uint64(f.Addr))
		w.u32(f.Size)
		w.u64(f.Seed)
		w.u8(f.Kind)
		w.u16(uint16(f.Stage))
		w.u32(f.NumCalls)
		for _, c := range calls[:f.NumCalls] {
			w.u32(c.Off)
			w.u32(uint32(c.Callee))
			w.u32(c.Targets)
			w.u16(c.Prob)
			w.u8(c.Repeat)
		}
		calls = calls[f.NumCalls:]
	}
	w.u32(uint32(len(im.TargetSets)))
	for _, ts := range im.TargetSets {
		if ts.ByType {
			w.u8(1)
		} else {
			w.u8(0)
		}
		w.u32(uint32(len(ts.Funcs)))
		for _, f := range ts.Funcs {
			w.u32(uint32(f))
		}
	}
	w.u32(uint32(len(im.Stages)))
	for _, s := range im.Stages {
		w.str(s.Name)
		w.u32(uint32(s.Func))
		if s.Diverges {
			w.u8(1)
		} else {
			w.u8(0)
		}
		w.u32(uint32(len(s.Handlers)))
		for _, h := range s.Handlers {
			w.u32(uint32(h))
		}
	}
	// .bundles segment.
	w.u64(im.Bundles.Threshold)
	w.u32(uint32(len(im.Bundles.Entries)))
	for _, e := range im.Bundles.Entries {
		w.u32(uint32(e))
	}
	w.u32(uint32(len(im.Bundles.TaggedAddrs)))
	for _, a := range im.Bundles.TaggedAddrs {
		w.u64(uint64(a))
	}
	return w.buf
}

// reader decodes with bounds checking.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	// n < 0 catches 32-bit int overflow of a hostile u32 length prefix;
	// the subtraction form avoids overflowing r.off+n.
	if n < 0 || n > len(r.buf)-r.off {
		r.err = fmt.Errorf("binfmt: truncated image at offset %d (need %d of %d)", r.off, n, len(r.buf))
		return false
	}
	return true
}
func (r *reader) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}
func (r *reader) u16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}
func (r *reader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}
func (r *reader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}
func (r *reader) str() string {
	n := int(r.u32())
	if !r.need(n) {
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

// boolean accepts only the canonical 0/1 encodings, keeping the format
// strict: every accepted image re-marshals to the identical bytes.
func (r *reader) boolean() bool {
	b := r.u8()
	if r.err == nil && b > 1 {
		r.err = fmt.Errorf("binfmt: invalid boolean byte %#x at offset %d", b, r.off-1)
	}
	return b != 0
}

// count reads a length prefix and sanity-checks it against the remaining
// bytes, assuming each element needs at least minElem bytes, preventing
// huge allocations from corrupt images.
func (r *reader) count(minElem int) int {
	// 64-bit math throughout: a hostile prefix near 2^32 must not wrap
	// the product (or the int conversion) on 32-bit platforms.
	n := int64(r.u32())
	if r.err == nil && n*int64(minElem) > int64(len(r.buf)-r.off) {
		r.err = fmt.Errorf("binfmt: implausible element count %d at offset %d", n, r.off)
		return 0
	}
	return int(n)
}

// Unmarshal decodes an image, validating structure but not semantics.
func Unmarshal(data []byte) (*Image, error) {
	r := &reader{buf: data}
	if r.u64() != Magic {
		return nil, fmt.Errorf("binfmt: bad magic")
	}
	if v := r.u16(); v != Version {
		return nil, fmt.Errorf("binfmt: unsupported version %d", v)
	}
	im := &Image{}
	im.Name = r.str()
	im.Seed = r.u64()
	im.Entry = isa.FuncID(r.u32())
	im.TextBase = isa.Addr(r.u64())
	im.TextSize = r.u64()
	im.RequestTypes = int(r.u32())
	nw := r.count(8)
	im.TypeWeights = make([]float64, 0, nw)
	for i := 0; i < nw; i++ {
		im.TypeWeights = append(im.TypeWeights, r.f64())
	}
	nf := r.count(27)
	im.Funcs = make([]FuncRecord, 0, nf)
	for i := 0; i < nf && r.err == nil; i++ {
		var f FuncRecord
		f.Addr = isa.Addr(r.u64())
		f.Size = r.u32()
		f.Seed = r.u64()
		f.Kind = r.u8()
		f.Stage = int16(r.u16())
		nc := r.count(15)
		f.NumCalls = uint32(nc)
		for j := 0; j < nc; j++ {
			im.Calls = append(im.Calls, program.Call{
				Off:     r.u32(),
				Callee:  isa.FuncID(r.u32()),
				Targets: r.u32(),
				Prob:    r.u16(),
				Repeat:  r.u8(),
			})
		}
		im.Funcs = append(im.Funcs, f)
	}
	nts := r.count(5)
	im.TargetSets = make([]TargetSetRecord, 0, nts)
	for i := 0; i < nts && r.err == nil; i++ {
		var ts TargetSetRecord
		ts.ByType = r.boolean()
		n := r.count(4)
		ts.Funcs = make([]isa.FuncID, 0, n)
		for j := 0; j < n; j++ {
			ts.Funcs = append(ts.Funcs, isa.FuncID(r.u32()))
		}
		im.TargetSets = append(im.TargetSets, ts)
	}
	ns := r.count(13)
	im.Stages = make([]StageRecord, 0, ns)
	for i := 0; i < ns && r.err == nil; i++ {
		var s StageRecord
		s.Name = r.str()
		s.Func = isa.FuncID(r.u32())
		s.Diverges = r.boolean()
		n := r.count(4)
		s.Handlers = make([]isa.FuncID, 0, n)
		for j := 0; j < n; j++ {
			s.Handlers = append(s.Handlers, isa.FuncID(r.u32()))
		}
		im.Stages = append(im.Stages, s)
	}
	im.Bundles.Threshold = r.u64()
	ne := r.count(4)
	im.Bundles.Entries = make([]isa.FuncID, 0, ne)
	for i := 0; i < ne; i++ {
		im.Bundles.Entries = append(im.Bundles.Entries, isa.FuncID(r.u32()))
	}
	na := r.count(8)
	im.Bundles.TaggedAddrs = make([]isa.Addr, 0, na)
	for i := 0; i < na; i++ {
		im.Bundles.TaggedAddrs = append(im.Bundles.TaggedAddrs, isa.Addr(r.u64()))
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("binfmt: %d trailing bytes", len(data)-r.off)
	}
	return im, nil
}
