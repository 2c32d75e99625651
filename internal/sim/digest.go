package sim

import (
	"reflect"
	"strconv"
)

// DigestPrefix tags the digest algorithm so a future change of hash or
// canonical form cannot be mistaken for a behaviour change.
const DigestPrefix = "fnv1a64"

// Canonical renders the statistics in a stable text form: one
// `name=value` line per field, in struct declaration order, with array
// and slice fields as comma-separated element lists. Every field is a
// counter (integers only), so the form is bit-exact across platforms;
// two runs are behaviourally identical if and only if their canonical
// forms match. Adding, removing or renaming a Stats field changes the
// canonical form by construction — reflection walks the struct — which
// is deliberate: golden digests must flag any change in what a run
// measures, intended or not.
func (s *Stats) Canonical() string {
	var c canon
	s.writeCanonical(&c)
	return string(c.text)
}

// Digest returns a short stable fingerprint ("fnv1a64:<16 hex>") of the
// canonical form. Two processes simulating the same workload, scheme
// and configuration must produce identical digests; any drift means the
// simulation is no longer deterministic or its behaviour changed. It
// hashes the canonical form as it is produced, without building it, so
// the result string is its only allocation.
func (s *Stats) Digest() string {
	c := canon{hash: true, sum: fnvOffset64}
	s.writeCanonical(&c)
	var out [len(DigestPrefix) + 1 + 16]byte
	n := copy(out[:], DigestPrefix)
	out[n] = ':'
	for i := len(out) - 1; i > n; i-- {
		out[i] = "0123456789abcdef"[c.sum&0xf]
		c.sum >>= 4
	}
	return string(out[:])
}

// statsFieldNames lists the Stats field names in declaration order.
// Read once, because every reflect.StructField lookup allocates.
var statsFieldNames = func() []string {
	t := reflect.TypeOf(Stats{})
	names := make([]string, t.NumField())
	for i := range names {
		names[i] = t.Field(i).Name
	}
	return names
}()

// writeCanonical produces the canonical form into c, a line at a time.
func (s *Stats) writeCanonical(c *canon) {
	var buf [1024]byte // holds the longest line without allocating
	v := reflect.ValueOf(s).Elem()
	for i, name := range statsFieldNames {
		line := append(append(buf[:0], name...), '=')
		switch f := v.Field(i); f.Kind() {
		case reflect.Slice, reflect.Array:
			for j := 0; j < f.Len(); j++ {
				if j > 0 {
					line = append(line, ',')
				}
				line = strconv.AppendUint(line, f.Index(j).Uint(), 10)
			}
		default:
			line = strconv.AppendUint(line, f.Uint(), 10)
		}
		c.write(append(line, '\n'))
	}
}

// FNV-1a, 64-bit (hash/fnv's New64a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// canon receives the canonical form: it appends it to text, or, with
// hash set, folds it into the FNV-1a sum instead.
type canon struct {
	hash bool
	sum  uint64
	text []byte
}

func (c *canon) write(p []byte) {
	if !c.hash {
		c.text = append(c.text, p...)
		return
	}
	for _, b := range p {
		c.sum = (c.sum ^ uint64(b)) * fnvPrime64
	}
}
