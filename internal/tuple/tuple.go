// Package tuple defines the data model shared by every operator in the
// repository: base stream tuples, composite join tuples, stream
// identifiers, and the stream-set bitmask that identifies join states.
//
// The paper's execution model (JISC, EDBT 2014, §2.1) uses symmetric
// hash joins on a single join attribute; a tuple therefore carries one
// Key used for hashing/probing plus an opaque payload. Composite
// tuples additionally carry provenance references (stream, sequence
// number) so that sliding-window eviction can locate and remove every
// intermediate result containing an expired base tuple.
package tuple

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// Value is the domain of the join attribute.
type Value int64

// StreamID identifies a base input stream. Streams are numbered
// densely from zero; at most MaxStreams streams participate in a query.
type StreamID uint8

// MaxStreams bounds the number of base streams in one query. The
// bound exists only because StreamSet is a 64-bit bitmask; the paper's
// largest experiments use 21 streams (20 joins).
const MaxStreams = 64

// StreamSet is a bitmask over StreamIDs. A join state is identified by
// the set of base streams its tuples cover (Definition 1 classifies a
// new-plan state as complete iff its stream set existed in the old
// plan), so StreamSet doubles as the state identifier.
type StreamSet uint64

// NewStreamSet returns the set containing the given streams.
func NewStreamSet(ids ...StreamID) StreamSet {
	var s StreamSet
	for _, id := range ids {
		s = s.Add(id)
	}
	return s
}

// Add returns s with id included.
func (s StreamSet) Add(id StreamID) StreamSet { return s | 1<<id }

// Has reports whether id is in the set.
func (s StreamSet) Has(id StreamID) bool { return s&(1<<id) != 0 }

// Union returns the union of both sets.
func (s StreamSet) Union(o StreamSet) StreamSet { return s | o }

// Intersects reports whether the two sets share a stream.
func (s StreamSet) Intersects(o StreamSet) bool { return s&o != 0 }

// Contains reports whether every stream of o is in s.
func (s StreamSet) Contains(o StreamSet) bool { return s&o == o }

// Count returns the number of streams in the set.
func (s StreamSet) Count() int { return bits.OnesCount64(uint64(s)) }

// Streams returns the member StreamIDs in ascending order.
func (s StreamSet) Streams() []StreamID {
	out := make([]StreamID, 0, s.Count())
	for s != 0 {
		id := StreamID(bits.TrailingZeros64(uint64(s)))
		out = append(out, id)
		s &^= 1 << id
	}
	return out
}

// String renders the set like "{0,2,5}".
func (s StreamSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, id := range s.Streams() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", id)
	}
	b.WriteByte('}')
	return b.String()
}

// Ref identifies one base tuple: the stream it arrived on and its
// per-stream sequence number. Refs are the unit of provenance used by
// window eviction and by Parallel Track duplicate elimination.
type Ref struct {
	Stream StreamID
	Seq    uint64
}

func (r Ref) String() string { return fmt.Sprintf("%d#%d", r.Stream, r.Seq) }

// Tuple is either a base stream tuple (one Ref) or a composite join
// result (the sorted union of its constituents' Refs). All
// constituents of an equi-join composite share the same Key.
//
// Tuples are immutable after construction; operators share pointers
// freely across states.
type Tuple struct {
	// Key is the join attribute value (the paper's "ID").
	Key Value
	// Set is the bitmask of base streams covered by this tuple.
	Set StreamSet
	// Refs holds the provenance of every constituent base tuple,
	// sorted by (Stream, Seq).
	Refs []Ref
	// Payload carries opaque non-join attributes of a base tuple.
	// Composites keep payloads reachable through their constituents
	// only, so Payload is nil for composites.
	Payload []Value
	// Arrival is the global arrival tick of the newest constituent;
	// it orders tuples across streams and marks pre- vs
	// post-transition tuples.
	Arrival uint64
	// Oldest is the global arrival tick of the oldest constituent.
	// Parallel Track uses it for O(1) duplicate elimination (a result
	// is produced by every plan instance born before its oldest
	// constituent) and for the old-plan discard check.
	Oldest uint64
}

// NewBase builds a base tuple for stream id with per-stream sequence
// seq, join key key, arriving at global tick arrival.
func NewBase(id StreamID, seq uint64, key Value, arrival uint64) *Tuple {
	return &Tuple{
		Key:     key,
		Set:     NewStreamSet(id),
		Refs:    []Ref{{Stream: id, Seq: seq}},
		Arrival: arrival,
		Oldest:  arrival,
	}
}

// Join merges two tuples with disjoint stream sets into a composite.
// It panics if the stream sets overlap, which would indicate a plan
// wiring bug rather than a data condition. Hot paths should prefer a
// Builder, which amortizes the composite's allocations through chunked
// arenas; Join remains for one-off construction.
func Join(a, b *Tuple) *Tuple {
	t := &Tuple{}
	joinInto(t, make([]Ref, len(a.Refs)+len(b.Refs)), a, b)
	return t
}

// joinInto fills out with the composite of a and b, using refs (of
// exactly len(a.Refs)+len(b.Refs)) as the provenance backing store.
// Each input's Refs are sorted by (Stream, Seq), so the union is a
// linear merge — no per-composite sort.
func joinInto(out *Tuple, refs []Ref, a, b *Tuple) {
	if a.Set.Intersects(b.Set) {
		panic(fmt.Sprintf("tuple: joining overlapping stream sets %v and %v", a.Set, b.Set))
	}
	mergeRefs(refs, a.Refs, b.Refs)
	arrival := a.Arrival
	if b.Arrival > arrival {
		arrival = b.Arrival
	}
	oldest := a.Oldest
	if b.Oldest < oldest {
		oldest = b.Oldest
	}
	*out = Tuple{
		Key:     a.Key,
		Set:     a.Set.Union(b.Set),
		Refs:    refs,
		Arrival: arrival,
		Oldest:  oldest,
	}
}

// mergeRefs merges the sorted ref slices a and b into dst, which must
// have length len(a)+len(b).
func mergeRefs(dst, a, b []Ref) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		if x.Stream < y.Stream || (x.Stream == y.Stream && x.Seq < y.Seq) {
			dst[k] = x
			i++
		} else {
			dst[k] = y
			j++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// JoinTheta merges two tuples for a theta (non-equi) join. The
// composite inherits the left key; theta-join states are scanned, not
// hashed, so the key choice only matters for diagnostics.
func JoinTheta(a, b *Tuple) *Tuple {
	t := Join(a, b)
	t.Key = a.Key
	return t
}

// Contains reports whether the tuple's provenance includes ref.
func (t *Tuple) Contains(ref Ref) bool {
	// Refs are sorted by (Stream, Seq); binary search.
	i := sort.Search(len(t.Refs), func(i int) bool {
		r := t.Refs[i]
		if r.Stream != ref.Stream {
			return r.Stream > ref.Stream
		}
		return r.Seq >= ref.Seq
	})
	return i < len(t.Refs) && t.Refs[i] == ref
}

// RefOf returns the provenance ref for stream id and whether the tuple
// covers that stream.
func (t *Tuple) RefOf(id StreamID) (Ref, bool) {
	if !t.Set.Has(id) {
		return Ref{}, false
	}
	for _, r := range t.Refs {
		if r.Stream == id {
			return r, true
		}
	}
	return Ref{}, false
}

// IsBase reports whether the tuple is a single-stream base tuple.
func (t *Tuple) IsBase() bool { return len(t.Refs) == 1 }

// Fingerprint returns a canonical string identifying the output tuple
// by its provenance. Two output tuples produced by different execution
// strategies (or different plans over the same streams) are the same
// logical result iff their fingerprints match, which is how the
// cross-strategy equivalence tests and the Parallel Track duplicate
// eliminator compare outputs.
func (t *Tuple) Fingerprint() string {
	return string(t.AppendFingerprint(make([]byte, 0, 8*len(t.Refs))))
}

// AppendFingerprint appends the fingerprint — "stream#seq" per ref,
// joined by '|' — to dst and returns the extended slice. It is the one
// encoder behind Fingerprint and the server's result lines; with spare
// capacity in dst it allocates nothing.
func (t *Tuple) AppendFingerprint(dst []byte) []byte {
	// Hot path: Parallel Track dedups every root emission through this
	// and the sim harness fingerprints every output of every engine.
	for i, r := range t.Refs {
		if i > 0 {
			dst = append(dst, '|')
		}
		dst = r.AppendText(dst)
	}
	return dst
}

// Clone returns a copy of t that shares no memory with it: how an
// output callback keeps a result the engine only lent (engine.Output).
func (t *Tuple) Clone() *Tuple {
	c := *t
	c.Refs = slices.Clone(t.Refs)
	c.Payload = slices.Clone(t.Payload)
	return &c
}

// AppendText appends the ref's fingerprint fragment, "stream#seq".
func (r Ref) AppendText(dst []byte) []byte {
	dst = AppendUint(dst, uint64(r.Stream))
	dst = append(dst, '#')
	return AppendUint(dst, r.Seq)
}

// AppendInt appends v in decimal — the join key of a result line.
func AppendInt(dst []byte, v int64) []byte {
	if v < 0 {
		return AppendUint(append(dst, '-'), -uint64(v))
	}
	return AppendUint(dst, uint64(v))
}

// AppendUint appends v in decimal — the digit writer behind every
// fingerprint and result line. The digits are counted, dst grows once
// by that count, and they are written in place from the last backwards,
// two at a time: no scratch array to fill and copy out.
func AppendUint(dst []byte, v uint64) []byte {
	if v < 10 {
		return append(dst, byte('0'+v))
	}
	// From the bit length, 1233/4096 ≈ log10(2) gives the digit count
	// or one too many; the table settles which.
	n := (bits.Len64(v)*1233)>>12 + 1
	if v < pow10[n-1] {
		n--
	}
	i := len(dst) + n
	if i > cap(dst) {
		dst = slices.Grow(dst, n)
	}
	dst = dst[:i]
	for ; v >= 100; v /= 100 {
		d := v % 100 * 2
		i -= 2
		dst[i], dst[i+1] = digitPairs[d], digitPairs[d+1]
	}
	if v >= 10 {
		dst[i-2], dst[i-1] = digitPairs[v*2], digitPairs[v*2+1]
	} else {
		dst[i-1] = byte('0' + v)
	}
	return dst
}

// pow10[k] is 10^k.
var pow10 = [20]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// digitPairs holds "00" … "99" back to back.
const digitPairs = "0001020304050607080910111213141516171819" +
	"2021222324252627282930313233343536373839" +
	"4041424344454647484950515253545556575859" +
	"6061626364656667686970717273747576777879" +
	"8081828384858687888990919293949596979899"

func (t *Tuple) String() string {
	return fmt.Sprintf("Tuple(key=%d set=%v refs=%s)", t.Key, t.Set, t.Fingerprint())
}
