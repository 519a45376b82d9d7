// Package tuple defines the data model shared by every operator in the
// repository: base stream tuples, composite join tuples, stream
// identifiers, and the stream-set bitmask that identifies join states.
//
// The paper's execution model (JISC, EDBT 2014, §2.1) uses symmetric
// hash joins on a single join attribute; a tuple therefore carries one
// Key used for hashing/probing. Every tuple carries its provenance, one
// sequence number per covered stream, so that sliding-window eviction
// can locate and remove every intermediate result containing an expired
// base tuple.
package tuple

import (
	"fmt"
	"math/bits"
	"slices"
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

// Tuple is either a base stream tuple (one stream) or a composite join
// result. All constituents of an equi-join composite share the same
// Key. A tuple covers each stream of Set once, so its provenance is one
// sequence number per member stream: Seqs, in stream order, and the
// refs follow from the two. That is a join state's row (Rows) read in
// place, so a stored tuple is lent as a view of its row, at no copy.
type Tuple struct {
	// Key is the join attribute value (the paper's "ID").
	Key Value
	// Set is the bitmask of base streams covered by this tuple.
	Set StreamSet
	// Seqs holds the sequence number of the constituent from each
	// stream of Set, in ascending stream order.
	Seqs []uint64
	// Arrival is the global arrival tick of the newest constituent;
	// it orders tuples across streams and marks pre- vs
	// post-transition tuples.
	Arrival uint64
}

// NewBase builds a base tuple for stream id with per-stream sequence
// seq, join key key, arriving at global tick arrival.
func NewBase(id StreamID, seq uint64, key Value, arrival uint64) *Tuple {
	return &Tuple{Key: key, Set: NewStreamSet(id), Seqs: []uint64{seq}, Arrival: arrival}
}

// Join merges two tuples with disjoint stream sets into a composite.
// It panics if the stream sets overlap, which would indicate a plan
// wiring bug rather than a data condition. Stored composites are built
// straight into a join state's rows (AppendJoinRow) and a forwarded one
// into a Builder's transient composite; Join builds a free-standing one.
func Join(a, b *Tuple) *Tuple {
	t := &Tuple{}
	joinInto(t, make([]uint64, len(a.Seqs)+len(b.Seqs)), a, b)
	return t
}

// joinInto fills out with the composite of a and b, using seqs (of
// exactly len(a.Seqs)+len(b.Seqs)) as the provenance backing store.
func joinInto(out *Tuple, seqs []uint64, a, b *Tuple) {
	mergeSeqs(seqs, a, b)
	*out = Tuple{Key: a.Key, Set: a.Set | b.Set, Seqs: seqs, Arrival: max(a.Arrival, b.Arrival)}
}

// mergeSeqs merges the provenance of a and b, whose stream sets must be
// disjoint, into dst (of length len(a.Seqs)+len(b.Seqs)) in stream
// order: each seq is taken from the side whose next stream is lower.
func mergeSeqs(dst []uint64, a, b *Tuple) {
	if a.Set.Intersects(b.Set) {
		panic(fmt.Sprintf("tuple: joining overlapping stream sets %v and %v", a.Set, b.Set))
	}
	sa, sb := a.Set, b.Set
	i, j := 0, 0
	for k := range dst {
		if sb == 0 || (sa != 0 && sa&-sa < sb&-sb) {
			dst[k] = a.Seqs[i]
			i, sa = i+1, sa&(sa-1)
		} else {
			dst[k] = b.Seqs[j]
			j, sb = j+1, sb&(sb-1)
		}
	}
}

// Rank returns the position of stream id's seq in the Seqs of a tuple
// covering s: the number of member streams below id.
func (s StreamSet) Rank(id StreamID) int { return bits.OnesCount64(uint64(s) & (1<<id - 1)) }

// Contains reports whether the tuple's provenance includes ref.
func (t *Tuple) Contains(ref Ref) bool {
	return t.Set.Has(ref.Stream) && t.Seqs[t.Set.Rank(ref.Stream)] == ref.Seq
}

// First returns the ref of the lowest stream the tuple covers — a base
// tuple's only one.
func (t *Tuple) First() Ref {
	return Ref{Stream: StreamID(bits.TrailingZeros64(uint64(t.Set))), Seq: t.Seqs[0]}
}

// Fingerprint returns a canonical string identifying the output tuple
// by its provenance. Two output tuples produced by different execution
// strategies (or different plans over the same streams) are the same
// logical result iff their fingerprints match, which is how the
// cross-strategy equivalence tests and the Parallel Track duplicate
// eliminator compare outputs.
func (t *Tuple) Fingerprint() string {
	return string(t.AppendFingerprint(make([]byte, 0, 8*len(t.Seqs))))
}

// AppendFingerprint appends the fingerprint — "stream#seq" per ref,
// joined by '|' — to dst and returns the extended slice. It is the one
// encoder behind Fingerprint and the server's result lines; with spare
// capacity in dst it allocates nothing.
func (t *Tuple) AppendFingerprint(dst []byte) []byte {
	// Hot path: Parallel Track dedups every root emission through this
	// and the sim harness fingerprints every output of every engine.
	s := t.Set
	for i, seq := range t.Seqs {
		if i > 0 {
			dst = append(dst, '|')
		}
		dst = Ref{Stream: StreamID(bits.TrailingZeros64(uint64(s))), Seq: seq}.AppendText(dst)
		s &= s - 1
	}
	return dst
}

// Clone returns a copy of t that shares no memory with it: how an
// output callback keeps a result the engine only lent (engine.Output).
func (t *Tuple) Clone() *Tuple {
	c := *t
	c.Seqs = slices.Clone(t.Seqs)
	return &c
}

// Rows is a run of fixed-width rows, the tuples a join state holds
// under one key: each row is arrival, then one seq per stream of Set in
// stream order (RowWidth words), and Key and Set are the run's, not the
// row's. A row is what Tuple carries beyond Key and Set, so View reads
// one in place.
type Rows struct {
	Key  Value
	Set  StreamSet
	Data []uint64
}

// OneRow is a run of one row over no streams: the composite of a tuple
// with its only row is the tuple itself. A root that stores its results
// hands each one on as that tuple with OneRow (engine.Sink). It is
// never written.
var OneRow = Rows{Data: make([]uint64, RowWidth(0))}

// RowSeqs is the word of a row its seqs start at, after its arrival.
const RowSeqs = 1

// RowWidth is the number of words in one row of a run covering s.
func RowWidth(s StreamSet) int { return RowSeqs + s.Count() }

// Len returns the number of rows.
func (r Rows) Len() int { return len(r.Data) / RowWidth(r.Set) }

// View fills v with row i of r, its Seqs a slice of the run, and
// returns v. The view is as long-lived as the run it reads.
func (r Rows) View(i int, v *Tuple) *Tuple {
	w := RowWidth(r.Set)
	row := r.Data[i*w : i*w+w : i*w+w]
	*v = Tuple{Key: r.Key, Set: r.Set, Seqs: row[RowSeqs:], Arrival: row[0]}
	return v
}

// AppendRow appends t's row to run.
func AppendRow(run []uint64, t *Tuple) []uint64 {
	run = append(run, t.Arrival)
	return append(run, t.Seqs...)
}

// AppendJoinRow appends the row of the composite of a and b — Join's,
// with no Tuple built — to run. It panics as Join does on overlapping
// stream sets.
func AppendJoinRow(run []uint64, a, b *Tuple) []uint64 {
	n := len(run)
	run = slices.Grow(run, RowSeqs+len(a.Seqs)+len(b.Seqs))[:n+RowSeqs+len(a.Seqs)+len(b.Seqs)]
	run[n] = max(a.Arrival, b.Arrival)
	mergeSeqs(run[n+RowSeqs:], a, b)
	return run
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
