package tuple

import "sync"

// Chunk sizes for the Builder arenas. Tuples and refs are carved from
// these blocks; one chunk amortizes one heap allocation over many
// composites.
const (
	tupleChunkLen = 256
	refChunkLen   = 1024
)

// Builder constructs tuples out of chunked slice-backed arenas: each
// Tuple struct and its Refs backing array is carved from a shared
// block, so steady-state construction costs ~2 allocations per chunk
// instead of 2 per tuple. Tuples built this way are ordinary immutable
// *Tuple values — they escape into operator states and live as long as
// any state references them (which pins their chunk; acceptable for
// window-bounded states, where chunk-mates expire together).
//
// A Builder is not safe for concurrent use; each engine owns one.
// Builders are pooled: Acquire one per run, Release it when the run is
// done. Release never recycles memory that was handed out — only the
// unused tail of the current chunks travels back through the pool — so
// released tuples remain valid forever. The one exception is the
// composite JoinTransient lends, which is never handed out for keeping.
type Builder struct {
	tuples []Tuple
	refs   []Ref
	// lent is JoinTransient's one composite, outside the arenas.
	lent     Tuple
	lentRefs []Ref
}

var builderPool = sync.Pool{New: func() any { return new(Builder) }}

// AcquireBuilder returns a pooled Builder.
func AcquireBuilder() *Builder { return builderPool.Get().(*Builder) }

// Release returns the builder to the pool. The builder must not be
// used afterwards; tuples it produced stay valid.
func (b *Builder) Release() { builderPool.Put(b) }

// alloc carves one Tuple struct from the tuple chunk. The chunk is
// only ever extended in place up to its capacity and then abandoned
// for a fresh one, so previously returned pointers are never moved.
func (b *Builder) alloc() *Tuple {
	if len(b.tuples) == cap(b.tuples) {
		b.tuples = make([]Tuple, 0, tupleChunkLen)
	}
	b.tuples = b.tuples[:len(b.tuples)+1]
	return &b.tuples[len(b.tuples)-1]
}

// allocRefs carves an n-ref backing array from the ref chunk, with
// capacity clamped so appends by a caller could never clobber a
// neighbor (Tuples are immutable; the clamp is defense in depth).
func (b *Builder) allocRefs(n int) []Ref {
	if cap(b.refs)-len(b.refs) < n {
		size := refChunkLen
		if n > size {
			size = n
		}
		b.refs = make([]Ref, 0, size)
	}
	start := len(b.refs)
	b.refs = b.refs[:start+n]
	return b.refs[start : start+n : start+n]
}

// Base builds a base tuple for stream id with per-stream sequence seq,
// join key key, arriving at global tick arrival — NewBase out of the
// arena.
func (b *Builder) Base(id StreamID, seq uint64, key Value, arrival uint64) *Tuple {
	t := b.alloc()
	refs := b.allocRefs(1)
	refs[0] = Ref{Stream: id, Seq: seq}
	*t = Tuple{
		Key:     key,
		Set:     NewStreamSet(id),
		Refs:    refs,
		Arrival: arrival,
		Oldest:  arrival,
	}
	return t
}

// Join merges two tuples with disjoint stream sets into a composite
// allocated from the arena. Semantics match the package-level Join.
func (b *Builder) Join(x, y *Tuple) *Tuple {
	t := b.alloc()
	joinInto(t, b.allocRefs(len(x.Refs)+len(y.Refs)), x, y)
	return t
}

// JoinTransient is Join into the builder's one reusable composite,
// overwritten by the next call: for a composite that is only forwarded
// — read by a callback and dropped — at no arena cost. Whoever needs it
// longer takes a Clone.
func (b *Builder) JoinTransient(x, y *Tuple) *Tuple {
	n := len(x.Refs) + len(y.Refs)
	if cap(b.lentRefs) < n {
		b.lentRefs = make([]Ref, n)
	}
	joinInto(&b.lent, b.lentRefs[:n], x, y)
	return &b.lent
}

// JoinTheta merges two tuples for a theta (non-equi) join; the
// composite inherits the left key, as in the package-level JoinTheta.
func (b *Builder) JoinTheta(x, y *Tuple) *Tuple {
	t := b.Join(x, y)
	t.Key = x.Key
	return t
}
