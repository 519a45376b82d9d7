package tuple

import "sync"

// Chunk sizes for the Builder arenas. Tuples and seqs are carved from
// these blocks; one chunk amortizes one heap allocation over many
// copies.
const (
	tupleChunkLen = 256
	seqChunkLen   = 1024
)

// Builder constructs tuples out of chunked slice-backed arenas: each
// Tuple struct and its Seqs backing array is carved from a shared
// block, so steady-state construction costs ~2 allocations per chunk
// instead of 2 per tuple. Tuples built this way (Copy) are ordinary
// immutable *Tuple values handed out for keeping, such as a storing
// root's results; join states keep no tuples, only rows (Rows).
//
// A Builder is not safe for concurrent use; each engine owns one.
// Builders are pooled: Acquire one per run, Release it when the run is
// done. Release never recycles memory that was handed out — only the
// unused tail of the current chunks travels back through the pool — so
// released tuples remain valid forever. The one exception is the
// composite JoinTransient lends, which is never handed out for keeping.
type Builder struct {
	tuples []Tuple
	seqs   []uint64
	// lent is JoinTransient's one composite, outside the arenas.
	lent     Tuple
	lentSeqs []uint64
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

// allocSeqs carves an n-seq backing array from the seq chunk, with
// capacity clamped so appends by a caller could never clobber a
// neighbor (Tuples are immutable; the clamp is defense in depth).
func (b *Builder) allocSeqs(n int) []uint64 {
	if cap(b.seqs)-len(b.seqs) < n {
		b.seqs = make([]uint64, 0, max(seqChunkLen, n))
	}
	start := len(b.seqs)
	b.seqs = b.seqs[:start+n]
	return b.seqs[start : start+n : start+n]
}

// Copy returns a copy of t out of the arena, sharing no memory with t:
// how a root that stores its output as rows hands a result out for
// keeping.
func (b *Builder) Copy(t *Tuple) *Tuple {
	c := b.alloc()
	*c = *t
	c.Seqs = b.allocSeqs(len(t.Seqs))
	copy(c.Seqs, t.Seqs)
	return c
}

// JoinTransient is Join into the builder's one reusable composite,
// overwritten by the next call: for a composite that is only forwarded
// — read by a callback and dropped — at no arena cost. Whoever needs it
// longer takes a Clone.
func (b *Builder) JoinTransient(x, y *Tuple) *Tuple {
	n := len(x.Seqs) + len(y.Seqs)
	if cap(b.lentSeqs) < n {
		b.lentSeqs = make([]uint64, n)
	}
	joinInto(&b.lent, b.lentSeqs[:n], x, y)
	return &b.lent
}
