package tuple

// Builder holds one reusable composite: JoinTransient's, overwritten by
// each call. It is how a result is lent rather than given — read by a
// callback and dropped, at no heap cost (engine.Output). Join states
// keep no tuples, only rows (Rows), so nothing else is built.
//
// The zero Builder is ready to use. It is not safe for concurrent use.
type Builder struct {
	lent     Tuple
	lentSeqs []uint64
}

// JoinTransient is Join into the builder's one reusable composite,
// overwritten by the next call: for a composite that is only forwarded
// — read by a callback and dropped. Whoever needs it longer takes a
// Clone. With y a view of OneRow's row it is a copy of x.
func (b *Builder) JoinTransient(x, y *Tuple) *Tuple {
	n := len(x.Seqs) + len(y.Seqs)
	if cap(b.lentSeqs) < n {
		b.lentSeqs = make([]uint64, n)
	}
	joinInto(&b.lent, b.lentSeqs[:n], x, y)
	return &b.lent
}
