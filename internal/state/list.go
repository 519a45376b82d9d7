package state

import (
	"jisc/internal/statestore"
	"jisc/internal/tuple"
)

// List is the state of a nested-loops join input: an insertion-ordered
// collection scanned in full on every probe. It backs general theta
// joins (§2.1: "we use a nested-loops join for general theta joins"),
// where no hash key is applicable.
type List struct {
	// Set identifies which base streams the stored tuples cover.
	Set tuple.StreamSet

	tuples   []*tuple.Tuple
	complete bool

	// bytes is the estimated heap footprint (TupleBytes summed) of the
	// stored tuples. Lists never spill — a nested-loops state is
	// scanned in full on every probe, so there is no cold bucket to
	// tier out — but their footprint still counts against the store's
	// budget so table spilling compensates for list growth.
	bytes int64
	store *statestore.Store

	// attempted suppresses repeated completion work per probing base
	// ref (the nested-loops analogue of Definition 2, where tuples
	// cannot be classified by join-attribute value).
	attempted map[tuple.Ref]struct{}

	// removed is the reusable result buffer of RemoveRef.
	removed []*tuple.Tuple
}

// NewList returns an empty, complete list state covering set.
func NewList(set tuple.StreamSet) *List {
	return &List{Set: set, complete: true}
}

// Complete reports whether the state is complete per Definition 1.
func (l *List) Complete() bool { return l.complete }

// MarkIncomplete flags the list incomplete after a plan transition.
func (l *List) MarkIncomplete() {
	l.complete = false
	l.attempted = make(map[tuple.Ref]struct{})
}

// MarkComplete declares the state complete.
func (l *List) MarkComplete() {
	l.complete = true
	l.attempted = nil
}

// Attempted reports whether completion was already attempted for the
// probing base tuple identified by ref.
func (l *List) Attempted(ref tuple.Ref) bool {
	if l.complete {
		return true
	}
	_, ok := l.attempted[ref]
	return ok
}

// MarkAttempted records a completion attempt for ref.
func (l *List) MarkAttempted(ref tuple.Ref) {
	if !l.complete {
		l.attempted[ref] = struct{}{}
	}
}

// SetStore attaches the spill store to the list, which must still be
// empty, for byte accounting only.
func (l *List) SetStore(s *statestore.Store) { l.store = s }

// Release detaches the store, dropping the list's byte accounting from
// it. The list must not be used afterwards.
func (l *List) Release() {
	if l.store == nil {
		return
	}
	l.store.Account(-l.bytes)
	l.store = nil
}

func (l *List) account(delta int64) {
	l.bytes += delta
	if l.store != nil {
		l.store.Account(delta)
	}
}

// Bytes returns the estimated heap footprint of the stored tuples.
func (l *List) Bytes() int64 { return l.bytes }

// Insert appends tup.
func (l *List) Insert(tup *tuple.Tuple) {
	l.tuples = append(l.tuples, tup)
	l.account(TupleBytes(tup))
	if l.store != nil {
		l.store.MaybeSpill()
	}
}

// Each calls fn for every stored tuple until fn returns false.
func (l *List) Each(fn func(*tuple.Tuple) bool) {
	for _, tup := range l.tuples {
		if !fn(tup) {
			return
		}
	}
}

// RemoveRef removes every tuple whose provenance contains ref,
// returning the removed tuples, compacting in place. The returned
// slice is owned by the list and valid only until the next RemoveRef
// call on it.
func (l *List) RemoveRef(ref tuple.Ref) []*tuple.Tuple {
	l.removed = l.removed[:0]
	kept := l.tuples[:0]
	for _, tup := range l.tuples {
		if tup.Contains(ref) {
			l.removed = append(l.removed, tup)
		} else {
			kept = append(kept, tup)
		}
	}
	for i := len(kept); i < len(l.tuples); i++ {
		l.tuples[i] = nil
	}
	l.tuples = kept
	var b int64
	for _, tup := range l.removed {
		b += TupleBytes(tup)
	}
	l.account(-b)
	return l.removed
}

// Size returns the number of stored tuples.
func (l *List) Size() int { return len(l.tuples) }

// AttemptedRefs returns the probing refs attempted since the last
// transition (empty for complete lists). Used by checkpointing.
func (l *List) AttemptedRefs() []tuple.Ref {
	out := make([]tuple.Ref, 0, len(l.attempted))
	for r := range l.attempted {
		out = append(out, r)
	}
	return out
}

// RestoreMeta reinstates completeness bookkeeping from a checkpoint.
func (l *List) RestoreMeta(complete bool, attempted []tuple.Ref) {
	if complete {
		l.MarkComplete()
		return
	}
	l.MarkIncomplete()
	for _, r := range attempted {
		l.attempted[r] = struct{}{}
	}
}

// Clear removes all tuples but keeps completeness metadata.
func (l *List) Clear() {
	l.account(-l.bytes)
	l.tuples = nil
}
