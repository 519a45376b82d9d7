// Package state implements the join-state storage used by every
// operator: a hash multimap from join-attribute value to tuples
// (symmetric hash join), and an ordered list (nested-loops join for
// general theta joins). Tables carry the completeness metadata that
// JISC layers on top of ordinary states: the complete/incomplete flag
// of Definition 1, the per-key attempted set of Definition 2, and the
// completion-detection counter of §4.3.
//
// Every state maintains byte accounting (TupleBytes summed over its
// resident tuples), and a Table can attach an internal/statestore
// Store that spills cold buckets out of the heap and faults them back
// on demand — just-in-time residency, the storage-level analogue of
// the paper's just-in-time completion. Spilling changes residency,
// never contents: the table keeps each spilled key's statestore.Part,
// the one record of it, so Size, ContainsKey, DistinctKeys and Keys
// stay exact without I/O.
package state

import (
	"fmt"
	"math/bits"

	"jisc/internal/statestore"
	"jisc/internal/tuple"
)

// TupleBytes estimates the resident heap footprint of one tuple: the
// struct itself (56 bytes, a 64-byte allocation) plus its provenance
// refs' backing array. The estimate is deliberately simple and
// deterministic — it is the unit of the spill budget, compared against
// itself, not against the allocator.
func TupleBytes(t *tuple.Tuple) int64 {
	return 64 + 16*int64(len(t.Refs))
}

// Table is a hash multimap from join key to the tuples carrying that
// key. It is the state of one operator in a pipelined plan: for a scan
// it holds the stream's window contents, for a join it holds the join
// results produced (or completed) so far.
//
// A Table is not safe for concurrent use; the engine serializes access
// and the concurrent pipeline confines each table to one goroutine.
type Table struct {
	// Set identifies which base streams the stored tuples cover.
	Set tuple.StreamSet

	buckets map[tuple.Value][]*tuple.Tuple
	// size counts the logical contents — resident plus spilled tuples.
	// Spilling changes residency, never size.
	size int

	// bytes is the estimated heap footprint (TupleBytes summed) of the
	// resident tuples only; spilled parts are accounted by the store.
	bytes int64

	// store, when non-nil, governs residency: cold buckets move out of
	// buckets into the store's segments (their parts held in spilled)
	// and fault back in on access. Nil keeps everything resident.
	store *statestore.Store
	// tombstone selects the scan-table eviction mode: window eviction
	// of a spilled ref is recorded as a store tombstone instead of
	// faulting the bucket in. Only sound for single-stream states,
	// whose tuples are uniform base tuples with exactly one ref.
	tombstone bool
	// spilled maps each key with a spilled part to that part, the only
	// index of spilled parts. A key may also have a resident part in
	// buckets: the tuples inserted since it spilled, all newer than the
	// spilled ones.
	spilled map[tuple.Value]*statestore.Part
	// hot holds the CLOCK reference bits: touched resident buckets,
	// checked-and-cleared by the store's hand via ClockTouched.
	hot map[tuple.Value]struct{}

	// complete is Definition 1's flag. Scan states are always
	// complete; join states become incomplete at a plan transition
	// when their stream set did not exist (complete) in the old plan.
	complete bool

	// attempted records the join-attribute values whose entries have
	// been computed (or found absent) since the last transition, so a
	// second tuple with the same value performs no repeated work
	// (Definition 2 / §4.4). Nil while the table is complete.
	attempted map[tuple.Value]struct{}

	// remaining implements the §4.3 completion counter: the distinct
	// keys of the designated (smaller complete) child side that have
	// not yet been completed here. When it drains, the state is
	// declared complete. Nil when the counter is not applicable
	// (Case 3: both children incomplete).
	remaining map[tuple.Value]struct{}

	// counterArmed distinguishes "no counter" (Case 3) from "counter
	// drained".
	counterArmed bool

	// free holds the backing arrays of emptied buckets for reuse by
	// Insert. Under a sliding window, keys continually drain and
	// reappear; recycling the arrays keeps steady-state insertion
	// allocation-free instead of growing a fresh slice per reborn key.
	free [][]*tuple.Tuple

	// removed is the reusable result buffer of RemoveRef, so eviction
	// does not allocate a fresh removed slice per generation.
	removed []*tuple.Tuple
}

// maxFreeBuckets bounds the bucket-array free list so a transient
// burst of distinct keys cannot pin memory forever.
const maxFreeBuckets = 64

// NewTable returns an empty, complete table covering set.
func NewTable(set tuple.StreamSet) *Table {
	return &Table{
		Set:      set,
		buckets:  make(map[tuple.Value][]*tuple.Tuple),
		complete: true,
	}
}

// SetStore attaches the spill store to the table, which must still be
// empty; tombstones selects the scan-table eviction mode (see the
// tombstone field).
func (t *Table) SetStore(s *statestore.Store, tombstones bool) {
	t.store = s
	t.tombstone = tombstones
	t.spilled = make(map[tuple.Value]*statestore.Part)
	t.hot = make(map[tuple.Value]struct{})
}

// Release detaches the store, freeing every spilled part and dropping
// the table's byte accounting from it. Called when the engine discards
// a dead state; the table must not be used afterwards.
func (t *Table) Release() {
	if t.store == nil {
		return
	}
	t.dropSpilled()
	t.store.Account(-t.bytes)
	t.store = nil
	t.spilled = nil
	t.hot = nil
}

// dropSpilled frees every spilled part, uncounting its tuples, and
// purges the table from the store's CLOCK ring.
func (t *Table) dropSpilled() {
	for _, p := range t.spilled {
		t.size -= p.Count()
		t.store.Free(p)
	}
	t.store.Drop(t)
}

// account adjusts the resident byte estimate, mirroring the delta to
// the store when one is attached.
func (t *Table) account(delta int64) {
	t.bytes += delta
	if t.store != nil {
		t.store.Account(delta)
	}
}

// Bytes returns the estimated heap footprint of the resident tuples.
func (t *Table) Bytes() int64 { return t.bytes }

// Complete reports whether the state is complete per Definition 1.
func (t *Table) Complete() bool { return t.complete }

// MarkIncomplete flags the table incomplete after a plan transition
// and resets the per-transition attempted set.
func (t *Table) MarkIncomplete() {
	t.complete = false
	t.attempted = make(map[tuple.Value]struct{})
	t.remaining = nil
	t.counterArmed = false
}

// MarkComplete declares the state complete and drops transition-time
// bookkeeping.
func (t *Table) MarkComplete() {
	t.complete = true
	t.attempted = nil
	t.remaining = nil
	t.counterArmed = false
}

// ArmCounter initializes the §4.3 completion counter with the distinct
// keys of the designated complete child side (Case 1: the smaller of
// the two complete children; Case 2: the single complete child).
func (t *Table) ArmCounter(keys []tuple.Value) {
	t.remaining = make(map[tuple.Value]struct{}, len(keys))
	for _, k := range keys {
		t.remaining[k] = struct{}{}
	}
	t.counterArmed = true
}

// CounterArmed reports whether a completion counter is active
// (Cases 1 and 2 of §4.3). Without a counter (Case 3) completion is
// detected via child notifications instead.
func (t *Table) CounterArmed() bool { return t.counterArmed }

// Counter returns the current counter value (distinct keys still to
// complete). Zero when unarmed.
func (t *Table) Counter() int { return len(t.remaining) }

// Attempted reports whether entries for key were already computed (or
// determined absent) since the last transition.
func (t *Table) Attempted(key tuple.Value) bool {
	if t.complete {
		return true
	}
	_, ok := t.attempted[key]
	return ok
}

// MarkAttempted records that entries for key are now as complete as
// they will get, decrements the completion counter if key was pending,
// and reports whether the counter just drained to zero (meaning the
// caller should declare the state complete and notify its parent).
func (t *Table) MarkAttempted(key tuple.Value) (drained bool) {
	if t.complete {
		return false
	}
	t.attempted[key] = struct{}{}
	if t.counterArmed {
		if _, ok := t.remaining[key]; ok {
			delete(t.remaining, key)
			if len(t.remaining) == 0 {
				return true
			}
		}
	}
	return false
}

// DropPending removes key from the completion counter without marking
// it attempted — used when a window slide evicts the last tuple with
// that key from the designated child side, so its entries will never
// be needed (§4.3: "the counter is decremented accordingly").
func (t *Table) DropPending(key tuple.Value) (drained bool) {
	if t.complete || !t.counterArmed {
		return false
	}
	if _, ok := t.remaining[key]; ok {
		delete(t.remaining, key)
		return len(t.remaining) == 0
	}
	return false
}

// Insert stores tup under its key. New buckets reuse backing arrays
// recycled from previously emptied ones. Insert never faults: under a
// spilled key it starts (or extends) a resident part beside the spilled
// one, and the next Probe merges the two.
func (t *Table) Insert(tup *tuple.Tuple) {
	bucket, ok := t.buckets[tup.Key]
	if !ok && len(t.free) > 0 {
		bucket = t.free[len(t.free)-1]
		t.free = t.free[:len(t.free)-1]
	}
	t.buckets[tup.Key] = append(bucket, tup)
	t.size++
	t.account(TupleBytes(tup))
	if t.store != nil {
		if t.store.Pressured() {
			t.hot[tup.Key] = struct{}{}
		}
		if !ok {
			t.store.Admit(t, tup.Key)
		}
		t.store.MaybeSpill()
	}
}

// Probe returns the tuples stored under key, faulting the bucket back
// in when it is spilled. The returned slice is owned by the table;
// callers must not mutate it. It remains valid even if the bucket is
// spilled again before the caller is done with it.
func (t *Table) Probe(key tuple.Value) []*tuple.Tuple {
	bucket := t.buckets[key]
	if t.store == nil {
		return bucket
	}
	if p, sp := t.spilled[key]; sp {
		bucket = t.fault(key, p)
		t.store.MaybeSpill()
		return bucket
	}
	if bucket != nil && t.store.Pressured() {
		t.hot[key] = struct{}{}
	}
	return bucket
}

// fault brings key's spilled part p back into residency, in front of
// any resident part so the bucket stays in arrival order, and returns
// the whole bucket. It deliberately does not trigger MaybeSpill —
// callers do, after they have captured the returned slice — so the
// just-faulted bucket cannot be detached mid-operation.
func (t *Table) fault(key tuple.Value, p *statestore.Part) []*tuple.Tuple {
	tuples := t.store.Fault(p)
	delete(t.spilled, key)
	var b int64
	for _, tup := range tuples {
		b += TupleBytes(tup)
	}
	// The faulted slice is fresh; the old resident array is left to the
	// collector rather than recycled, since Probe callers may hold it.
	resident, ok := t.buckets[key]
	bucket := append(tuples, resident...)
	t.buckets[key] = bucket
	t.hot[key] = struct{}{}
	t.account(b)
	if !ok {
		t.store.Admit(t, key)
	}
	return bucket
}

// ContainsKey reports whether any tuple is stored under key, resident
// or spilled. It never faults.
func (t *Table) ContainsKey(key tuple.Value) bool {
	if len(t.buckets[key]) > 0 {
		return true
	}
	_, sp := t.spilled[key]
	return sp
}

// RemoveRef removes every tuple under key whose provenance contains
// ref, returning the removed tuples (needed to propagate eviction
// upward). The bucket is compacted in place; an emptied bucket's
// backing array is recycled for later Inserts.
//
// The tuples of one bucket all cover the same stream set (a join
// state's composites cover the table's Set, a set-difference state's
// passing tuples the outer stream alone) and Refs holds one ref per
// covered stream in stream order, so ref can only sit at one index —
// the number of covered streams below ref.Stream — and membership is
// one Seq compare per tuple, not a search.
//
// On a tombstone-mode table (scan states) a spilled part is not
// faulted: windows expire in arrival order, so a ref no newer than the
// spilled part's newest is in it and is recorded as a store
// tombstone, returning nil — base tuples have no derived results below
// them, so the caller needs no removed set — and a newer ref can only
// be in the resident part. Other tables fault the spilled part in
// first so the exact removed tuples can be reported.
//
// The returned slice is owned by the table and valid only until the
// next RemoveRef call on it; callers needing the tuples longer must
// copy them out.
func (t *Table) RemoveRef(key tuple.Value, ref tuple.Ref) []*tuple.Tuple {
	if t.store != nil {
		if p, sp := t.spilled[key]; sp {
			if !t.tombstone {
				t.fault(key, p)
				defer t.store.MaybeSpill()
			} else if ref.Seq <= p.Newest() {
				if t.store.Tombstone(p, ref.Seq) {
					delete(t.spilled, key)
				}
				t.size--
				return nil
			}
		}
	}
	bucket := t.buckets[key]
	if len(bucket) == 0 {
		return nil
	}
	set := bucket[0].Set
	if !set.Has(ref.Stream) {
		return nil
	}
	slot := bits.OnesCount64(uint64(set) & (1<<ref.Stream - 1))
	t.removed = t.removed[:0]
	kept := bucket[:0]
	for _, tup := range bucket {
		if tup.Refs[slot].Seq == ref.Seq {
			t.removed = append(t.removed, tup)
		} else {
			kept = append(kept, tup)
		}
	}
	if len(t.removed) == 0 {
		return nil
	}
	t.size -= len(t.removed)
	var b int64
	for _, tup := range t.removed {
		b += TupleBytes(tup)
	}
	t.account(-b)
	// Zero the tail so removed tuples are not retained by the backing
	// array.
	for i := len(kept); i < len(bucket); i++ {
		bucket[i] = nil
	}
	if len(kept) == 0 {
		delete(t.buckets, key)
		if t.store != nil {
			delete(t.hot, key)
		}
		if len(t.free) < maxFreeBuckets && cap(bucket) > 0 {
			t.free = append(t.free, kept)
		}
	} else {
		t.buckets[key] = kept
	}
	return t.removed
}

// RemoveKey removes and returns every tuple stored under key —
// set-difference suppression and requalification move whole key
// buckets between the passing and suppressed tables. A spilled bucket
// is faulted in first.
func (t *Table) RemoveKey(key tuple.Value) []*tuple.Tuple {
	if t.store != nil {
		if p, sp := t.spilled[key]; sp {
			t.fault(key, p)
			defer t.store.MaybeSpill()
		}
	}
	bucket, ok := t.buckets[key]
	if !ok {
		return nil
	}
	delete(t.buckets, key)
	if t.store != nil {
		delete(t.hot, key)
	}
	t.size -= len(bucket)
	var b int64
	for _, tup := range bucket {
		b += TupleBytes(tup)
	}
	t.account(-b)
	return bucket
}

// Size returns the number of stored tuples, resident plus spilled.
func (t *Table) Size() int { return t.size }

// DistinctKeys returns the number of distinct join-attribute values
// present — the quantity the §4.3 counter is initialized from.
// A key with both a resident and a spilled part counts once.
func (t *Table) DistinctKeys() int {
	n := len(t.buckets) + len(t.spilled)
	for k := range t.spilled {
		if _, ok := t.buckets[k]; ok {
			n--
		}
	}
	return n
}

// Keys returns the distinct join-attribute values present, resident or
// spilled, each once. Order is unspecified.
func (t *Table) Keys() []tuple.Value {
	out := make([]tuple.Value, 0, len(t.buckets)+len(t.spilled))
	for k := range t.buckets {
		out = append(out, k)
	}
	for k := range t.spilled {
		if _, ok := t.buckets[k]; !ok {
			out = append(out, k)
		}
	}
	return out
}

// AttemptedKeys returns the keys attempted since the last transition
// (empty for complete tables). Order is unspecified. Used by
// checkpointing.
func (t *Table) AttemptedKeys() []tuple.Value {
	out := make([]tuple.Value, 0, len(t.attempted))
	for k := range t.attempted {
		out = append(out, k)
	}
	return out
}

// PendingKeys returns the completion counter's remaining keys and
// whether a counter is armed. Used by checkpointing.
func (t *Table) PendingKeys() ([]tuple.Value, bool) {
	if !t.counterArmed {
		return nil, false
	}
	out := make([]tuple.Value, 0, len(t.remaining))
	for k := range t.remaining {
		out = append(out, k)
	}
	return out, true
}

// RestoreMeta reinstates completeness bookkeeping from a checkpoint:
// the incomplete flag, the attempted-key set, and (optionally) the
// armed counter's pending keys.
func (t *Table) RestoreMeta(complete bool, attempted []tuple.Value, pending []tuple.Value, counterArmed bool) {
	if complete {
		t.MarkComplete()
		return
	}
	t.MarkIncomplete()
	for _, k := range attempted {
		t.attempted[k] = struct{}{}
	}
	if counterArmed {
		t.ArmCounter(pending)
	}
}

// Each calls fn for every stored tuple until fn returns false.
// Spilled parts are read through the store without admitting them,
// so iteration (checkpointing, discard scans) does not perturb
// residency. A key's spilled part is visited before its resident part:
// a checkpoint restored in iteration order rebuilds every bucket in
// arrival order.
func (t *Table) Each(fn func(*tuple.Tuple) bool) {
	for key, p := range t.spilled {
		if !t.store.Peek(p, fn) {
			return
		}
		for _, tup := range t.buckets[key] {
			if !fn(tup) {
				return
			}
		}
	}
	for key, bucket := range t.buckets {
		if _, sp := t.spilled[key]; sp {
			continue
		}
		for _, tup := range bucket {
			if !fn(tup) {
				return
			}
		}
	}
}

// Clear removes all tuples but keeps completeness metadata. The
// recycled-array pools are dropped too, releasing the memory, and any
// spilled parts are freed in the store.
func (t *Table) Clear() {
	if t.store != nil {
		t.dropSpilled()
		t.spilled = make(map[tuple.Value]*statestore.Part)
		t.hot = make(map[tuple.Value]struct{})
	}
	t.account(-t.bytes)
	t.buckets = make(map[tuple.Value][]*tuple.Tuple)
	t.size = 0
	t.free = nil
	t.removed = nil
}

// CountOld returns how many stored tuples contain at least one
// constituent that arrived at or before cutoff. Parallel Track's
// periodic discard check (§3.3) scans states with this.
func (t *Table) CountOld(cutoff uint64, oldest func(*tuple.Tuple) uint64) int {
	n := 0
	for _, bucket := range t.buckets {
		for _, tup := range bucket {
			if oldest(tup) <= cutoff {
				n++
			}
		}
	}
	for _, p := range t.spilled {
		t.store.Peek(p, func(tup *tuple.Tuple) bool {
			if oldest(tup) <= cutoff {
				n++
			}
			return true
		})
	}
	return n
}

// ResidentBucket returns the resident tuples under key — nil when the
// bucket is wholly spilled or absent. It never faults and never sets the
// reference bit; it is the store's view of spill candidates.
func (t *Table) ResidentBucket(key tuple.Value) []*tuple.Tuple {
	return t.buckets[key]
}

// MarkSpilled detaches the resident bucket for key once the store has
// captured it into key's spilled part, which is fresh when key had
// none, and returns the part and the accounted bytes that moved. The
// bucket's backing array is deliberately not recycled into the free
// list: Probe callers may still hold it.
func (t *Table) MarkSpilled(key tuple.Value, fresh *statestore.Part) (*statestore.Part, int64) {
	var b int64
	for _, tup := range t.buckets[key] {
		b += TupleBytes(tup)
	}
	delete(t.buckets, key)
	delete(t.hot, key)
	p := t.spilled[key]
	if p == nil {
		p = fresh
		t.spilled[key] = p
	}
	t.account(-b)
	return p, b
}

// ClockTouched reports whether key's bucket was touched since the last
// check, clearing the reference bit — the CLOCK hand's second-chance
// test.
func (t *Table) ClockTouched(key tuple.Value) bool {
	if _, ok := t.hot[key]; ok {
		delete(t.hot, key)
		return true
	}
	return false
}

func (t *Table) String() string {
	status := "complete"
	if !t.complete {
		status = fmt.Sprintf("incomplete(counter=%d)", t.Counter())
	}
	return fmt.Sprintf("Table(%v %s size=%d keys=%d)", t.Set, status, t.size, t.DistinctKeys())
}
