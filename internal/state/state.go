// Package state implements the join-state storage used by every
// operator: a hash multimap from join-attribute value to tuples
// (symmetric hash join), and an ordered list (nested-loops join for
// general theta joins). Tables carry the completeness metadata that
// JISC layers on top of ordinary states: the complete/incomplete flag
// of Definition 1, the per-key attempted set of Definition 2, and the
// completion-detection counter of §4.3.
//
// A Table keeps one slot per key in one open-addressing index (see
// index.go): the slot carries the resident bucket, the spilled part and
// the flag bits — CLOCK reference, attempted, pending — so every
// per-key touch is one hash probe. A slot lives while it holds tuples
// or an attempted or pending mark, and is removed by backward shift
// when the last of these goes. Iteration (Keys, Each, AttemptedKeys,
// PendingKeys) follows slot order, which the history of calls decides
// alone: equal call sequences iterate, and checkpoint, equally.
//
// Every state maintains byte accounting (TupleBytes summed over its
// resident tuples), and a Table can attach an internal/statestore
// Store that spills cold buckets out of the heap and faults them back
// on demand — just-in-time residency, the storage-level analogue of
// the paper's just-in-time completion. Spilling changes residency,
// never contents: the slot keeps each spilled key's statestore.Part,
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

	// idx holds one slot per key with tuples (resident, spilled or
	// both: the resident part is the tuples inserted since the key
	// spilled, all newer than the spilled ones) or a per-transition
	// mark.
	idx index
	// size counts the logical contents — resident plus spilled tuples.
	// Spilling changes residency, never size.
	size int
	// keys counts the slots that hold tuples: DistinctKeys.
	keys int

	// bytes is the estimated heap footprint (TupleBytes summed) of the
	// resident tuples only; spilled parts are accounted by the store.
	bytes int64

	// store, when non-nil, governs residency: cold buckets move out of
	// their slots into the store's segments (the slot keeping the part)
	// and fault back in on access. Nil keeps everything resident.
	store *statestore.Store
	// tombstone selects the scan-table eviction mode: window eviction
	// of a spilled ref is recorded as a store tombstone instead of
	// faulting the bucket in. Only sound for single-stream states,
	// whose tuples are uniform base tuples with exactly one ref.
	tombstone bool

	// complete is Definition 1's flag. Scan states are always
	// complete; join states become incomplete at a plan transition
	// when their stream set did not exist (complete) in the old plan.
	complete bool

	// attempts counts the slots marked attempted: the keys whose
	// entries have been computed (or found absent) since the last
	// transition, so a second tuple with the same value performs no
	// repeated work (Definition 2 / §4.4).
	attempts int

	// pending implements the §4.3 completion counter: the slots marked
	// pending are the distinct keys of the designated (smaller complete)
	// child side not yet completed here. When it drains, the state is
	// declared complete.
	pending int

	// counterArmed distinguishes "no counter" (Case 3: both children
	// incomplete) from "counter drained".
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
	return &Table{Set: set, complete: true}
}

// SetStore attaches the spill store to the table, which must still be
// empty; tombstones selects the scan-table eviction mode (see the
// tombstone field).
func (t *Table) SetStore(s *statestore.Store, tombstones bool) {
	t.store = s
	t.tombstone = tombstones
	s.Attach(t)
}

// Release detaches the store, freeing every spilled part and dropping
// the table's byte accounting from it. Called when the engine discards
// a dead state; the table must not be used afterwards.
func (t *Table) Release() {
	if t.store == nil {
		return
	}
	t.dropSpilled()
	t.store.Drop(t)
	t.store.Account(-t.bytes)
	t.store = nil
}

// dropSpilled frees every spilled part, uncounting its tuples. It
// leaves slots that held only a part in place for the caller to sweep.
func (t *Table) dropSpilled() {
	for i := range t.idx.slots {
		s := &t.idx.slots[i]
		if s.part != nil {
			t.size -= s.part.Count()
			t.store.Free(s.part)
			s.part = nil
		}
	}
}

// account adjusts the resident byte estimate, mirroring the delta to
// the store when one is attached.
func (t *Table) account(delta int64) {
	t.bytes += delta
	if t.store != nil {
		t.store.Account(delta)
	}
}

// drop removes the slot at i if nothing keeps it live.
func (t *Table) drop(i int) {
	if !t.idx.slots[i].live() {
		t.idx.remove(i)
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
	t.clearMarks(attempted | pending)
	t.counterArmed = false
}

// MarkComplete declares the state complete and drops transition-time
// bookkeeping.
func (t *Table) MarkComplete() {
	t.complete = true
	t.clearMarks(attempted | pending)
	t.counterArmed = false
}

// clearMarks clears the given per-transition flags in place, removing
// the slots only they kept. Nothing is swept when no slot carries them,
// so marking a fresh state incomplete costs nothing.
func (t *Table) clearMarks(marks uint8) {
	if (marks&attempted == 0 || t.attempts == 0) && (marks&pending == 0 || t.pending == 0) {
		return
	}
	t.idx.sweep(func(s *slot) { s.flags &^= marks })
	if marks&attempted != 0 {
		t.attempts = 0
	}
	if marks&pending != 0 {
		t.pending = 0
	}
}

// ArmCounter initializes the §4.3 completion counter with the distinct
// keys of the designated complete child side (Case 1: the smaller of
// the two complete children; Case 2: the single complete child).
func (t *Table) ArmCounter(keys []tuple.Value) {
	t.clearMarks(pending)
	// Size the index for the child's keys at once: a state armed at
	// install is empty, and growing it from minSlots one doubling at a
	// time rehashes every key log2(len(keys)) times.
	t.idx.reserve(t.idx.n + len(keys))
	for _, k := range keys {
		s := &t.idx.slots[t.idx.upsert(k)]
		if s.flags&pending == 0 {
			s.flags |= pending
			t.pending++
		}
	}
	t.counterArmed = true
}

// CounterArmed reports whether a completion counter is active
// (Cases 1 and 2 of §4.3). Without a counter (Case 3) completion is
// detected via child notifications instead.
func (t *Table) CounterArmed() bool { return t.counterArmed }

// Counter returns the current counter value (distinct keys still to
// complete). Zero when unarmed.
func (t *Table) Counter() int { return t.pending }

// Attempted reports whether entries for key were already computed (or
// determined absent) since the last transition.
func (t *Table) Attempted(key tuple.Value) bool {
	if t.complete {
		return true
	}
	i := t.idx.find(key)
	return i >= 0 && t.idx.slots[i].flags&attempted != 0
}

// MarkAttempted records that entries for key are now as complete as
// they will get, decrements the completion counter if key was pending,
// and reports whether the counter just drained to zero (meaning the
// caller should declare the state complete and notify its parent).
func (t *Table) MarkAttempted(key tuple.Value) (drained bool) {
	if t.complete {
		return false
	}
	s := &t.idx.slots[t.idx.upsert(key)]
	if s.flags&attempted == 0 {
		s.flags |= attempted
		t.attempts++
	}
	if t.counterArmed && s.flags&pending != 0 {
		s.flags &^= pending
		t.pending--
		return t.pending == 0
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
	i := t.idx.find(key)
	if i < 0 || t.idx.slots[i].flags&pending == 0 {
		return false
	}
	t.idx.slots[i].flags &^= pending
	t.pending--
	t.drop(i)
	return t.pending == 0
}

// Insert stores tup under its key. New buckets reuse backing arrays
// recycled from previously emptied ones. Insert never faults: under a
// spilled key it starts (or extends) a resident part beside the spilled
// one, and the next Probe merges the two.
func (t *Table) Insert(tup *tuple.Tuple) {
	s := &t.idx.slots[t.idx.upsert(tup.Key)]
	resident := len(s.bucket) > 0
	if !resident {
		if s.part == nil {
			t.keys++
		}
		if len(t.free) > 0 {
			s.bucket = t.free[len(t.free)-1]
			t.free = t.free[:len(t.free)-1]
		}
	}
	s.bucket = append(s.bucket, tup)
	t.size++
	t.account(TupleBytes(tup))
	if t.store != nil {
		s.flags |= hot
		t.store.MaybeSpill()
	}
}

// Probe returns the tuples stored under key, faulting the bucket back
// in when it is spilled. The returned slice is owned by the table;
// callers must not mutate it. It remains valid even if the bucket is
// spilled again before the caller is done with it.
func (t *Table) Probe(key tuple.Value) []*tuple.Tuple {
	i := t.idx.find(key)
	if i < 0 {
		return nil
	}
	s := &t.idx.slots[i]
	if t.store == nil {
		return s.bucket
	}
	if s.part != nil {
		bucket := t.fault(s)
		t.store.MaybeSpill()
		return bucket
	}
	s.flags |= hot
	return s.bucket
}

// fault brings the slot's spilled part back into residency, in front of
// any resident part so the bucket stays in arrival order, and returns
// the whole bucket. It deliberately does not trigger MaybeSpill —
// callers do, after they have captured the returned slice — so the
// just-faulted bucket cannot be detached mid-operation.
func (t *Table) fault(s *slot) []*tuple.Tuple {
	tuples := t.store.Fault(s.part)
	s.part = nil
	var b int64
	for _, tup := range tuples {
		b += TupleBytes(tup)
	}
	// The faulted slice is fresh; the old resident array is left to the
	// collector rather than recycled, since Probe callers may hold it.
	s.bucket = append(tuples, s.bucket...)
	s.flags |= hot
	t.account(b)
	return s.bucket
}

// ContainsKey reports whether any tuple is stored under key, resident
// or spilled. It never faults.
func (t *Table) ContainsKey(key tuple.Value) bool {
	i := t.idx.find(key)
	return i >= 0 && t.idx.slots[i].holds()
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
	i := t.idx.find(key)
	if i < 0 {
		return nil
	}
	s := &t.idx.slots[i]
	if s.part != nil {
		if !t.tombstone {
			t.fault(s)
			defer t.store.MaybeSpill()
		} else if ref.Seq <= s.part.Newest() {
			if t.store.Tombstone(s.part, ref.Seq) {
				s.part = nil
				if len(s.bucket) == 0 {
					t.keys--
				}
				t.drop(i)
			}
			t.size--
			return nil
		}
	}
	bucket := s.bucket
	if len(bucket) == 0 {
		return nil
	}
	set := bucket[0].Set
	if !set.Has(ref.Stream) {
		return nil
	}
	at := bits.OnesCount64(uint64(set) & (1<<ref.Stream - 1))
	t.removed = t.removed[:0]
	kept := bucket[:0]
	for _, tup := range bucket {
		if tup.Refs[at].Seq == ref.Seq {
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
	for j := len(kept); j < len(bucket); j++ {
		bucket[j] = nil
	}
	if len(kept) > 0 {
		s.bucket = kept
		return t.removed
	}
	s.bucket = nil
	s.flags &^= hot
	if s.part == nil {
		t.keys--
	}
	if len(t.free) < maxFreeBuckets && cap(bucket) > 0 {
		t.free = append(t.free, kept)
	}
	t.drop(i)
	return t.removed
}

// RemoveKey removes and returns every tuple stored under key —
// set-difference suppression and requalification move whole key
// buckets between the passing and suppressed tables. A spilled bucket
// is faulted in first.
func (t *Table) RemoveKey(key tuple.Value) []*tuple.Tuple {
	i := t.idx.find(key)
	if i < 0 {
		return nil
	}
	s := &t.idx.slots[i]
	if s.part != nil {
		t.fault(s)
		defer t.store.MaybeSpill()
	}
	bucket := s.bucket
	if len(bucket) == 0 {
		return nil
	}
	s.bucket = nil
	s.flags &^= hot
	t.keys--
	t.drop(i)
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
func (t *Table) DistinctKeys() int { return t.keys }

// Keys returns the distinct join-attribute values present, resident or
// spilled, each once, in slot order.
func (t *Table) Keys() []tuple.Value {
	out := make([]tuple.Value, 0, t.keys)
	for i := range t.idx.slots {
		if s := &t.idx.slots[i]; s.holds() {
			out = append(out, s.key)
		}
	}
	return out
}

// AttemptedKeys returns the keys attempted since the last transition
// (empty for complete tables), in slot order. Used by checkpointing.
func (t *Table) AttemptedKeys() []tuple.Value {
	return t.marked(attempted, t.attempts)
}

// PendingKeys returns the completion counter's remaining keys, in slot
// order, and whether a counter is armed. Used by checkpointing.
func (t *Table) PendingKeys() ([]tuple.Value, bool) {
	if !t.counterArmed {
		return nil, false
	}
	return t.marked(pending, t.pending), true
}

// marked returns the n keys whose slots carry flag, in slot order.
func (t *Table) marked(flag uint8, n int) []tuple.Value {
	out := make([]tuple.Value, 0, n)
	for i := range t.idx.slots {
		if s := &t.idx.slots[i]; s.flags&flag != 0 {
			out = append(out, s.key)
		}
	}
	return out
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
		t.MarkAttempted(k)
	}
	if counterArmed {
		t.ArmCounter(pending)
	}
}

// Each calls fn for every stored tuple until fn returns false, in slot
// order. Spilled parts are read through the store without admitting
// them, so iteration (checkpointing, discard scans) does not perturb
// residency. A key's spilled part is visited before its resident part:
// a checkpoint restored in iteration order rebuilds every bucket in
// arrival order.
func (t *Table) Each(fn func(*tuple.Tuple) bool) {
	for i := range t.idx.slots {
		s := &t.idx.slots[i]
		if s.part != nil && !t.store.Peek(s.part, fn) {
			return
		}
		for _, tup := range s.bucket {
			if !fn(tup) {
				return
			}
		}
	}
}

// Clear removes all tuples but keeps completeness metadata. The
// recycled-array pools are dropped too, releasing the memory, and any
// spilled parts are freed in the store; the table stays attached to it.
func (t *Table) Clear() {
	if t.store != nil {
		t.dropSpilled()
	}
	t.account(-t.bytes)
	t.idx.sweep(func(s *slot) {
		s.bucket = nil
		s.flags &^= hot
	})
	if t.idx.n == 0 {
		t.idx = index{}
	}
	t.size = 0
	t.keys = 0
	t.free = nil
	t.removed = nil
}

// CountOld returns how many stored tuples contain at least one
// constituent that arrived at or before cutoff. Parallel Track's
// periodic discard check (§3.3) scans states with this.
func (t *Table) CountOld(cutoff uint64, oldest func(*tuple.Tuple) uint64) int {
	n := 0
	t.Each(func(tup *tuple.Tuple) bool {
		if oldest(tup) <= cutoff {
			n++
		}
		return true
	})
	return n
}

// Sweep is the store's CLOCK hand passing over the slots from position
// from: it gives each touched resident bucket its second chance by
// clearing the reference bit, and returns the first untouched one's key
// and the position after it. A table with nothing resident is passed
// without a walk.
func (t *Table) Sweep(from int) (key tuple.Value, next int, ok bool) {
	if t.bytes == 0 {
		return 0, 0, false
	}
	for i := from; i < len(t.idx.slots); i++ {
		s := &t.idx.slots[i]
		if len(s.bucket) == 0 {
			continue
		}
		if s.flags&hot == 0 {
			return s.key, i + 1, true
		}
		s.flags &^= hot
	}
	return 0, 0, false
}

// ResidentBucket returns the resident tuples under key — nil when the
// bucket is wholly spilled or absent. It never faults and never sets the
// reference bit; it is the store's view of spill candidates.
func (t *Table) ResidentBucket(key tuple.Value) []*tuple.Tuple {
	if i := t.idx.find(key); i >= 0 {
		return t.idx.slots[i].bucket
	}
	return nil
}

// MarkSpilled detaches the resident bucket for key once the store has
// captured it into key's spilled part, which is fresh when key had
// none, and returns the part and the accounted bytes that moved. The
// bucket's backing array is deliberately not recycled into the free
// list: Probe callers may still hold it. The store only spills a key
// Sweep found resident, so its slot exists and stays.
func (t *Table) MarkSpilled(key tuple.Value, fresh *statestore.Part) (*statestore.Part, int64) {
	s := &t.idx.slots[t.idx.find(key)]
	var b int64
	for _, tup := range s.bucket {
		b += TupleBytes(tup)
	}
	s.bucket = nil
	if s.part == nil {
		s.part = fresh
	}
	t.account(-b)
	return s.part, b
}

func (t *Table) String() string {
	status := "complete"
	if !t.complete {
		status = fmt.Sprintf("incomplete(counter=%d)", t.Counter())
	}
	return fmt.Sprintf("Table(%v %s size=%d keys=%d)", t.Set, status, t.size, t.DistinctKeys())
}
