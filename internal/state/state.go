// Package state implements the join-state storage used by every
// operator: a hash multimap from join-attribute value to tuples. A
// symmetric hash join probes it by key; a nested-loops join (general
// theta joins) scans it whole. Tables carry the completeness metadata
// that JISC layers on top of ordinary states: the complete/incomplete
// flag of Definition 1 with the tick the state was born at, the per-key
// attempted set of Definition 2, and the completion-detection counter
// of §4.3 with the stream set of the child side that armed it.
//
// A Table keeps one slot per key in one open-addressing index (see
// index.go): the slot carries the resident rows, the spilled part and
// the flag bits — CLOCK reference, attempted, pending — so every
// per-key touch is one hash probe. A slot lives while it holds tuples
// or an attempted or pending mark, and is removed by backward shift
// when the last of these goes. Iteration (Keys, Each, AttemptedKeys,
// PendingKeys) follows slot order, which the history of calls decides
// alone: equal call sequences iterate, and checkpoint, equally.
//
// A table holds no pointer per tuple: the tuples under a key are one run
// of fixed-width []uint64 rows (tuple.Rows) — arrival, then one seq per
// covered stream — which Insert appends to and Probe lends as
// views. Every state maintains byte accounting (TupleBytes per
// resident row, SlotBytes per slot holding resident rows), and a Table
// can attach an internal/statestore Store that spills cold buckets out
// of the heap and faults them back on demand — just-in-time residency, the storage-level analogue of
// the paper's just-in-time completion. Spilling changes residency,
// never contents: the slot keeps each spilled key's statestore.Part,
// the one record of it, so Size, ContainsKey, DistinctKeys and Keys
// stay exact without I/O.
package state

import (
	"fmt"
	"math/bits"
	"unsafe"

	"jisc/internal/statestore"
	"jisc/internal/tuple"
)

// TupleBytes is the resident footprint of one row covering set: its
// words, exactly. With SlotBytes it is the unit of the spill budget;
// slack in a run's capacity is not charged.
func TupleBytes(set tuple.StreamSet) int64 { return 8 * int64(tuple.RowWidth(set)) }

// SlotBytes is the footprint of one index slot, charged once while the
// slot holds resident rows.
const SlotBytes = int64(unsafe.Sizeof(slot{}))

// Table is a hash multimap from join key to the tuples carrying that
// key. It is the state of one operator in a pipelined plan: for a scan
// it holds the stream's window contents, for a join it holds the join
// results produced (or completed) so far.
//
// A Table is not safe for concurrent use; the engine serializes access
// and the concurrent pipeline confines each table to one goroutine.
type Table struct {
	// Set identifies the state: the base streams its join results
	// cover.
	Set tuple.StreamSet
	// rows is the stream set every stored row covers and w its width:
	// Set itself for scan and join states, the outer stream for a
	// set-difference state, which passes outer tuples through. The first
	// Insert fixes it.
	rows tuple.StreamSet
	w    int

	// idx holds one slot per key with rows (resident, spilled or
	// both: the resident run is the rows inserted since the key
	// spilled, all newer than the spilled ones) or a per-transition
	// mark.
	idx index
	// size counts the logical contents — resident plus spilled tuples.
	// Spilling changes residency, never size.
	size int
	// keys counts the slots that hold tuples: DistinctKeys.
	keys int

	// bytes is the heap footprint of the resident rows and of the slots
	// holding them; spilled parts are accounted by the store.
	bytes int64

	// store, when non-nil, governs residency: cold buckets move out of
	// their slots into the store's segments (the slot keeping the part)
	// and fault back in on access. Nil keeps everything resident.
	store *statestore.Store

	// complete is Definition 1's flag. Scan states are always
	// complete; join states become incomplete at a plan transition
	// when their stream set did not exist (complete) in the old plan.
	complete bool

	// born is the tick at which an incomplete state was created empty:
	// completion reconstructs only results whose constituents all
	// arrived at or before it, since later ones are produced by normal
	// processing. It survives every transition the state survives.
	born uint64

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

	// side is the stream set of the designated child whose keys armed
	// the counter, zero when none is armed: it distinguishes "no
	// counter" (Case 3: both children incomplete) from "counter
	// drained", and names the child whose evictions drain it.
	side tuple.StreamSet

	// free holds the runs RemoveRef emptied, for reuse by Insert.
	// Under a sliding window, keys continually drain and reappear;
	// recycling the runs keeps steady-state insertion allocation-free
	// instead of growing a fresh slice per reborn key. No other run is
	// recycled: a spilled or faulted one may still be lent.
	free [][]uint64

	// last is the view InsertJoin lends of the row it appended, and
	// view the one Each lends of the row it visits: both live here so
	// lending a row allocates nothing.
	last, view tuple.Tuple
}

// maxFreeBuckets bounds the run free list so a transient
// burst of distinct keys cannot pin memory forever.
const maxFreeBuckets = 64

// NewTable returns an empty, complete table covering set.
func NewTable(set tuple.StreamSet) *Table {
	return &Table{Set: set, complete: true}
}

// SetStore attaches the spill store to the table, which must still be
// empty. A single-stream table evicts a spilled ref by tombstone
// (RemoveRef); any other faults the part back in.
func (t *Table) SetStore(s *statestore.Store) {
	t.store = s
	s.Attach(t)
}

// AccountTo attaches the spill store to the table, which must still be
// empty, for byte accounting only: the CLOCK never walks the table, so
// nothing of it spills. A nested-loops state is one — its scan touches
// every row, so a spilled one would fault back on every probe — and its
// bytes still count against the budget, so the tables that do spill
// make room for it.
func (t *Table) AccountTo(s *statestore.Store) { t.store = s }

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

// dropSpilled frees every spilled part, uncounting its rows. It
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

// MarkIncomplete flags the table incomplete after a plan transition,
// created empty at tick born, and resets the per-transition attempted
// set and counter.
func (t *Table) MarkIncomplete(born uint64) {
	t.complete = false
	t.born = born
	t.clearMarks(attempted | pending)
	t.side = 0
}

// MarkComplete declares the state complete and drops transition-time
// bookkeeping: the attempted set, the counter and the birth tick.
func (t *Table) MarkComplete() {
	t.complete = true
	t.born = 0
	t.clearMarks(attempted | pending)
	t.side = 0
}

// Born returns the tick an incomplete state was created at (zero once
// it is complete).
func (t *Table) Born() uint64 { return t.born }

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
// keys of the designated complete child side, whose stream set is side
// (Case 1: the smaller of the two complete children; Case 2: the
// single complete child). A zero side disarms the counter.
func (t *Table) ArmCounter(side tuple.StreamSet, keys []tuple.Value) {
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
	t.side = side
}

// CounterArmed reports whether a completion counter is active
// (Cases 1 and 2 of §4.3). Without a counter (Case 3) completion is
// detected via child notifications instead.
func (t *Table) CounterArmed() bool { return t.side != 0 }

// CounterSide returns the stream set of the child whose keys armed the
// counter, zero when none is armed.
func (t *Table) CounterSide() tuple.StreamSet { return t.side }

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
	if t.side != 0 && s.flags&pending != 0 {
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
	if t.complete || t.side == 0 {
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

// Insert appends tup's row under its key. Insert never faults: under a
// spilled key it starts (or extends) a resident run beside the spilled
// part, and the next Probe merges the two.
func (t *Table) Insert(tup *tuple.Tuple) {
	s := t.slotFor(tup.Key, tup.Set)
	s.run = tuple.AppendRow(s.run, tup)
	t.inserted(s)
}

// InsertJoin appends the row of the composite of a and b under a's key
// — the result of joining them, built straight into the run — and
// lends a view of it, valid for as long as the run is and overwritten
// by the next InsertJoin.
func (t *Table) InsertJoin(a, b *tuple.Tuple) *tuple.Tuple {
	s := t.slotFor(a.Key, a.Set|b.Set)
	s.run = tuple.AppendJoinRow(s.run, a, b)
	tuple.Rows{Key: a.Key, Set: t.rows, Data: s.run[len(s.run)-t.w:]}.View(0, &t.last)
	t.inserted(s)
	return &t.last
}

// slotFor returns key's slot for a row covering set, counting a new key
// and charging the slot when it holds no resident rows yet. An empty
// slot reuses a run recycled from an emptied one.
func (t *Table) slotFor(key tuple.Value, set tuple.StreamSet) *slot {
	if set != t.rows {
		if t.rows != 0 {
			panic(fmt.Sprintf("state: row covering %v inserted into %v, whose rows cover %v", set, t, t.rows))
		}
		t.rows, t.w = set, tuple.RowWidth(set)
	}
	s := &t.idx.slots[t.idx.upsert(key)]
	if len(s.run) == 0 {
		if s.part == nil {
			t.keys++
		}
		if len(t.free) > 0 {
			s.run = t.free[len(t.free)-1]
			t.free = t.free[:len(t.free)-1]
		}
		t.account(SlotBytes)
	}
	return s
}

// inserted counts the row just appended to s and lets the store spill.
func (t *Table) inserted(s *slot) {
	t.size++
	t.account(8 * int64(t.w))
	if t.store != nil {
		s.flags |= hot
		t.store.MaybeSpill()
	}
}

// rowsOf returns the run of s as Rows.
func (t *Table) rowsOf(s *slot) tuple.Rows { return tuple.Rows{Key: s.key, Set: t.rows, Data: s.run} }

// Probe lends the rows stored under key, faulting the bucket back in
// when it is spilled. The run is owned by the table; callers must not
// mutate it. It remains valid for the whole operation, even if the
// bucket is spilled again before the caller is done with it.
func (t *Table) Probe(key tuple.Value) tuple.Rows {
	i := t.idx.find(key)
	if i < 0 {
		return tuple.Rows{}
	}
	s := &t.idx.slots[i]
	if s.part == nil {
		if t.store != nil {
			s.flags |= hot
		}
		return t.rowsOf(s)
	}
	t.fault(s)
	rows := t.rowsOf(s)
	t.store.MaybeSpill()
	return rows
}

// fault brings the slot's spilled part back into residency, in front of
// any resident rows so the run stays in arrival order: one fresh run,
// the part's row bytes copied in. It deliberately does not trigger
// MaybeSpill — callers do, after they have captured the run — so the
// just-faulted bucket cannot be detached mid-operation.
func (t *Table) fault(s *slot) {
	n := s.part.Count()
	run := t.store.Fault(s.part, make([]uint64, 0, n*t.w+len(s.run)))
	s.part = nil
	if len(s.run) == 0 {
		t.account(SlotBytes)
	}
	// The old resident run is left to the collector rather than
	// recycled, since Probe callers may hold it.
	s.run = append(run, s.run...)
	s.flags |= hot
	t.account(int64(n) * 8 * int64(t.w))
}

// ContainsKey reports whether any tuple is stored under key, resident
// or spilled. It never faults.
func (t *Table) ContainsKey(key tuple.Value) bool {
	i := t.idx.find(key)
	return i >= 0 && t.idx.slots[i].holds()
}

// RemoveRef removes every row under key whose provenance contains ref
// and returns how many it removed. The run is compacted in place; an
// emptied run is recycled for later Inserts. When dst is non-nil it
// receives a copy of the removed rows, in run order, reusing dst.Data's
// array — a root that stores its results retracts them; every other
// caller needs only the count.
//
// Every row covers the table's row set, one seq per stream in stream
// order, so ref can only sit at one column — the number of covered
// streams below ref.Stream, past arrival — and membership is
// one word compare per row, not a search.
//
// On a single-stream table (a scan state) the expired ref is the
// oldest row under its key: a window expires in arrival order, and a
// scan run stays in arrival order (Insert appends, fault puts the
// spilled rows in front). So the search stops at its first match,
// usually after one compare, and the rest is copied down. A spilled
// part is not faulted there: a ref no
// newer than the part's newest is in it and is recorded as a store
// tombstone — counted, but not copied to dst, since base tuples have
// no derived results below them — and a newer ref can only be in the
// resident run. Other tables fault the spilled part in first: every
// row containing ref must go, and their rows are not in arrival order.
func (t *Table) RemoveRef(key tuple.Value, ref tuple.Ref, dst *tuple.Rows) int {
	if dst != nil {
		*dst = tuple.Rows{Key: key, Set: t.rows, Data: dst.Data[:0]}
	}
	i := t.idx.find(key)
	if i < 0 {
		return 0
	}
	s := &t.idx.slots[i]
	scan := t.Set.Count() == 1
	if s.part != nil {
		if !scan {
			t.fault(s)
			defer t.store.MaybeSpill()
		} else if ref.Seq <= s.part.Newest() {
			if t.store.Tombstone(s.part, ref.Seq) {
				s.part = nil
				if len(s.run) == 0 {
					t.keys--
				}
				t.drop(i)
			}
			t.size--
			return 1
		}
	}
	run := s.run
	if len(run) == 0 || !t.rows.Has(ref.Stream) {
		return 0
	}
	at, w := tuple.RowSeqs+t.rows.Rank(ref.Stream), t.w
	// The rows kept between two removed ones move down in one copy. A
	// scan table's seqs are unique, so its search stops at the first
	// match — the run's first row, when the ref is the oldest.
	kept, from := 0, 0
	for off := at; off < len(run); off += w {
		if run[off] == ref.Seq {
			row := off - at
			if dst != nil {
				dst.Data = append(dst.Data, run[row:row+w]...)
			}
			kept += copy(run[kept:], run[from:row])
			from = row + w
			if scan {
				break
			}
		}
	}
	if from == 0 {
		return 0
	}
	kept += copy(run[kept:], run[from:])
	n := (len(run) - kept) / w
	t.size -= n
	t.account(-8 * int64(len(run)-kept))
	if kept > 0 {
		s.run = run[:kept]
		return n
	}
	t.account(-SlotBytes)
	s.run = nil
	s.flags &^= hot
	if s.part == nil {
		t.keys--
	}
	if len(t.free) < maxFreeBuckets {
		t.free = append(t.free, run[:0])
	}
	t.drop(i)
	return n
}

// RemoveKey removes every row stored under key and lends them —
// set-difference suppression and requalification move whole key
// buckets between the passing and suppressed tables. A spilled bucket
// is faulted in first. The run is recycled, so the lent rows stay
// valid only until the next Insert into this table.
func (t *Table) RemoveKey(key tuple.Value) tuple.Rows {
	i := t.idx.find(key)
	if i < 0 {
		return tuple.Rows{}
	}
	s := &t.idx.slots[i]
	if s.part != nil {
		t.fault(s)
		defer t.store.MaybeSpill()
	}
	rows := t.rowsOf(s)
	if len(s.run) == 0 {
		return tuple.Rows{}
	}
	t.size -= rows.Len()
	t.account(-8*int64(len(s.run)) - SlotBytes)
	if len(t.free) < maxFreeBuckets {
		t.free = append(t.free, s.run[:0])
	}
	s.run = nil
	s.flags &^= hot
	t.keys--
	t.drop(i)
	return rows
}

// Size returns the number of stored rows, resident plus spilled.
func (t *Table) Size() int { return t.size }

// DistinctKeys returns the number of distinct join-attribute values
// present — the quantity the §4.3 counter is initialized from.
// A key with both a resident and a spilled part counts once.
func (t *Table) DistinctKeys() int { return t.keys }

// Keys appends the distinct join-attribute values present, resident or
// spilled, each once, in slot order, to dst and returns the extended
// slice; a caller that asks per tuple passes a scratch slice back in.
func (t *Table) Keys(dst []tuple.Value) []tuple.Value {
	if dst == nil {
		dst = make([]tuple.Value, 0, t.keys)
	}
	for i := range t.idx.slots {
		if s := &t.idx.slots[i]; s.holds() {
			dst = append(dst, s.key)
		}
	}
	return dst
}

// AttemptedKeys returns the keys attempted since the last transition
// (empty for complete tables), in slot order. Used by checkpointing.
func (t *Table) AttemptedKeys() []tuple.Value {
	return t.marked(attempted, t.attempts)
}

// PendingKeys returns the completion counter's remaining keys, in slot
// order, and whether a counter is armed. Used by checkpointing.
func (t *Table) PendingKeys() ([]tuple.Value, bool) {
	if t.side == 0 {
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
// the incomplete flag and birth tick, the attempted-key set, and the
// counter's side and pending keys (none armed when side is zero).
func (t *Table) RestoreMeta(complete bool, born uint64, attempted, pending []tuple.Value, side tuple.StreamSet) {
	if complete {
		t.MarkComplete()
		return
	}
	t.MarkIncomplete(born)
	for _, k := range attempted {
		t.MarkAttempted(k)
	}
	if side != 0 {
		t.ArmCounter(side, pending)
	}
}

// Each lends fn a view of every stored row until fn returns false, in
// slot order; the view is the table's own, overwritten by the next
// call, so fn must not iterate the same table again. Spilled parts
// are read through the store without admitting them, so iteration
// (checkpointing, discard scans) does not perturb residency. A key's
// spilled part is visited before its resident run: a checkpoint
// restored in iteration order rebuilds every bucket in arrival order.
func (t *Table) Each(fn func(*tuple.Tuple) bool) {
	v := &t.view
	each := func(rows tuple.Rows) bool {
		for i := range rows.Len() {
			if !fn(rows.View(i, v)) {
				return false
			}
		}
		return true
	}
	for i := range t.idx.slots {
		s := &t.idx.slots[i]
		if s.part != nil && !each(tuple.Rows{Key: s.key, Set: t.rows, Data: t.store.Peek(s.part)}) {
			return
		}
		if !each(t.rowsOf(s)) {
			return
		}
	}
}

// Clear removes all rows but keeps completeness metadata. The
// recycled runs are dropped too, releasing the memory, and any
// spilled parts are freed in the store; the table stays attached to it.
func (t *Table) Clear() {
	if t.store != nil {
		t.dropSpilled()
	}
	t.account(-t.bytes)
	t.idx.sweep(func(s *slot) {
		s.run = nil
		s.flags &^= hot
	})
	if t.idx.n == 0 {
		t.idx = index{}
	}
	t.size = 0
	t.keys = 0
	t.free = nil
}

// CountOld returns how many stored rows contain at least one
// constituent at or below its stream's cutoff seq (cutoff is indexed by
// stream id). Parallel Track's periodic discard check (§3.3) scans
// states with this.
func (t *Table) CountOld(cutoff []uint64) int {
	n := 0
	t.Each(func(tup *tuple.Tuple) bool {
		for i, s := 0, tup.Set; s != 0; i, s = i+1, s&(s-1) {
			if tup.Seqs[i] <= cutoff[bits.TrailingZeros64(uint64(s))] {
				n++
				break
			}
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
		if len(s.run) == 0 {
			continue
		}
		if s.flags&hot == 0 {
			return s.key, i + 1, true
		}
		s.flags &^= hot
	}
	return 0, 0, false
}

// ResidentBucket lends the resident rows under key — none when the
// bucket is wholly spilled or absent. It never faults and never sets the
// reference bit; it is the store's view of spill candidates.
func (t *Table) ResidentBucket(key tuple.Value) tuple.Rows {
	if i := t.idx.find(key); i >= 0 {
		return t.rowsOf(&t.idx.slots[i])
	}
	return tuple.Rows{}
}

// MarkSpilled detaches the resident run for key once the store has
// captured it into key's spilled part, which is fresh when key had
// none, and returns the part and the row bytes that moved; the slot's
// charge is released with them. The run is deliberately not recycled
// into the free list: Probe callers may still hold it. The store only
// spills a key Sweep found resident, so its slot exists and stays.
func (t *Table) MarkSpilled(key tuple.Value, fresh *statestore.Part) (*statestore.Part, int64) {
	s := &t.idx.slots[t.idx.find(key)]
	b := 8 * int64(len(s.run))
	s.run = nil
	if s.part == nil {
		s.part = fresh
	}
	t.account(-b - SlotBytes)
	return s.part, b
}

func (t *Table) String() string {
	status := "complete"
	if !t.complete {
		status = fmt.Sprintf("incomplete(counter=%d)", t.Counter())
	}
	return fmt.Sprintf("Table(%v %s size=%d keys=%d)", t.Set, status, t.size, t.DistinctKeys())
}
