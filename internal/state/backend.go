package state

import "jisc/internal/tuple"

// Backend is the tiering hook behind a Table: a byte-accounted store
// that can hold cold buckets outside the heap and bring them back just
// in time. The default (nil backend) keeps every bucket resident — the
// layout the repository always had. internal/statestore provides the
// spill-to-disk implementation.
//
// The contract mirrors JISC's lazy completion: a Table never loses
// logical contents when a bucket spills, it only changes *residency*.
// Probe on a spilled key faults the bucket back (Fault), iteration
// reads it without admitting it (Peek), and window eviction of spilled
// base-tuple refs is recorded as a tombstone instead of faulting.
//
// A Backend is confined to the same goroutine as the Tables attached
// to it; only byte accounting may be read concurrently.
type Backend interface {
	// Account adjusts the backend's resident-byte counter by delta.
	// The Table calls it on every mutation that changes its resident
	// footprint (insert, remove, spill, fault, clear).
	Account(delta int64)

	// Admit registers a newly resident bucket (freshly created or
	// faulted back in) with the backend's hot tier.
	Admit(t *Table, key tuple.Value)

	// Fault loads the spilled bucket for key back into memory and
	// forgets its spilled copy, returning the live tuples.
	Fault(t *Table, key tuple.Value) []*tuple.Tuple

	// Peek iterates the spilled bucket for key without admitting it,
	// calling fn per tuple. It returns false when fn stopped the
	// iteration early.
	Peek(t *Table, key tuple.Value, fn func(*tuple.Tuple) bool) bool

	// Tombstone records window eviction of the spilled base tuples of
	// key with per-stream sequence numbers at or below deadThrough.
	// last reports that the bucket is now logically empty and its
	// spilled copy is pure garbage.
	Tombstone(t *Table, key tuple.Value, deadThrough uint64, last bool)

	// Drop forgets every spilled bucket and hot-tier entry of t —
	// Clear and table teardown.
	Drop(t *Table)

	// MaybeSpill evicts cold buckets to the backend while the resident
	// byte accounting exceeds the budget. Tables call it after
	// operations that grow residency.
	MaybeSpill()

	// Pressured reports whether resident accounting is close enough to
	// the budget that eviction may soon run. Tables maintain CLOCK
	// reference bits only under pressure, keeping the never-binding
	// fast path to one atomic read per touch instead of a map write.
	Pressured() bool
}

// TupleBytes estimates the resident heap footprint of one tuple: the
// struct itself plus its provenance refs and payload backing arrays.
// The estimate is deliberately simple and deterministic — it is the
// unit of the spill budget, compared against itself, not against the
// allocator.
func TupleBytes(t *tuple.Tuple) int64 {
	return 64 + 16*int64(len(t.Refs)) + 8*int64(len(t.Payload))
}

// spillInfo is the resident-side record of one key's spilled part: how
// many live tuples it holds and their accounted byte footprint, so
// size and ContainsKey answers stay exact without touching the
// backend, and tombstoned tuples can be deducted proportionally.
// newest is the highest sequence number spilled — kept on
// tombstone-mode tables only, where it routes an expiring ref to the
// spilled or the resident part.
type spillInfo struct {
	count  int
	bytes  int64
	newest uint64
}
