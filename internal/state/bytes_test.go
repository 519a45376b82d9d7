package state

import (
	"testing"

	"jisc/internal/tuple"
)

// sumBytes recomputes a table's resident footprint from scratch: its
// rows' bytes and a SlotBytes for each key holding rows.
func sumBytes(t *Table) int64 {
	var b int64
	t.Each(func(tup *tuple.Tuple) bool {
		b += TupleBytes(tup.Set)
		return true
	})
	return b + SlotBytes*int64(t.DistinctKeys())
}

func TestTableByteAccounting(t *testing.T) {
	tbl := NewTable(tuple.NewStreamSet(0))
	if tbl.Bytes() != 0 {
		t.Fatalf("fresh table has %d bytes", tbl.Bytes())
	}
	for i := 0; i < 20; i++ {
		tbl.Insert(tuple.NewBase(0, uint64(i+1), tuple.Value(i%5), uint64(i+1)))
	}
	if tbl.Bytes() != sumBytes(tbl) {
		t.Fatalf("after inserts: accounted %d, actual %d", tbl.Bytes(), sumBytes(tbl))
	}

	// Evict a few refs, as the sliding window would.
	for i := 0; i < 7; i++ {
		tbl.RemoveRef(tuple.Value(i%5), tuple.Ref{Stream: 0, Seq: uint64(i + 1)}, nil)
	}
	if tbl.Bytes() != sumBytes(tbl) {
		t.Fatalf("after evictions: accounted %d, actual %d", tbl.Bytes(), sumBytes(tbl))
	}

	// Remove a whole key bucket.
	tbl.RemoveKey(2)
	if tbl.Bytes() != sumBytes(tbl) {
		t.Fatalf("after RemoveKey: accounted %d, actual %d", tbl.Bytes(), sumBytes(tbl))
	}

	tbl.Clear()
	if tbl.Bytes() != 0 {
		t.Fatalf("after Clear: %d bytes", tbl.Bytes())
	}
	if tbl.Size() != 0 {
		t.Fatalf("after Clear: size %d", tbl.Size())
	}
}

func TestTableByteAccountingComposites(t *testing.T) {
	tbl := NewTable(tuple.NewStreamSet(0, 1))
	a := tuple.NewBase(0, 1, 9, 1)
	b := tuple.NewBase(1, 2, 9, 2)
	comp := tuple.Join(a, b)
	tbl.Insert(comp)
	if got := TupleBytes(comp.Set); got != 8*(2+2) {
		t.Fatalf("TupleBytes(2-stream row) = %d, want 4 words", got)
	}
	if SlotBytes != 48 {
		t.Fatalf("SlotBytes = %d, want 48: key, run header, part pointer, flags", SlotBytes)
	}
	// The slot is charged with its first row, once.
	if want := TupleBytes(comp.Set) + SlotBytes; tbl.Bytes() != want {
		t.Fatalf("accounted %d, want %d", tbl.Bytes(), want)
	}
	tbl.InsertJoin(b, tuple.NewBase(0, 3, 9, 3))
	if want := 2*TupleBytes(comp.Set) + SlotBytes; tbl.Bytes() != want {
		t.Fatalf("after a second row: accounted %d, want %d", tbl.Bytes(), want)
	}
	tbl.RemoveRef(9, tuple.Ref{Stream: 0, Seq: 3}, nil)
	tbl.RemoveRef(9, tuple.Ref{Stream: 0, Seq: 1}, nil)
	if tbl.Bytes() != 0 {
		t.Fatalf("after eviction: %d", tbl.Bytes())
	}
}

// TestListByteAccounting: a nested-loops state's rows are charged like
// any table's, whatever keys they sit under: TupleBytes each, plus
// SlotBytes per key holding rows.
func TestListByteAccounting(t *testing.T) {
	tb := NewTable(tuple.NewStreamSet(0, 1))
	row := TupleBytes(tb.Set)
	for i := 0; i < 10; i++ {
		tb.InsertJoin(tuple.NewBase(0, uint64(i+1), tuple.Value(i%4), uint64(i+1)), tuple.NewBase(1, 1, 7, 1))
	}
	if want := 10*row + 4*SlotBytes; tb.Bytes() != want {
		t.Fatalf("accounted %d, want %d", tb.Bytes(), want)
	}
	removed := 0
	for _, k := range tb.Keys(nil) {
		removed += tb.RemoveRef(k, tuple.Ref{Stream: 1, Seq: 1}, nil)
	}
	if removed != 10 || tb.Bytes() != 0 {
		t.Fatalf("after eviction: removed %d, accounted %d", removed, tb.Bytes())
	}
	tb.Insert(tuple.Join(tuple.NewBase(0, 11, 3, 11), tuple.NewBase(1, 2, 3, 11)))
	tb.Clear()
	if tb.Bytes() != 0 {
		t.Fatalf("after Clear: %d", tb.Bytes())
	}
}
