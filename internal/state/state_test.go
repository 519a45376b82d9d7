package state

import (
	"math/rand"
	"testing"
	"testing/quick"

	"jisc/internal/testseed"
	"jisc/internal/tuple"
)

func base(id tuple.StreamID, seq uint64, key tuple.Value) *tuple.Tuple {
	return tuple.NewBase(id, seq, key, seq)
}

// tuples copies lent rows out as tuples a test may keep.
func tuples(r tuple.Rows) []*tuple.Tuple {
	out := make([]*tuple.Tuple, r.Len())
	var v tuple.Tuple
	for i := range out {
		out[i] = r.View(i, &v).Clone()
	}
	return out
}

func TestTableInsertProbe(t *testing.T) {
	tb := NewTable(tuple.NewStreamSet(0))
	tb.Insert(base(0, 1, 10))
	tb.Insert(base(0, 2, 10))
	tb.Insert(base(0, 3, 20))
	if tb.Size() != 3 {
		t.Fatalf("Size = %d, want 3", tb.Size())
	}
	if tb.DistinctKeys() != 2 {
		t.Fatalf("DistinctKeys = %d, want 2", tb.DistinctKeys())
	}
	if got := tb.Probe(10).Len(); got != 2 {
		t.Errorf("Probe(10) len = %d, want 2", got)
	}
	if got := tb.Probe(99).Len(); got != 0 {
		t.Errorf("Probe(99) len = %d, want 0", got)
	}
	if !tb.ContainsKey(20) || tb.ContainsKey(99) {
		t.Error("ContainsKey wrong")
	}
}

func TestTableRemoveRef(t *testing.T) {
	tb := NewTable(tuple.NewStreamSet(0, 1))
	a := base(0, 1, 5)
	b1 := base(1, 1, 5)
	b2 := base(1, 2, 5)
	tb.Insert(tuple.Join(a, b1))
	tb.Insert(tuple.Join(a, b2))
	removed := tb.RemoveRef(5, tuple.Ref{Stream: 1, Seq: 1}, nil)
	if removed != 1 {
		t.Fatalf("removed %d tuples, want 1", removed)
	}
	if tb.Size() != 1 {
		t.Fatalf("Size = %d after removal, want 1", tb.Size())
	}
	// Removing the ref shared by all remaining tuples empties the bucket.
	removed = tb.RemoveRef(5, tuple.Ref{Stream: 0, Seq: 1}, nil)
	if removed != 1 || tb.Size() != 0 || tb.DistinctKeys() != 0 {
		t.Fatalf("bucket not fully drained: removed=%d size=%d keys=%d",
			removed, tb.Size(), tb.DistinctKeys())
	}
	if tb.RemoveRef(5, tuple.Ref{Stream: 0, Seq: 1}, nil) != 0 {
		t.Error("removal from empty bucket returned tuples")
	}
}

func TestTableCompletenessLifecycle(t *testing.T) {
	tb := NewTable(tuple.NewStreamSet(0, 1))
	if !tb.Complete() {
		t.Fatal("new table must start complete")
	}
	if !tb.Attempted(7) {
		t.Fatal("complete table must report every key attempted")
	}
	tb.MarkIncomplete(0)
	if tb.Complete() || tb.Attempted(7) {
		t.Fatal("incomplete table must not report attempted")
	}
	if tb.CounterArmed() {
		t.Fatal("counter must not be armed before ArmCounter")
	}
	tb.ArmCounter(tuple.NewStreamSet(0), []tuple.Value{1, 2, 3})
	if !tb.CounterArmed() || tb.Counter() != 3 {
		t.Fatalf("counter = %d armed=%v", tb.Counter(), tb.CounterArmed())
	}
	if drained := tb.MarkAttempted(1); drained {
		t.Fatal("counter drained too early")
	}
	if !tb.Attempted(1) {
		t.Fatal("key 1 should be attempted")
	}
	// Attempting a key outside the designated side decrements nothing.
	if drained := tb.MarkAttempted(99); drained || tb.Counter() != 2 {
		t.Fatalf("foreign key changed counter: %d", tb.Counter())
	}
	if drained := tb.MarkAttempted(2); drained {
		t.Fatal("drained with key 3 still pending")
	}
	if drained := tb.MarkAttempted(3); !drained {
		t.Fatal("counter should drain on last pending key")
	}
	tb.MarkComplete()
	if !tb.Complete() || !tb.Attempted(42) {
		t.Fatal("MarkComplete did not restore complete semantics")
	}
}

func TestTableDropPending(t *testing.T) {
	tb := NewTable(tuple.NewStreamSet(0, 1))
	tb.MarkIncomplete(0)
	tb.ArmCounter(tuple.NewStreamSet(0), []tuple.Value{1, 2})
	if drained := tb.DropPending(1); drained {
		t.Fatal("drained too early")
	}
	if tb.Attempted(1) {
		t.Fatal("DropPending must not mark the key attempted")
	}
	if drained := tb.DropPending(2); !drained {
		t.Fatal("should drain when last pending key is dropped")
	}
	// Dropping on a complete table is a no-op.
	tb.MarkComplete()
	if tb.DropPending(3) {
		t.Fatal("DropPending on complete table reported drained")
	}
}

func TestTableMarkAttemptedIdempotent(t *testing.T) {
	tb := NewTable(tuple.NewStreamSet(0, 1))
	tb.MarkIncomplete(0)
	tb.ArmCounter(tuple.NewStreamSet(0), []tuple.Value{1})
	if !tb.MarkAttempted(1) {
		t.Fatal("first attempt should drain")
	}
	if tb.MarkAttempted(1) {
		t.Fatal("second attempt must not drain again")
	}
}

func TestTableKeysAndEach(t *testing.T) {
	tb := NewTable(tuple.NewStreamSet(0))
	for i := 0; i < 5; i++ {
		tb.Insert(base(0, uint64(i), tuple.Value(i%3)))
	}
	if got := len(tb.Keys(nil)); got != 3 {
		t.Fatalf("Keys len = %d, want 3", got)
	}
	n := 0
	tb.Each(func(*tuple.Tuple) bool { n++; return true })
	if n != 5 {
		t.Fatalf("Each visited %d, want 5", n)
	}
	n = 0
	tb.Each(func(*tuple.Tuple) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Each with early stop visited %d, want 1", n)
	}
}

func TestTableClear(t *testing.T) {
	tb := NewTable(tuple.NewStreamSet(0))
	tb.Insert(base(0, 1, 1))
	tb.MarkIncomplete(0)
	tb.Clear()
	if tb.Size() != 0 || tb.DistinctKeys() != 0 {
		t.Fatal("Clear left data behind")
	}
	if tb.Complete() {
		t.Fatal("Clear must preserve completeness metadata")
	}
}

// TestTableCountOld: a row is old when any constituent's seq is at or
// below its stream's cutoff.
func TestTableCountOld(t *testing.T) {
	tb := NewTable(tuple.NewStreamSet(0))
	for i := 1; i <= 4; i++ {
		tb.Insert(base(0, uint64(i), 1))
	}
	cutoff := make([]uint64, tuple.MaxStreams)
	if got := tb.CountOld(cutoff); got != 0 {
		t.Fatalf("CountOld(none) = %d, want 0", got)
	}
	cutoff[0], cutoff[1] = 2, 4
	if got := tb.CountOld(cutoff); got != 2 {
		t.Fatalf("CountOld(0#2) = %d, want 2", got)
	}
	pairs := NewTable(tuple.NewStreamSet(0, 1))
	for i := uint64(1); i <= 6; i++ {
		pairs.InsertJoin(base(0, i, 1), base(1, 7-i, 1)) // 0#i with 1#(7-i)
	}
	// Old by stream 0: 0#1, 0#2. Old by stream 1: 1#4 … 1#1, i.e. 0#3 … 0#6.
	if got := pairs.CountOld(cutoff); got != 6 {
		t.Fatalf("CountOld(0#2, 1#4) = %d, want 6", got)
	}
	cutoff[1] = 2
	if got := pairs.CountOld(cutoff); got != 4 { // 0#1, 0#2, 0#5, 0#6
		t.Fatalf("CountOld(0#2, 1#2) = %d, want 4", got)
	}
}

// Property: size always equals the sum over buckets, and RemoveRef
// after random inserts never leaves a tuple containing the ref.
func TestTableSizeInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable(tuple.NewStreamSet(0))
		for i := 0; i < 100; i++ {
			tb.Insert(base(0, uint64(i), tuple.Value(rng.Intn(10))))
		}
		// Remove a handful of random refs.
		for i := 0; i < 20; i++ {
			seq := uint64(rng.Intn(100))
			for _, k := range tb.Keys(nil) {
				tb.RemoveRef(k, tuple.Ref{Stream: 0, Seq: seq}, nil)
			}
		}
		total := 0
		ok := true
		tb.Each(func(tp *tuple.Tuple) bool { total++; return true })
		if total != tb.Size() {
			ok = false
		}
		return ok
	}
	if err := quick.Check(f, testseed.Quick(t, 1, 30)); err != nil {
		t.Fatal(err)
	}
}

func TestTableString(t *testing.T) {
	tb := NewTable(tuple.NewStreamSet(0, 1))
	if s := tb.String(); s == "" {
		t.Fatal("empty String")
	}
	tb.MarkIncomplete(0)
	tb.ArmCounter(tuple.NewStreamSet(0), []tuple.Value{1})
	if s := tb.String(); s == "" {
		t.Fatal("empty String for incomplete table")
	}
}

// The TestList* tests pin the table as a nested-loops state: rows under
// many keys, scanned whole with Each, a ref removed under every key.

// scanAll copies out every row Each visits.
func scanAll(tb *Table) []*tuple.Tuple {
	var out []*tuple.Tuple
	tb.Each(func(v *tuple.Tuple) bool { out = append(out, v.Clone()); return true })
	return out
}

func TestListBasics(t *testing.T) {
	tb := NewTable(tuple.NewStreamSet(0, 1))
	if !tb.Complete() {
		t.Fatal("new table must start complete")
	}
	// Theta composites: a 10 matched b 20 and b 21, each under a's key.
	a := base(0, 1, 10)
	tb.InsertJoin(a, base(1, 1, 20))
	tb.InsertJoin(a, base(1, 2, 21))
	tb.InsertJoin(base(0, 2, 30), base(1, 1, 20))
	if tb.Size() != 3 || tb.DistinctKeys() != 2 {
		t.Fatalf("Size = %d over %d keys, want 3 over 2", tb.Size(), tb.DistinctKeys())
	}
	got := map[string]tuple.Value{}
	for _, v := range scanAll(tb) {
		got[v.Fingerprint()] = v.Key
	}
	want := map[string]tuple.Value{"0#1|1#1": 10, "0#1|1#2": 10, "0#2|1#1": 30}
	if len(got) != len(want) {
		t.Fatalf("Each visited %v, want %v", got, want)
	}
	for fp, k := range want {
		if got[fp] != k {
			t.Fatalf("Each visited %v, want %v", got, want)
		}
	}
}

func TestListRemoveRef(t *testing.T) {
	tb := NewTable(tuple.NewStreamSet(0, 1))
	b := base(1, 1, 20)
	tb.InsertJoin(base(0, 1, 10), b)
	tb.InsertJoin(base(0, 2, 30), b)
	tb.InsertJoin(base(0, 3, 30), base(1, 2, 21))
	// b's composites sit under two keys; every key is asked.
	removed := 0
	for _, k := range tb.Keys(nil) {
		removed += tb.RemoveRef(k, b.First(), nil)
	}
	if removed != 2 || tb.Size() != 1 || tb.DistinctKeys() != 1 {
		t.Fatalf("RemoveRef: removed=%d size=%d keys=%d", removed, tb.Size(), tb.DistinctKeys())
	}
	if got := tb.RemoveRef(30, tuple.Ref{Stream: 1, Seq: 99}, nil); got != 0 {
		t.Fatal("removed nonexistent ref")
	}
}

func TestListEachAndClear(t *testing.T) {
	tb := NewTable(tuple.NewStreamSet(0))
	for i := 0; i < 4; i++ {
		tb.Insert(base(0, uint64(i), tuple.Value(i)))
	}
	n := 0
	tb.Each(func(*tuple.Tuple) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("Each early stop visited %d", n)
	}
	tb.MarkIncomplete(0)
	tb.Clear()
	if tb.Size() != 0 || tb.DistinctKeys() != 0 || len(scanAll(tb)) != 0 {
		t.Fatal("Clear left tuples")
	}
	if tb.Complete() {
		t.Fatal("Clear dropped the completeness flag")
	}
}

func BenchmarkTableInsertProbe(b *testing.B) {
	tb := NewTable(tuple.NewStreamSet(0))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb.Insert(base(0, uint64(i), tuple.Value(i%1024)))
		tb.Probe(tuple.Value(i % 1024))
	}
}

func TestTableRemoveKey(t *testing.T) {
	tb := NewTable(tuple.NewStreamSet(0))
	tb.Insert(base(0, 1, 5))
	tb.Insert(base(0, 2, 5))
	tb.Insert(base(0, 3, 9))
	moved := tb.RemoveKey(5).Len()
	if moved != 2 || tb.Size() != 1 || tb.ContainsKey(5) {
		t.Fatalf("RemoveKey: moved=%d size=%d", moved, tb.Size())
	}
	if tb.RemoveKey(5).Len() != 0 {
		t.Fatal("second RemoveKey returned tuples")
	}
	if tb.RemoveKey(42).Len() != 0 {
		t.Fatal("RemoveKey of absent key returned tuples")
	}
}

func TestTableRestoreMeta(t *testing.T) {
	tb := NewTable(tuple.NewStreamSet(0, 1))
	tb.RestoreMeta(false, 17, []tuple.Value{1, 2}, []tuple.Value{3}, tuple.NewStreamSet(1))
	if tb.Complete() || !tb.Attempted(1) || !tb.Attempted(2) || tb.Attempted(3) {
		t.Fatal("attempted set not restored")
	}
	if !tb.CounterArmed() || tb.Counter() != 1 || tb.CounterSide() != tuple.NewStreamSet(1) || tb.Born() != 17 {
		t.Fatalf("counter: armed=%v n=%d side=%v born=%d", tb.CounterArmed(), tb.Counter(), tb.CounterSide(), tb.Born())
	}
	got, armed := tb.PendingKeys()
	if !armed || len(got) != 1 || got[0] != 3 {
		t.Fatalf("PendingKeys = %v %v", got, armed)
	}
	if keys := tb.AttemptedKeys(); len(keys) != 2 {
		t.Fatalf("AttemptedKeys = %v", keys)
	}
	tb.RestoreMeta(true, 17, nil, nil, tuple.NewStreamSet(1))
	if !tb.Complete() || tb.Born() != 0 || tb.CounterSide() != 0 {
		t.Fatal("complete restore failed")
	}
	if keys := tb.AttemptedKeys(); len(keys) != 0 {
		t.Fatalf("complete table attempted keys = %v", keys)
	}
	if _, armed := tb.PendingKeys(); armed {
		t.Fatal("complete table reports armed counter")
	}
}

// TestListRestoreMeta: a nested-loops state restores with no attempted
// key and no counter — it is completed whole, never by key.
func TestListRestoreMeta(t *testing.T) {
	tb := NewTable(tuple.NewStreamSet(0, 1))
	tb.RestoreMeta(false, 3, nil, nil, 0)
	if tb.Complete() || tb.Attempted(4) || len(tb.AttemptedKeys()) != 0 || tb.CounterArmed() {
		t.Fatal("incomplete restore carried marks")
	}
	tb.RestoreMeta(true, 0, nil, nil, 0)
	if !tb.Complete() {
		t.Fatal("complete restore failed")
	}
}

// TestTableArenaReuse pins the allocation-lean eviction contract: a
// run emptied by RemoveRef donates its backing array to the next
// Insert of a fresh key, and repeated insert/evict cycles in steady
// state allocate nothing new for runs or removal results.
func TestTableArenaReuse(t *testing.T) {
	tb := NewTable(tuple.NewStreamSet(0))
	// Fill and fully drain a key so its array lands on the free list.
	for seq := uint64(0); seq < 4; seq++ {
		tb.Insert(base(0, seq, 7))
	}
	for seq := uint64(0); seq < 4; seq++ {
		tb.RemoveRef(7, tuple.Ref{Stream: 0, Seq: seq}, nil)
	}
	if len(tb.free) != 1 {
		t.Fatalf("free list has %d arrays, want 1", len(tb.free))
	}
	recycled := tb.free[0]
	tb.Insert(base(0, 100, 9))
	if got := tb.Probe(9); got.Len() != 1 || cap(recycled) == 0 ||
		&got.Data[:1][0] != &recycled[:1][0] {
		t.Fatal("Insert did not reuse the recycled run")
	}
	// Steady state: evict+insert cycles must not allocate.
	seq := uint64(1000)
	seqs := make([]uint64, 1)
	allocs := testing.AllocsPerRun(200, func() {
		tb.RemoveRef(9, tuple.Ref{Stream: 0, Seq: seq - 900}, nil)
		seqs[0] = seq + 100 - 900
		tb.Insert(&tuple.Tuple{Key: 9, Set: tuple.NewStreamSet(0), Seqs: seqs})
		seq++
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per evict+insert cycle", allocs)
	}
}

// TestTableRemoveRefCopiesIntoDestination documents the RemoveRef
// result: a count, and — only when the caller passes a destination — a
// copy of the removed rows, reusing the destination's array, which the
// table never touches again.
func TestTableRemoveRefCopiesIntoDestination(t *testing.T) {
	tb := NewTable(tuple.NewStreamSet(0))
	tb.Insert(base(0, 1, 1))
	tb.Insert(base(0, 2, 2))
	tb.Insert(base(0, 3, 2))
	var dst tuple.Rows
	var v tuple.Tuple
	if n := tb.RemoveRef(1, tuple.Ref{Stream: 0, Seq: 1}, &dst); n != 1 || dst.Len() != 1 || dst.Key != 1 || dst.View(0, &v).First().Seq != 1 {
		t.Fatalf("first removal: %d rows, destination %v", n, tuples(dst))
	}
	array := &dst.Data[0]
	if n := tb.RemoveRef(2, tuple.Ref{Stream: 0, Seq: 2}, &dst); n != 1 || dst.Len() != 1 || dst.Key != 2 || dst.View(0, &v).First().Seq != 2 {
		t.Fatalf("second removal: %d rows, destination %v", n, tuples(dst))
	}
	if &dst.Data[0] != array {
		t.Fatal("the second removal did not reuse the destination's array")
	}
	// The table's own run moved down over the removed row; the copy
	// did not move with it.
	tb.Insert(base(0, 4, 2))
	if dst.View(0, &v).First().Seq != 2 {
		t.Fatalf("the destination changed under a later Insert: %v", tuples(dst))
	}
	if n := tb.RemoveRef(2, tuple.Ref{Stream: 0, Seq: 9}, &dst); n != 0 || dst.Len() != 0 {
		t.Fatalf("a miss removed %d rows and left %v in the destination", n, tuples(dst))
	}
	if n := tb.RemoveRef(2, tuple.Ref{Stream: 0, Seq: 3}, nil); n != 1 || tb.Size() != 1 {
		t.Fatalf("a removal without a destination removed %d rows, size %d", n, tb.Size())
	}
}
