package statestore_test

import (
	"fmt"
	"slices"
	"testing"

	"jisc/internal/state"
	"jisc/internal/statestore"
	"jisc/internal/storage"
	"jisc/internal/tuple"
)

func mustOpen(t *testing.T, opts statestore.Options) *statestore.Store {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = "spill"
	}
	if opts.FS == nil {
		opts.FS = storage.NewMemFS()
	}
	s, err := statestore.Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func base(stream tuple.StreamID, seq uint64, key tuple.Value) *tuple.Tuple {
	return tuple.NewBase(stream, seq, key, seq)
}

// fill inserts n base tuples with distinct keys into tbl.
func fill(tbl *state.Table, n int) {
	for i := 0; i < n; i++ {
		tbl.Insert(base(0, uint64(i+1), tuple.Value(i)))
	}
}

func TestSpillAndFaultRoundTrip(t *testing.T) {
	perTuple := oneRowKey
	s := mustOpen(t, statestore.Options{Budget: 4 * perTuple})
	tbl := state.NewTable(tuple.NewStreamSet(0))
	tbl.SetStore(s)

	fill(tbl, 16)
	st := s.Stats()
	if st.ResidentBytes > 4*perTuple {
		t.Fatalf("resident %d exceeds budget %d", st.ResidentBytes, 4*perTuple)
	}
	if st.Spills == 0 || st.SpilledBuckets == 0 {
		t.Fatalf("expected spills, got %+v", st)
	}
	if tbl.Size() != 16 {
		t.Fatalf("logical size = %d, want 16", tbl.Size())
	}
	if tbl.DistinctKeys() != 16 {
		t.Fatalf("distinct keys = %d, want 16", tbl.DistinctKeys())
	}
	// Probe every key: spilled buckets fault back with identical
	// contents.
	for i := 0; i < 16; i++ {
		got := tuples(tbl.Probe(tuple.Value(i)))
		if len(got) != 1 {
			t.Fatalf("probe key %d: %d tuples, want 1", i, len(got))
		}
		tup := got[0]
		if tup.Key != tuple.Value(i) || len(tup.Seqs) != 1 || tup.First() != (tuple.Ref{Stream: 0, Seq: uint64(i + 1)}) {
			t.Fatalf("probe key %d returned wrong tuple: %v", i, tup)
		}
		if tup.Arrival != uint64(i+1) {
			t.Fatalf("probe key %d lost ticks: %v", i, tup)
		}
	}
	if s.Stats().Faults == 0 {
		t.Fatal("expected faults")
	}
	if got := s.Stats().ResidentBytes; got > 4*perTuple {
		t.Fatalf("resident %d exceeds budget after probes", got)
	}
}

func TestMultiTupleBuckets(t *testing.T) {
	s := mustOpen(t, statestore.Options{Budget: 1}) // everything spills
	tbl := state.NewTable(tuple.NewStreamSet(0))
	tbl.SetStore(s)

	for i := 0; i < 6; i++ {
		tbl.Insert(base(0, uint64(i+1), tuple.Value(i%2)))
	}
	if tbl.Size() != 6 {
		t.Fatalf("size = %d", tbl.Size())
	}
	got := tuples(tbl.Probe(0))
	if len(got) != 3 {
		t.Fatalf("bucket 0 has %d tuples, want 3", len(got))
	}
	for _, tup := range got {
		seq := tup.First().Seq
		if tup.Key != 0 || tup.Set != tuple.NewStreamSet(0) || seq%2 != 1 || tup.Arrival != seq {
			t.Fatalf("tuple changed in the round trip: %v arrival %d", tup, tup.Arrival)
		}
	}
}

func TestTombstoneEviction(t *testing.T) {
	perTuple := oneRowKey
	s := mustOpen(t, statestore.Options{Budget: 2 * perTuple})
	tbl := state.NewTable(tuple.NewStreamSet(0))
	tbl.SetStore(s)

	// Two tuples per key so tombstones have a partial phase.
	for i := 0; i < 8; i++ {
		tbl.Insert(base(0, uint64(i+1), tuple.Value(i%4)))
	}
	if s.Stats().SpilledBuckets == 0 {
		t.Fatal("expected spilled buckets")
	}
	// Evict the first round (seqs 1..4) in order, like a sliding
	// window would.
	for i := 0; i < 4; i++ {
		tbl.RemoveRef(tuple.Value(i%4), tuple.Ref{Stream: 0, Seq: uint64(i + 1)}, nil)
	}
	if tbl.Size() != 4 {
		t.Fatalf("size after eviction = %d, want 4", tbl.Size())
	}
	// Every key still has one live tuple, visible without faulting.
	for i := 0; i < 4; i++ {
		if !tbl.ContainsKey(tuple.Value(i)) {
			t.Fatalf("key %d vanished", i)
		}
	}
	// Faulting in filters the tombstoned tuples.
	for i := 0; i < 4; i++ {
		got := tuples(tbl.Probe(tuple.Value(i)))
		if len(got) != 1 {
			t.Fatalf("key %d: %d tuples, want 1", i, len(got))
		}
		if got[0].First().Seq != uint64(i+5) {
			t.Fatalf("key %d: survivor has seq %d, want %d", i, got[0].First().Seq, i+5)
		}
	}
	// Evict the second round; keys disappear entirely.
	for i := 0; i < 4; i++ {
		tbl.RemoveRef(tuple.Value(i%4), tuple.Ref{Stream: 0, Seq: uint64(i + 5)}, nil)
	}
	if tbl.Size() != 0 {
		t.Fatalf("size = %d, want 0", tbl.Size())
	}
	for i := 0; i < 4; i++ {
		if tbl.ContainsKey(tuple.Value(i)) {
			t.Fatalf("key %d still present", i)
		}
	}
}

func TestEachAndCountOldCoverSpilled(t *testing.T) {
	s := mustOpen(t, statestore.Options{Budget: 1})
	tbl := state.NewTable(tuple.NewStreamSet(0))
	tbl.SetStore(s)
	fill(tbl, 10)

	faultsBefore := s.Stats().Faults
	seen := make(map[tuple.Value]bool)
	tbl.Each(func(tup *tuple.Tuple) bool {
		seen[tup.Key] = true
		return true
	})
	if len(seen) != 10 {
		t.Fatalf("Each saw %d keys, want 10", len(seen))
	}
	cutoff := make([]uint64, tuple.MaxStreams)
	cutoff[0] = 5
	if n := tbl.CountOld(cutoff); n != 5 {
		t.Fatalf("CountOld = %d, want 5", n)
	}
	if s.Stats().Faults != faultsBefore {
		t.Fatal("iteration must not fault buckets in")
	}
}

func TestClearDropsSpilled(t *testing.T) {
	s := mustOpen(t, statestore.Options{Budget: 1})
	tbl := state.NewTable(tuple.NewStreamSet(0))
	tbl.SetStore(s)
	fill(tbl, 10)

	tbl.Clear()
	if tbl.Size() != 0 || tbl.DistinctKeys() != 0 || tbl.Bytes() != 0 {
		t.Fatalf("Clear left size=%d keys=%d bytes=%d", tbl.Size(), tbl.DistinctKeys(), tbl.Bytes())
	}
	st := s.Stats()
	if st.SpilledBuckets != 0 || st.SpilledBytes != 0 {
		t.Fatalf("Clear left spilled state: %+v", st)
	}
	if st.ResidentBytes != 0 {
		t.Fatalf("Clear left resident accounting: %d", st.ResidentBytes)
	}
	// The table is fully usable after Clear.
	fill(tbl, 4)
	if tbl.Size() != 4 {
		t.Fatalf("size after refill = %d", tbl.Size())
	}
}

// seqs lists the stream-0 sequence numbers of tuples, in order.
func seqs(tuples []*tuple.Tuple) []uint64 {
	out := make([]uint64, len(tuples))
	for i, tup := range tuples {
		out[i] = tup.First().Seq
	}
	return out
}

// TestInsertUnderSpilledKeyNeverFaults pins write-only spills: an
// insert under a spilled key reads nothing and starts a resident part
// beside the spilled one; the table's answers stay exact while the key
// is split; a second spill of the key adds a span; and the next probe
// returns every part in arrival order — on a scan table and on a
// set-difference table, which stores base tuples under a wider set.
func TestInsertUnderSpilledKeyNeverFaults(t *testing.T) {
	for _, set := range []tuple.StreamSet{tuple.NewStreamSet(0), tuple.NewStreamSet(0, 1)} {
		perTuple := oneRowKey
		fs := &statestore.CountingFS{FS: storage.NewMemFS()}
		s := mustOpen(t, statestore.Options{Budget: 2 * perTuple, FS: fs})
		tbl := state.NewTable(set)
		tbl.SetStore(s)
		fill(tbl, 6) // keys 0..5, seqs 1..6; key 0 is long spilled
		if tuples(tbl.ResidentBucket(0)) != nil {
			t.Fatal("key 0 still resident; the test needs it spilled")
		}
		tbl.Insert(base(0, 100, 0))
		if got := seqs(tuples(tbl.ResidentBucket(0))); fmt.Sprint(got) != "[100]" {
			t.Fatalf("resident part of key 0 = %v, want [100]", got)
		}
		// Push the resident part out too, then start a third part.
		for i := 6; i < 10; i++ {
			tbl.Insert(base(0, uint64(i+1), tuple.Value(i)))
		}
		if tuples(tbl.ResidentBucket(0)) != nil {
			t.Fatal("second part of key 0 was not spilled")
		}
		tbl.Insert(base(0, 200, 0))
		if st := s.Stats(); st.Faults != 0 || fs.Reads.Load() != 0 {
			t.Fatalf("inserts faulted %d times and read %d times, want none", st.Faults, fs.Reads.Load())
		}
		if tbl.Size() != 12 || !tbl.ContainsKey(0) || tbl.DistinctKeys() != 10 || len(tbl.Keys(nil)) != 10 {
			t.Fatalf("split key miscounted: size %d, contains %v, distinct %d, keys %d",
				tbl.Size(), tbl.ContainsKey(0), tbl.DistinctKeys(), len(tbl.Keys(nil)))
		}
		var each []uint64
		tbl.Each(func(tup *tuple.Tuple) bool {
			if tup.Key == 0 {
				each = append(each, tup.First().Seq)
			}
			return true
		})
		if fmt.Sprint(each) != "[1 100 200]" {
			t.Fatalf("Each visited key 0 as %v, want [1 100 200]", each)
		}
		if got := seqs(tuples(tbl.Probe(0))); fmt.Sprint(got) != "[1 100 200]" {
			t.Fatalf("probe of key 0 = %v, want [1 100 200] (table %v)", got, set)
		}
		if st := s.Stats(); st.Faults != 1 || st.FaultTuples != 2 {
			t.Fatalf("one fault of two spans expected, got %+v", st)
		}
		if tbl.Size() != 12 || tbl.DistinctKeys() != 10 {
			t.Fatalf("after the merge: size %d, distinct %d", tbl.Size(), tbl.DistinctKeys())
		}
	}
}

// TestTombstoneRoutesBySeq covers expiry of a split key on a scan
// table: refs no newer than the spilled part are tombstoned there,
// newer ones leave the resident part, and nothing is read either way.
func TestTombstoneRoutesBySeq(t *testing.T) {
	perTuple := oneRowKey
	s := mustOpen(t, statestore.Options{Budget: 2 * perTuple})
	tbl := state.NewTable(tuple.NewStreamSet(0))
	tbl.SetStore(s)
	tbl.Insert(base(0, 1, 0))
	tbl.Insert(base(0, 2, 0))
	for i := 1; i < 5; i++ {
		tbl.Insert(base(0, uint64(i+2), tuple.Value(i)))
	}
	tbl.Insert(base(0, 7, 0)) // resident part beside the spilled {1, 2}
	if tuples(tbl.ResidentBucket(0)) == nil || s.Stats().SpilledBuckets == 0 {
		t.Fatal("key 0 is not split")
	}
	tbl.RemoveRef(0, tuple.Ref{Stream: 0, Seq: 1}, nil)
	if got := seqs(tuples(tbl.ResidentBucket(0))); fmt.Sprint(got) != "[7]" || tbl.Size() != 6 {
		t.Fatalf("expiring seq 1 touched the resident part: %v, size %d", got, tbl.Size())
	}
	if got := tuples(removeRows(tbl, 0, tuple.Ref{Stream: 0, Seq: 7})); len(got) != 1 || !tbl.ContainsKey(0) {
		t.Fatalf("expiring seq 7 removed %v, key present %v", got, tbl.ContainsKey(0))
	}
	tbl.RemoveRef(0, tuple.Ref{Stream: 0, Seq: 2}, nil)
	if tbl.ContainsKey(0) || tbl.Size() != 4 {
		t.Fatalf("key 0 should be gone: contains %v, size %d", tbl.ContainsKey(0), tbl.Size())
	}
	if st := s.Stats(); st.Faults != 0 || st.Tombstones != 2 {
		t.Fatalf("want 2 tombstones and no fault, got %+v", st)
	}
}

func TestCompaction(t *testing.T) {
	perTuple := oneRowKey
	fs := &statestore.CountingFS{FS: storage.NewMemFS()}
	s := mustOpen(t, statestore.Options{Budget: perTuple, MinCompactBytes: 256, SegmentBytes: 1024, FS: fs})
	tbl := state.NewTable(tuple.NewStreamSet(0))
	tbl.SetStore(s)

	// Spill a lot, then evict most of it so garbage accumulates.
	for i := 0; i < 64; i++ {
		tbl.Insert(base(0, uint64(i+1), tuple.Value(i)))
	}
	for i := 0; i < 56; i++ {
		tbl.RemoveRef(tuple.Value(i), tuple.Ref{Stream: 0, Seq: uint64(i + 1)}, nil)
	}
	st := s.Stats()
	if o, c := fs.Opens.Load(), fs.Closes.Load(); o-c != st.Segments {
		t.Fatalf("%d read handles open for %d segments (opened %d, closed %d)", o-c, st.Segments, o, c)
	}
	if st.Compactions == 0 {
		t.Fatalf("expected compactions, got %+v", st)
	}
	if st.GarbageBytes < 0 {
		t.Fatalf("negative garbage: %+v", st)
	}
	// Surviving keys are intact.
	live := 0
	for i := 0; i < 64; i++ {
		if tbl.ContainsKey(tuple.Value(i)) {
			live++
		}
	}
	if live != 8 {
		t.Fatalf("%d live keys, want 8", live)
	}
	if tbl.Size() != 8 {
		t.Fatalf("size = %d, want 8", tbl.Size())
	}
}

// TestCompactionCopyMatchesDecode runs the same history twice — once
// with no tombstone on the surviving keys, so compaction copies their
// spans byte for byte, once with one tuple of each expired first, so it
// decodes, filters and re-encodes them — and requires both to fault
// back exactly what an unbacked table holds, multi-span keys included.
func TestCompactionCopyMatchesDecode(t *testing.T) {
	for _, tombstoned := range []bool{false, true} {
		perTuple := oneRowKey
		s := mustOpen(t, statestore.Options{Budget: perTuple, MinCompactBytes: 256, SegmentBytes: 1024})
		tbl, model := state.NewTable(tuple.NewStreamSet(0)), state.NewTable(tuple.NewStreamSet(0))
		tbl.SetStore(s)
		seq := uint64(0)
		insert := func(key tuple.Value) {
			seq++
			tbl.Insert(base(0, seq, key))
			model.Insert(base(0, seq, key))
		}
		// Keys 0..7 survive with three tuples in two or three spans each;
		// keys 100.. are filler that becomes garbage.
		for round := 0; round < 3; round++ {
			for k := 0; k < 8; k++ {
				insert(tuple.Value(k))
			}
		}
		for k := 100; k < 180; k++ {
			insert(tuple.Value(k))
		}
		if tombstoned {
			for k := 0; k < 8; k++ {
				ref := tuple.Ref{Stream: 0, Seq: uint64(k + 1)}
				tbl.RemoveRef(tuple.Value(k), ref, nil)
				model.RemoveRef(tuple.Value(k), ref, nil)
			}
		}
		before := s.Stats().Compactions
		for k := 100; k < 180; k++ {
			ref := tuple.Ref{Stream: 0, Seq: uint64(24 + k - 100 + 1)}
			tbl.RemoveRef(tuple.Value(k), ref, nil)
			model.RemoveRef(tuple.Value(k), ref, nil)
		}
		st := s.Stats()
		if st.Compactions == before {
			t.Fatalf("tombstoned=%v: no compaction ran: %+v", tombstoned, st)
		}
		if st.Faults != 0 {
			t.Fatalf("tombstoned=%v: eviction faulted: %+v", tombstoned, st)
		}
		for k := 0; k < 8; k++ {
			got, want := seqs(tuples(tbl.Probe(tuple.Value(k)))), seqs(tuples(model.Probe(tuple.Value(k))))
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("tombstoned=%v key %d: faulted %v, model %v", tombstoned, k, got, want)
			}
		}
		if tbl.Size() != model.Size() {
			t.Fatalf("tombstoned=%v: size %d, model %d", tombstoned, tbl.Size(), model.Size())
		}
	}
}

func TestFaultLoadedSliceSurvivesRespill(t *testing.T) {
	perTuple := oneRowKey
	s := mustOpen(t, statestore.Options{Budget: 2 * perTuple})
	tbl := state.NewTable(tuple.NewStreamSet(0))
	tbl.SetStore(s)
	fill(tbl, 8)

	// Hold the lent rows, then force churn that re-spills the bucket;
	// the held rows must stay valid.
	held := tbl.Probe(0)
	if held.Len() != 1 {
		t.Fatalf("probe: %d tuples", held.Len())
	}
	for i := 100; i < 120; i++ {
		tbl.Insert(base(0, uint64(i+1), tuple.Value(i)))
	}
	if tbl.ResidentBucket(0).Len() != 0 {
		t.Fatal("key 0 did not spill again")
	}
	var v tuple.Tuple
	if got := held.View(0, &v); got.Key != 0 || got.First().Seq != 1 {
		t.Fatalf("held rows corrupted: %v", got)
	}
}

func TestUnboundedBudgetNeverSpills(t *testing.T) {
	s := mustOpen(t, statestore.Options{Budget: 0})
	tbl := state.NewTable(tuple.NewStreamSet(0))
	tbl.SetStore(s)
	fill(tbl, 100)
	st := s.Stats()
	if st.Spills != 0 {
		t.Fatalf("unbounded store spilled: %+v", st)
	}
	if st.ResidentBytes != tbl.Bytes() {
		t.Fatalf("accounting mismatch: store %d, table %d", st.ResidentBytes, tbl.Bytes())
	}
}

// coolAll clears every reference bit of tbl, as one pass of the hand
// would, without spilling anything.
func coolAll(tbl *state.Table) {
	for from := 0; ; {
		_, next, ok := tbl.Sweep(from)
		if !ok {
			return
		}
		from = next
	}
}

// residentKeys lists which of keys 0..n-1 have a resident bucket.
func residentKeys(tbl *state.Table, n int) []tuple.Value {
	var out []tuple.Value
	for k := range tuple.Value(n) {
		if tuples(tbl.ResidentBucket(k)) != nil {
			out = append(out, k)
		}
	}
	return out
}

// TestClockSweep pins the CLOCK hand that walks the tables' own slots.
// Every case stays at six keys or fewer per table, so no index grows
// and slot positions hold still under the hand.
func TestClockSweep(t *testing.T) {
	perTuple := oneRowKey

	// A bucket touched after the hand cleared it outlives every cold
	// bucket: the hand meets all of them before it comes round again.
	t.Run("second chance", func(t *testing.T) {
		s := mustOpen(t, statestore.Options{Budget: 4 * perTuple})
		tbl := state.NewTable(tuple.NewStreamSet(0))
		tbl.SetStore(s)
		fill(tbl, 6) // keys 0..5, two spilled
		coolAll(tbl)
		cold := residentKeys(tbl, 6)
		if len(cold) != 4 || s.Stats().Spills != 2 {
			t.Fatalf("set-up: resident %v, %+v", cold, s.Stats())
		}
		touched := cold[0]
		tuples(tbl.Probe(touched))
		// Inserts under a key spilled at set-up grow its hot resident
		// part: the first charges the part's slot and a row, a whole key's
		// worth, each later one a row, a quarter of that. Six of them
		// push out three buckets.
		spilled := tuple.Value(0)
		for slices.Contains(cold, spilled) {
			spilled++
		}
		for i := range 6 {
			tbl.Insert(base(0, uint64(100+i), spilled))
		}
		if got := s.Stats().Spills; got != 5 {
			t.Fatalf("%d spills, want 5", got)
		}
		for _, k := range cold {
			if resident := tuples(tbl.ResidentBucket(k)) != nil; resident != (k == touched) {
				t.Fatalf("key %d resident %v; only the touched key %d should be", k, resident, touched)
			}
		}
	})

	// The hand takes every cold bucket of one table, then walks on into
	// the next one, which it passes over in slot order.
	t.Run("crosses tables", func(t *testing.T) {
		s := mustOpen(t, statestore.Options{Budget: 4 * perTuple})
		a, b := state.NewTable(tuple.NewStreamSet(0)), state.NewTable(tuple.NewStreamSet(1))
		a.SetStore(s)
		b.SetStore(s)
		fill(a, 2)
		b.Insert(base(1, 1, 0))
		b.Insert(base(1, 2, 1))
		coolAll(a)
		coolAll(b)
		b.Insert(base(1, 3, 2))
		b.Insert(base(1, 4, 3))
		if a.Bytes() != 0 {
			t.Fatalf("a keeps %d resident bytes; its two cold buckets go first", a.Bytes())
		}
		if tb, _, _ := s.Hand(); tb != 0 {
			t.Fatalf("hand on table %d before a is walked to its end, want 0", tb)
		}
		b.Insert(base(1, 5, 4))
		if tb, slot, _ := s.Hand(); tb != 1 || slot == 0 {
			t.Fatalf("hand at table %d slot %d, want inside b", tb, slot)
		}
		if got := residentKeys(b, 5); len(got) != 4 || got[0] > 1 || got[1] != 2 {
			t.Fatalf("b resident %v: one of the cold keys 0, 1 should have gone, the hot 2..4 stay", got)
		}
		if st := s.Stats(); st.Spills != 3 {
			t.Fatalf("%d spills, want 3", st.Spills)
		}
	})

	// Releasing a table before the hand shifts the hand with the list;
	// releasing the one under it moves the hand to the next table.
	t.Run("detach", func(t *testing.T) {
		s := mustOpen(t, statestore.Options{Budget: 2 * perTuple})
		a, b, c := state.NewTable(tuple.NewStreamSet(0)), state.NewTable(tuple.NewStreamSet(1)), state.NewTable(tuple.NewStreamSet(2))
		for _, tb := range []*state.Table{a, b, c} {
			tb.SetStore(s)
		}
		// a and b hold nothing, so the hand passes them without a walk.
		for k := range 3 {
			c.Insert(base(2, uint64(k+1), tuple.Value(k)))
		}
		tb, slot, n := s.Hand()
		if tb != 2 || slot == 0 || n != 3 {
			t.Fatalf("hand at table %d slot %d of %d, want inside c (2 of 3)", tb, slot, n)
		}
		a.Release()
		if tb2, slot2, n2 := s.Hand(); tb2 != 1 || slot2 != slot || n2 != 2 {
			t.Fatalf("after releasing a: table %d slot %d of %d, want 1 slot %d of 2", tb2, slot2, n2, slot)
		}
		c.Release()
		if tb2, slot2, n2 := s.Hand(); tb2 != 1 || slot2 != 0 || n2 != 1 {
			t.Fatalf("after releasing c: table %d slot %d of %d, want 1 slot 0 of 1", tb2, slot2, n2)
		}
		for k := range 3 {
			b.Insert(base(1, uint64(k+1), tuple.Value(k)))
		}
		if tb2, slot2, _ := s.Hand(); tb2 != 0 || slot2 == 0 {
			t.Fatalf("hand at table %d slot %d, want wrapped into b", tb2, slot2)
		}
		if st := s.Stats(); st.Spills != 2 || st.ResidentBytes != 2*perTuple {
			t.Fatalf("want one spill from c and one from b: %+v", st)
		}
	})

	// With every bucket hot the first revolution only clears bits and
	// the second finds a victim; with nothing resident to take, the
	// search gives up after two revolutions.
	t.Run("two revolutions", func(t *testing.T) {
		s := mustOpen(t, statestore.Options{Budget: 4 * perTuple})
		tbl := state.NewTable(tuple.NewStreamSet(0))
		tbl.SetStore(s)
		fill(tbl, 5)
		if st := s.Stats(); st.Spills != 1 {
			t.Fatalf("all hot: %d spills, want 1", st.Spills)
		}
		// An accounting-only table over the whole budget leaves the
		// hand nothing to take: it is never walked.
		nl := state.NewTable(tuple.NewStreamSet(1))
		nl.AccountTo(s)
		for k := range 8 {
			nl.Insert(base(1, uint64(k+1), tuple.Value(k)))
		}
		if st := s.Stats(); tbl.Bytes() != 0 || st.Spills != 5 || st.ResidentBytes != nl.Bytes() || nl.Size() != 8 {
			t.Fatalf("table keeps %d resident bytes, the accounting-only one %d: %+v", tbl.Bytes(), nl.Bytes(), st)
		}
	})
}

// crashNow exhausts a CrashFS's write budget.
func crashNow(crash *storage.CrashFS) {
	for !crash.Crashed() {
		f, err := crash.Create("burn")
		if err != nil {
			break
		}
		f.Write(make([]byte, 1<<16))
		f.Close()
	}
}

func TestSpillWriteFailureFailsOpen(t *testing.T) {
	perTuple := oneRowKey
	// Let the store set itself up, then cut the disk.
	crash := storage.NewCrashFS(storage.NewMemFS(), 1<<20)
	s := mustOpen(t, statestore.Options{Budget: 2 * perTuple, FS: crash})
	tbl := state.NewTable(tuple.NewStreamSet(0))
	tbl.SetStore(s)
	fill(tbl, 4)
	crashNow(crash)
	// Inserts keep working. Spills are buffered, so the store meets the
	// dead disk when the tail first fills: that flush fails, the buckets
	// it carried stay readable from memory, and every later bucket stays
	// resident because no new segment can be created.
	const n = 4000 // ≈ 200 KiB encoded, three tails' worth
	for i := 100; i < 100+n; i++ {
		tbl.Insert(base(0, uint64(i+1), tuple.Value(i)))
	}
	st := s.Stats()
	if st.SpillErrors == 0 {
		t.Fatalf("expected spill errors, got %+v", st)
	}
	if st.SegmentBytes > 2*statestore.TailBytes {
		t.Fatalf("%d bytes spilled after the disk died; only the first tail should be", st.SegmentBytes)
	}
	if tbl.Size() != 4+n {
		t.Fatalf("size = %d, want %d", tbl.Size(), 4+n)
	}
	for i := 100; i < 100+n; i++ {
		got := tuples(tbl.Probe(tuple.Value(i)))
		if len(got) != 1 || got[0].First().Seq != uint64(i+1) {
			t.Fatalf("key %d lost after write failure: %v", i, got)
		}
	}
}

// TestFailedFlushLosesNoBucket is the buffered-tail half of fail-open:
// many buckets are detached into one tail, the flush that would carry
// them fails, and each is still there — through a probe, through
// iteration, and through window expiry.
func TestFailedFlushLosesNoBucket(t *testing.T) {
	crash := storage.NewCrashFS(storage.NewMemFS(), 1<<20)
	s := mustOpen(t, statestore.Options{Budget: 1, FS: crash}) // everything spills
	tbl := state.NewTable(tuple.NewStreamSet(0))
	tbl.SetStore(s)
	fill(tbl, 200) // far less than a tail: nothing has been written yet
	if st := s.Stats(); st.Spills < 199 || st.SpillErrors != 0 {
		t.Fatalf("set-up: %+v", st)
	}
	crashNow(crash)
	// Fill the tail; its flush fails.
	for i := 200; s.Stats().SpillErrors == 0; i++ {
		if i > 5000 {
			t.Fatal("the tail never flushed")
		}
		tbl.Insert(base(0, uint64(i+1), tuple.Value(i)))
	}
	size := tbl.Size()
	seen := 0
	tbl.Each(func(*tuple.Tuple) bool { seen++; return true })
	if seen != size {
		t.Fatalf("Each saw %d of %d tuples after the failed flush", seen, size)
	}
	tbl.RemoveRef(0, tuple.Ref{Stream: 0, Seq: 1}, nil)
	if tbl.ContainsKey(0) || tbl.Size() != size-1 {
		t.Fatal("expiry of a bucket in the unflushed tail went wrong")
	}
	for i := 1; i < 200; i++ {
		got := tuples(tbl.Probe(tuple.Value(i)))
		if len(got) != 1 || got[0].First().Seq != uint64(i+1) {
			t.Fatalf("key %d, detached before the failed flush, reads back %v", i, got)
		}
	}
}

func TestReleaseForgetsTable(t *testing.T) {
	s := mustOpen(t, statestore.Options{Budget: 1})
	a := state.NewTable(tuple.NewStreamSet(0))
	a.SetStore(s)
	b := state.NewTable(tuple.NewStreamSet(1))
	b.SetStore(s)
	fill(a, 10)
	for i := 0; i < 10; i++ {
		b.Insert(base(1, uint64(i+1), tuple.Value(i)))
	}
	a.Release()
	st := s.Stats()
	if st.ResidentBytes != b.Bytes() {
		t.Fatalf("release did not drop a's accounting: store %d, b %d", st.ResidentBytes, b.Bytes())
	}
	// b is untouched.
	for i := 0; i < 10; i++ {
		if len(tuples(b.Probe(tuple.Value(i)))) != 1 {
			t.Fatalf("b key %d lost", i)
		}
	}
}

// TestListAccounting: a table attached for accounting only — a
// nested-loops state, scanned whole — charges the store like any table
// (its rows' words plus one slot per key) but is never spilled, however
// far over the budget it grows, and its release hands the bytes back.
func TestListAccounting(t *testing.T) {
	s := mustOpen(t, statestore.Options{Budget: 2 * oneRowKey})
	nl := state.NewTable(tuple.NewStreamSet(0))
	nl.AccountTo(s)
	for i := 0; i < 10; i++ {
		nl.Insert(base(0, uint64(i+1), tuple.Value(i)))
	}
	want := 10 * oneRowKey
	if st := s.Stats(); nl.Bytes() != want || st.ResidentBytes != want || st.Spills != 0 {
		t.Fatalf("table bytes %d, store %+v, want %d resident and no spill", nl.Bytes(), st, want)
	}
	if nl.RemoveRef(0, tuple.Ref{Stream: 0, Seq: 1}, nil) != 1 {
		t.Fatal("RemoveRef removed nothing")
	}
	want -= oneRowKey
	if nl.Bytes() != want || s.Stats().ResidentBytes != want {
		t.Fatalf("after remove: table %d, store %d, want %d", nl.Bytes(), s.Stats().ResidentBytes, want)
	}
	nl.Release()
	if s.Stats().ResidentBytes != 0 {
		t.Fatalf("after release: store %d", s.Stats().ResidentBytes)
	}
}

// TestRealFS exercises the read path against the actual filesystem
// (most other tests run on MemFS).
func TestRealFS(t *testing.T) {
	perTuple := oneRowKey
	s := mustOpen(t, statestore.Options{Budget: 2 * perTuple, Dir: t.TempDir() + "/spill"})
	tbl := state.NewTable(tuple.NewStreamSet(0))
	tbl.SetStore(s)
	fill(tbl, 32)
	for i := 0; i < 32; i++ {
		got := tuples(tbl.Probe(tuple.Value(i)))
		if len(got) != 1 || got[0].First().Seq != uint64(i+1) {
			t.Fatalf("key %d: %v", i, got)
		}
	}
	if s.Stats().Faults == 0 {
		t.Fatal("expected faults on real fs")
	}
}

func TestSegmentRotation(t *testing.T) {
	s := mustOpen(t, statestore.Options{Budget: 1, SegmentBytes: 256, MinCompactBytes: 1 << 30})
	tbl := state.NewTable(tuple.NewStreamSet(0))
	tbl.SetStore(s)
	fill(tbl, 64)
	if got := s.Stats().Segments; got < 2 {
		t.Fatalf("segments = %d, want rotation past 1", got)
	}
	// All buckets readable across segments.
	for i := 0; i < 64; i++ {
		if len(tuples(tbl.Probe(tuple.Value(i)))) != 1 {
			t.Fatalf("key %d unreadable", i)
		}
	}
}

func TestStatsAdd(t *testing.T) {
	a := statestore.Stats{ResidentBytes: 1, Faults: 2, Spills: 3}
	b := statestore.Stats{ResidentBytes: 10, Faults: 20, Spills: 30}
	c := a.Add(b)
	if c.ResidentBytes != 11 || c.Faults != 22 || c.Spills != 33 {
		t.Fatalf("Add: %+v", c)
	}
}

func TestStringerSmoke(t *testing.T) {
	tbl := state.NewTable(tuple.NewStreamSet(0))
	fill(tbl, 3)
	if got := fmt.Sprint(tbl); got == "" {
		t.Fatal("empty String()")
	}
}

// oneRowKey is the resident charge of a key holding one base row: the
// row and its slot.
var oneRowKey = state.TupleBytes(tuple.NewStreamSet(0)) + state.SlotBytes

// tuples copies lent rows out as tuples a test may keep; none is nil.
// removeRows runs RemoveRef with a destination and returns the rows it
// copied there.
func removeRows(tb *state.Table, key tuple.Value, ref tuple.Ref) tuple.Rows {
	var rows tuple.Rows
	tb.RemoveRef(key, ref, &rows)
	return rows
}

func tuples(r tuple.Rows) []*tuple.Tuple {
	if r.Len() == 0 {
		return nil
	}
	out := make([]*tuple.Tuple, r.Len())
	var v tuple.Tuple
	for i := range out {
		out[i] = r.View(i, &v).Clone()
	}
	return out
}
