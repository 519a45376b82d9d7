package state_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"jisc/internal/state"
	"jisc/internal/statestore"
	"jisc/internal/storage"
	"jisc/internal/testseed"
	"jisc/internal/tuple"
)

// refModel is the reference RemoveRef is checked against: the bucket
// contents as a plain slice, membership by Tuple.Contains — the binary
// search over provenance that the slot compare replaced.
type refModel map[tuple.Value][]*tuple.Tuple

func (m refModel) removeRef(key tuple.Value, ref tuple.Ref) (removed []string) {
	var kept []*tuple.Tuple
	for _, tup := range m[key] {
		if tup.Contains(ref) {
			removed = append(removed, tup.Fingerprint())
		} else {
			kept = append(kept, tup)
		}
	}
	m[key] = kept
	return removed
}

func (m refModel) contents() []string {
	var out []string
	for _, bucket := range m {
		for _, tup := range bucket {
			out = append(out, tup.Fingerprint())
		}
	}
	sort.Strings(out)
	return out
}

func tableContents(tb *state.Table) []string {
	var out []string
	tb.Each(func(tup *tuple.Tuple) bool {
		out = append(out, tup.Fingerprint())
		return true
	})
	sort.Strings(out)
	return out
}

// removeRows runs RemoveRef with a destination and returns the rows it
// copied there.
func removeRows(tb *state.Table, key tuple.Value, ref tuple.Ref) tuple.Rows {
	var rows tuple.Rows
	tb.RemoveRef(key, ref, &rows)
	return rows
}

func fingerprints(rows tuple.Rows) []string {
	out := make([]string, rows.Len())
	var v tuple.Tuple
	for i := range out {
		out[i] = rows.View(i, &v).Fingerprint()
	}
	return out
}

func spillStore(t *testing.T, budget int64) *statestore.Store {
	t.Helper()
	s, err := statestore.Open(statestore.Options{Budget: budget, Dir: "spill", FS: storage.NewMemFS(), SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestRemoveRefMatchesContains is the property behind the slot
// compare: over random composite tables of 2–6 streams (sparse stream
// ids, shared constituents, resident and spilled), RemoveRef removes
// exactly the tuples whose provenance Contains the ref — for refs that
// are present, refs of a covered stream with an absent seq, and refs of
// a stream the table does not cover.
func TestRemoveRefMatchesContains(t *testing.T) {
	rng := rand.New(rand.NewSource(testseed.Seed(t, 16)))
	for trial := 0; trial < 200; trial++ {
		ids := rng.Perm(12)[:2+rng.Intn(5)]
		streams := make([]tuple.StreamID, len(ids))
		for i, id := range ids {
			streams[i] = tuple.StreamID(id * 5) // sparse ids, up to 55
		}
		tb := state.NewTable(tuple.NewStreamSet(streams...))
		spilled := trial%2 == 1
		var store *statestore.Store
		if spilled {
			store = spillStore(t, 640)
			tb.SetStore(store)
		}
		model := refModel{}
		const keys, seqs = 4, 5
		for n := 20 + rng.Intn(200); n > 0; n-- {
			key := tuple.Value(rng.Intn(keys))
			tup := tuple.NewBase(streams[0], uint64(1+rng.Intn(seqs)), key, 1)
			for _, s := range streams[1:] {
				tup = tuple.Join(tup, tuple.NewBase(s, uint64(1+rng.Intn(seqs)), key, 1))
			}
			tb.Insert(tup)
			model[key] = append(model[key], tup)
		}
		for op := 0; op < 60; op++ {
			key := tuple.Value(rng.Intn(keys + 1))
			ref := tuple.Ref{Stream: tuple.StreamID(rng.Intn(12) * 5), Seq: uint64(rng.Intn(seqs + 2))}
			got := fingerprints(removeRows(tb, key, ref))
			want := model.removeRef(key, ref)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d (streams %v, spilled %v): RemoveRef(%d, %v) removed %v, Contains says %v",
					trial, streams, spilled, key, ref, got, want)
			}
		}
		if got, want := tableContents(tb), model.contents(); fmt.Sprint(got) != fmt.Sprint(want) || tb.Size() != len(want) {
			t.Fatalf("trial %d: %d tuples left (Size %d), model has %d", trial, len(got), tb.Size(), len(want))
		}
		if spilled && store.Stats().Spills == 0 {
			t.Fatalf("trial %d: nothing spilled under a %d-byte budget", trial, 640)
		}
	}
}

// TestRemoveRefScanKeepsArrivalOrder: on a scan table the expired ref
// is normally its key's oldest row, found with one compare, but the
// search that stops at the first match still finds any other ref —
// out-of-window removals, refs of absent seqs and a repeated ref all
// remove exactly what Contains says, and every key's run keeps arrival
// order.
func TestRemoveRefScanKeepsArrivalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(testseed.Seed(t, 18)))
	for trial := 0; trial < 100; trial++ {
		const stream = tuple.StreamID(3)
		tb := state.NewTable(tuple.NewStreamSet(stream))
		model := refModel{}
		var window []*tuple.Tuple
		for seq := uint64(1); seq <= 400; seq++ {
			tup := tuple.NewBase(stream, seq, tuple.Value(rng.Intn(5)), seq)
			tb.Insert(tup)
			model[tup.Key] = append(model[tup.Key], tup)
			window = append(window, tup)
			var key tuple.Value
			var ref tuple.Ref
			switch {
			case len(window) > 30:
				key, ref = window[0].Key, window[0].First()
				window = window[1:]
			case rng.Intn(4) == 0:
				// Any ref, in or out of the window, possibly gone.
				key, ref = tuple.Value(rng.Intn(5)), tuple.Ref{Stream: stream, Seq: uint64(1 + rng.Intn(int(seq)))}
			default:
				continue
			}
			got := fingerprints(removeRows(tb, key, ref))
			if want := model.removeRef(key, ref); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d: RemoveRef(%d, %v) removed %v, Contains says %v", trial, key, ref, got, want)
			}
		}
		for key, bucket := range model {
			want := make([]string, len(bucket))
			for i, tup := range bucket {
				want[i] = tup.Fingerprint()
			}
			if got := fingerprints(tb.Probe(key)); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d: key %d holds %v, want %v in arrival order", trial, key, got, want)
			}
		}
	}
}

// Tombstone-mode tables (scan states under a spill budget) evict a
// spilled ref without faulting its bucket, in window order; what is
// left must still be what Contains-based removal leaves.
func TestRemoveRefTombstoneModeMatchesContains(t *testing.T) {
	rng := rand.New(rand.NewSource(testseed.Seed(t, 17)))
	for trial := 0; trial < 50; trial++ {
		const stream = tuple.StreamID(7)
		tb := state.NewTable(tuple.NewStreamSet(stream))
		store := spillStore(t, 1024)
		tb.SetStore(store)
		model := refModel{}
		var window []*tuple.Tuple
		for seq := uint64(1); seq <= 300; seq++ {
			tup := tuple.NewBase(stream, seq, tuple.Value(rng.Intn(6)), seq)
			tb.Insert(tup)
			model[tup.Key] = append(model[tup.Key], tup)
			window = append(window, tup)
			if len(window) > 40+rng.Intn(3) {
				old := window[0]
				window = window[1:]
				tb.RemoveRef(old.Key, old.First(), nil)
				model.removeRef(old.Key, old.First())
			}
		}
		if got, want := tableContents(tb), model.contents(); fmt.Sprint(got) != fmt.Sprint(want) || tb.Size() != len(want) {
			t.Fatalf("trial %d: table holds %v (Size %d), model %v", trial, got, tb.Size(), want)
		}
		if st := store.Stats(); st.Spills == 0 || st.Tombstones == 0 {
			t.Fatalf("trial %d: spill tier not exercised: %+v", trial, st)
		}
	}
}

// A set-difference state covers more streams than its tuples do: it
// stores the outer stream's base tuples under the set of every stream
// below it. The slot comes from the stored tuples, not the table's Set,
// and a spilled bucket comes back with its tuples' Set, not the table's.
func TestRemoveRefNarrowTuplesInWideTable(t *testing.T) {
	for _, spilled := range []bool{false, true} {
		tb := state.NewTable(tuple.NewStreamSet(0, 1, 2))
		if spilled {
			tb.SetStore(spillStore(t, 1))
		}
		tb.Insert(tuple.NewBase(2, 1, 9, 1))
		tb.Insert(tuple.NewBase(2, 2, 9, 2))
		if got := tb.RemoveRef(9, tuple.Ref{Stream: 0, Seq: 1}, nil); got != 0 {
			t.Fatalf("spilled %v: ref of an uncovered stream removed %d rows", spilled, got)
		}
		got := removeRows(tb, 9, tuple.Ref{Stream: 2, Seq: 2})
		if fp := fingerprints(got); len(fp) != 1 || fp[0] != "2#2" || got.Set != tuple.NewStreamSet(2) {
			t.Fatalf("spilled %v: RemoveRef(2#2) = %v over %v, want the one tuple", spilled, fp, got.Set)
		}
		if tb.Size() != 1 {
			t.Fatalf("spilled %v: Size = %d, want 1", spilled, tb.Size())
		}
	}
}
