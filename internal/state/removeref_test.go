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

func fingerprints(tups []*tuple.Tuple) []string {
	out := make([]string, len(tups))
	for i, tup := range tups {
		out[i] = tup.Fingerprint()
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
			store = spillStore(t, 2048)
			tb.SetStore(store, false)
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
			got := fingerprints(tb.RemoveRef(key, ref))
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
			t.Fatalf("trial %d: nothing spilled under a %d-byte budget", trial, 2048)
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
		tb.SetStore(store, true)
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
				tb.RemoveRef(old.Key, old.Refs[0])
				model.removeRef(old.Key, old.Refs[0])
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
			tb.SetStore(spillStore(t, 1), false)
		}
		tb.Insert(tuple.NewBase(2, 1, 9, 1))
		tb.Insert(tuple.NewBase(2, 2, 9, 2))
		if got := tb.RemoveRef(9, tuple.Ref{Stream: 0, Seq: 1}); got != nil {
			t.Fatalf("spilled %v: ref of an uncovered stream removed %v", spilled, got)
		}
		got := tb.RemoveRef(9, tuple.Ref{Stream: 2, Seq: 2})
		if len(got) != 1 || got[0].Refs[0].Seq != 2 || got[0].Set != tuple.NewStreamSet(2) {
			t.Fatalf("spilled %v: RemoveRef(2#2) = %v, want the one tuple", spilled, got)
		}
		if tb.Size() != 1 {
			t.Fatalf("spilled %v: Size = %d, want 1", spilled, tb.Size())
		}
	}
}
