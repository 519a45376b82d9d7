package state

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"jisc/internal/statestore"
	"jisc/internal/storage"
	"jisc/internal/testseed"
	"jisc/internal/tuple"
)

// collidingKeys returns n keys per home slot of a 64-slot index, for
// each of the given homes. Keys sharing a home at 64 slots share it at
// every smaller size too (the home is the hash's top bits), so the
// runs they form survive the index's growth up to 64 slots.
func collidingKeys(n int, homes ...int) []tuple.Value {
	x := index{shift: 64 - 6}
	var out []tuple.Value
	for _, h := range homes {
		for v, found := tuple.Value(0), 0; found < n; v++ {
			if x.home(v) == h {
				out = append(out, v)
				found++
			}
		}
	}
	return out
}

// checkIndex asserts the index's own invariants: n counts the
// occupied slots, every occupied slot is the one find reaches from its
// key's home, and only live slots are kept. It reports whether some
// slot sits before its home — a probe run that wrapped past the end.
func checkIndex(t *testing.T, x *index) (wrapped bool) {
	t.Helper()
	occupied := 0
	for i := range x.slots {
		s := &x.slots[i]
		if s.flags&used == 0 {
			continue
		}
		occupied++
		if got := x.find(s.key); got != i {
			t.Fatalf("key %d sits in slot %d, find reaches %d", s.key, i, got)
		}
		if !s.live() {
			t.Fatalf("key %d: dead slot %d kept", s.key, i)
		}
		if i < x.home(s.key) {
			wrapped = true
		}
	}
	if occupied != x.n {
		t.Fatalf("index counts %d slots, %d occupied", x.n, occupied)
	}
	return wrapped
}

// tableModel is the plain-map reference a Table is checked against.
type tableModel struct {
	buckets   map[tuple.Value][]*tuple.Tuple
	attempted map[tuple.Value]bool
	pending   map[tuple.Value]bool
	armed     bool
	complete  bool
}

func (m *tableModel) size() int {
	n := 0
	for _, b := range m.buckets {
		n += len(b)
	}
	return n
}

// TestTableIndexMatchesModel drives a table with random calls over a
// key domain built to collide — keys sharing the first slot, a middle
// slot and the last slot, whose runs wrap past the array's end — and
// compares every observable against a plain-map model after each step,
// so backward-shift deletion is exercised on both sides of the wrap.
// It runs with everything resident and again with a spill store whose
// budget keeps most buckets out of the heap. The table is a join
// state's, so a spilled ref removed out of arrival order faults back
// in and is reported.
func TestTableIndexMatchesModel(t *testing.T) {
	domain := append(collidingKeys(6, 0, 31, 63), 1000, 1001, 1002)
	for _, spill := range []bool{false, true} {
		t.Run(fmt.Sprintf("spill=%v", spill), func(t *testing.T) {
			rng := rand.New(rand.NewSource(testseed.Seed(t, 29)))
			tb := NewTable(tuple.NewStreamSet(0, 1))
			var store *statestore.Store
			if spill {
				var err error
				store, err = statestore.Open(statestore.Options{Budget: 1024, Dir: "spill", FS: storage.NewMemFS(), SegmentBytes: 4 << 10})
				if err != nil {
					t.Fatal(err)
				}
				defer store.Close()
				tb.SetStore(store)
			}
			m := &tableModel{buckets: map[tuple.Value][]*tuple.Tuple{}, attempted: map[tuple.Value]bool{}, pending: map[tuple.Value]bool{}, complete: true}
			var seq uint64
			wraps := 0
			for step := 0; step < 20000; step++ {
				k := domain[rng.Intn(len(domain))]
				var op string
				switch r := rng.Intn(100); {
				case r < 35:
					op = "Insert"
					seq++
					tup := tuple.Join(base(0, seq, k), base(1, seq, k))
					tb.Insert(tup)
					m.buckets[k] = append(m.buckets[k], tup)
				case r < 45:
					op = "Probe"
					if got, want := tb.Probe(k).Len(), len(m.buckets[k]); got != want {
						t.Fatalf("step %d: Probe(%d) = %d tuples, model %d", step, k, got, want)
					}
				case r < 65:
					op = "RemoveRef"
					b := m.buckets[k]
					if len(b) == 0 {
						break
					}
					ref := b[rng.Intn(len(b))].First()
					if got := tb.RemoveRef(k, ref, nil); got != 1 {
						t.Fatalf("step %d: RemoveRef(%d, %v) removed %d tuples, want 1", step, k, ref, got)
					}
					m.buckets[k] = slices.DeleteFunc(b, func(tup *tuple.Tuple) bool { return tup.First() == ref })
					if len(m.buckets[k]) == 0 {
						delete(m.buckets, k)
					}
				case r < 68:
					op = "RemoveKey"
					if got, want := tb.RemoveKey(k).Len(), len(m.buckets[k]); got != want {
						t.Fatalf("step %d: RemoveKey(%d) = %d tuples, model %d", step, k, got, want)
					}
					delete(m.buckets, k)
				case r < 83:
					op = "MarkAttempted"
					want := false
					if !m.complete {
						m.attempted[k] = true
						if m.armed && m.pending[k] {
							delete(m.pending, k)
							want = len(m.pending) == 0
						}
					}
					if got := tb.MarkAttempted(k); got != want {
						t.Fatalf("step %d: MarkAttempted(%d) drained = %v, model %v", step, k, got, want)
					}
				case r < 90:
					op = "DropPending"
					want := false
					if !m.complete && m.armed && m.pending[k] {
						delete(m.pending, k)
						want = len(m.pending) == 0
					}
					if got := tb.DropPending(k); got != want {
						t.Fatalf("step %d: DropPending(%d) drained = %v, model %v", step, k, got, want)
					}
				case r < 94:
					op = "ArmCounter"
					var keys []tuple.Value
					m.pending = map[tuple.Value]bool{}
					for _, c := range domain {
						if rng.Intn(2) == 0 {
							keys = append(keys, c)
							m.pending[c] = true
						}
					}
					tb.ArmCounter(tuple.NewStreamSet(0), keys)
					m.armed = true
				case r < 98:
					op = "MarkIncomplete"
					tb.MarkIncomplete(0)
					m.complete, m.armed = false, false
					m.attempted, m.pending = map[tuple.Value]bool{}, map[tuple.Value]bool{}
				case r < 99:
					op = "MarkComplete"
					tb.MarkComplete()
					m.complete, m.armed = true, false
					m.attempted, m.pending = map[tuple.Value]bool{}, map[tuple.Value]bool{}
				default:
					op = "Clear"
					tb.Clear()
					m.buckets = map[tuple.Value][]*tuple.Tuple{}
				}

				if got, want := tb.Size(), m.size(); got != want {
					t.Fatalf("step %d (%s %d): Size = %d, model %d", step, op, k, got, want)
				}
				if got, want := tb.DistinctKeys(), len(m.buckets); got != want {
					t.Fatalf("step %d (%s %d): DistinctKeys = %d, model %d", step, op, k, got, want)
				}
				keys := tb.Keys(nil)
				slices.Sort(keys)
				want := make([]tuple.Value, 0, len(m.buckets))
				for c := range m.buckets {
					want = append(want, c)
				}
				slices.Sort(want)
				if !slices.Equal(keys, want) {
					t.Fatalf("step %d (%s %d): Keys = %v, model %v", step, op, k, keys, want)
				}
				if got, want := tb.Counter(), len(m.pending); got != want {
					t.Fatalf("step %d (%s %d): Counter = %d, model %d", step, op, k, got, want)
				}
				for _, c := range domain {
					if got, want := tb.Attempted(c), m.complete || m.attempted[c]; got != want {
						t.Fatalf("step %d (%s %d): Attempted(%d) = %v, model %v", step, op, k, c, got, want)
					}
					if got, want := tb.ContainsKey(c), len(m.buckets[c]) > 0; got != want {
						t.Fatalf("step %d (%s %d): ContainsKey(%d) = %v, model %v", step, op, k, c, got, want)
					}
				}
				if checkIndex(t, &tb.idx) {
					wraps++
				}
			}
			if wraps == 0 {
				t.Fatal("no probe run ever wrapped past the array's end")
			}
			if spill && store.Stats().Spills == 0 {
				t.Fatal("nothing spilled under a 1 KiB budget")
			}
			t.Logf("%d of 20000 steps left a wrapped run; final index %d slots, %d used", wraps, len(tb.idx.slots), tb.idx.n)
		})
	}
}
