package state

import (
	"fmt"
	"testing"

	"jisc/internal/tuple"
)

// BenchmarkInsert measures steady-state insertion into a table whose
// key population is churning: tuples are inserted round-robin over a
// fixed key domain, and once the table reaches the window size the
// oldest tuple is evicted — the access pattern of a scan state under a
// count-based sliding window.
func BenchmarkInsert(b *testing.B) {
	const domain = 1024
	t := NewTable(tuple.NewStreamSet(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := tuple.Value(i % domain)
		t.Insert(tuple.NewBase(0, uint64(i), key, uint64(i)))
		if t.Size() > domain {
			old := uint64(i - domain)
			t.RemoveRef(tuple.Value(old%domain), tuple.Ref{Stream: 0, Seq: old}, nil)
		}
	}
}

// BenchmarkProbe measures hash probes against a populated table.
func BenchmarkProbe(b *testing.B) {
	const domain = 1024
	t := NewTable(tuple.NewStreamSet(0))
	for i := 0; i < 4*domain; i++ {
		t.Insert(tuple.NewBase(0, uint64(i), tuple.Value(i%domain), uint64(i)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var hits int
	for i := 0; i < b.N; i++ {
		hits += t.Probe(tuple.Value(i % domain)).Len()
	}
	_ = hits
}

// BenchmarkEvict measures bucket compaction under eviction: each
// iteration removes one constituent ref from a multi-tuple bucket and
// re-inserts a replacement, the per-slide work of window expiry.
func BenchmarkEvict(b *testing.B) {
	const domain = 256
	const perKey = 8
	t := NewTable(tuple.NewStreamSet(0))
	// Seq s carries key s%domain, so the oldest live seq identifies
	// exactly one tuple in a bucket of ~perKey entries.
	seq := uint64(0)
	for ; seq < domain*perKey; seq++ {
		t.Insert(tuple.NewBase(0, seq, tuple.Value(seq%domain), seq))
	}
	oldest := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.RemoveRef(tuple.Value(oldest%domain), tuple.Ref{Stream: 0, Seq: oldest}, nil)
		oldest++
		t.Insert(tuple.NewBase(0, seq, tuple.Value(seq%domain), seq))
		seq++
	}
}

// BenchmarkRemoveRefHotBucket measures window expiry against one hot
// key's bucket in a 3-stream join state where 20 tuples per stream
// carry the key: 400 entries when two of the streams vary (the
// intermediate state of the benchmark's migrate-hotkey workload), 8 000
// when all three do (its root state, when stored). Each iteration
// expires one stream-0 tuple — a scan of the whole bucket that removes
// a twentieth of it — and puts the removed entries back.
func BenchmarkRemoveRefHotBucket(b *testing.B) {
	const perStream = 20
	for _, entries := range []int{400, 8000} {
		b.Run(fmt.Sprint(entries), func(b *testing.B) {
			t := NewTable(tuple.NewStreamSet(0, 1, 2))
			for i := 0; i < entries; i++ {
				s0, s1, s2 := i%perStream, i/perStream%perStream, i/(perStream*perStream)
				tup := tuple.Join(tuple.Join(tuple.NewBase(0, uint64(s0), 7, 1), tuple.NewBase(1, uint64(s1), 7, 1)), tuple.NewBase(2, uint64(s2), 7, 1))
				t.Insert(tup)
			}
			back := tuple.Rows{Key: 7, Set: t.Set, Data: make([]uint64, 0, entries/perStream*tuple.RowWidth(t.Set))}
			var v tuple.Tuple
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.RemoveRef(7, tuple.Ref{Stream: 0, Seq: uint64(i % perStream)}, &back)
				if back.Len() != entries/perStream {
					b.Fatalf("removed %d entries, want %d", back.Len(), entries/perStream)
				}
				for j := range back.Len() {
					t.Insert(back.View(j, &v))
				}
			}
		})
	}
}

// BenchmarkTableWindowChurn is a join state through repeated plan
// transitions: a count-based sliding window over a key domain wider
// than the window, so keys keep dying and being reborn, where each
// arriving key is also marked attempted and the state is marked
// incomplete again every period tuples — a transition's reset of
// Definition 2's attempted set, which leaves slots kept only by the
// mark to be cleared.
func BenchmarkTableWindowChurn(b *testing.B) {
	const domain, window, period = 4096, 1024, 8192
	t := NewTable(tuple.NewStreamSet(0))
	t.MarkIncomplete()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := tuple.Value(i * 7 % domain)
		t.Insert(tuple.NewBase(0, uint64(i), key, uint64(i)))
		t.MarkAttempted(key)
		if i >= window {
			old := i - window
			t.RemoveRef(tuple.Value(old*7%domain), tuple.Ref{Stream: 0, Seq: uint64(old)}, nil)
		}
		if i%period == period-1 {
			t.MarkIncomplete()
		}
	}
}
