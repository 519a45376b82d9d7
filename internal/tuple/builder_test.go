package tuple

import (
	"testing"
)

func TestBuilderBaseMatchesNewBase(t *testing.T) {
	b := AcquireBuilder()
	defer b.Release()
	got := b.Base(3, 17, 42, 99)
	want := NewBase(3, 17, 42, 99)
	if got.Key != want.Key || got.Set != want.Set || got.Arrival != want.Arrival ||
		got.Oldest != want.Oldest || len(got.Refs) != 1 || got.Refs[0] != want.Refs[0] {
		t.Fatalf("Builder.Base = %v, want %v", got, want)
	}
}

func TestBuilderJoinMatchesJoin(t *testing.T) {
	b := AcquireBuilder()
	defer b.Release()
	// Interleaved streams so the ref merge is exercised.
	x := b.Join(b.Base(0, 5, 7, 10), b.Base(2, 3, 7, 20))
	y := b.Base(1, 9, 7, 30)
	got := b.Join(x, y)
	want := Join(Join(NewBase(0, 5, 7, 10), NewBase(2, 3, 7, 20)), NewBase(1, 9, 7, 30))
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("Fingerprint = %s, want %s", got.Fingerprint(), want.Fingerprint())
	}
	if got.Set != want.Set || got.Arrival != want.Arrival || got.Oldest != want.Oldest {
		t.Fatalf("Builder.Join = %+v, want %+v", got, want)
	}
	for i := 1; i < len(got.Refs); i++ {
		a, c := got.Refs[i-1], got.Refs[i]
		if a.Stream > c.Stream || (a.Stream == c.Stream && a.Seq >= c.Seq) {
			t.Fatalf("Refs not sorted: %v", got.Refs)
		}
	}
}

func TestBuilderJoinTheta(t *testing.T) {
	b := AcquireBuilder()
	defer b.Release()
	x := b.Base(0, 1, 11, 1)
	y := b.Base(1, 1, 22, 2)
	// Theta composites inherit the left key.
	got := b.JoinTheta(x, y)
	if got.Key != 11 {
		t.Fatalf("theta key = %d, want 11", got.Key)
	}
	got = b.JoinTheta(y, x)
	if got.Key != 22 {
		t.Fatalf("theta key = %d, want 22", got.Key)
	}
}

func TestBuilderJoinOverlapPanics(t *testing.T) {
	b := AcquireBuilder()
	defer b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on overlapping stream sets")
		}
	}()
	b.Join(b.Base(0, 1, 1, 1), b.Base(0, 2, 1, 2))
}

// TestBuilderChunkTurnover verifies tuples built before a chunk
// turnover stay intact after it: the arena must never recycle memory
// it handed out.
func TestBuilderChunkTurnover(t *testing.T) {
	b := AcquireBuilder()
	defer b.Release()
	first := b.Base(0, 1, 123, 1)
	var composites []*Tuple
	for i := 0; i < 4*tupleChunkLen; i++ {
		l := b.Base(0, uint64(2*i+2), Value(i), uint64(i))
		r := b.Base(1, uint64(2*i+3), Value(i), uint64(i))
		composites = append(composites, b.Join(l, r))
	}
	if first.Key != 123 || first.Refs[0] != (Ref{Stream: 0, Seq: 1}) {
		t.Fatalf("early tuple corrupted after chunk turnover: %v", first)
	}
	for i, c := range composites {
		if c.Key != Value(i) || len(c.Refs) != 2 {
			t.Fatalf("composite %d corrupted: %v", i, c)
		}
	}
}

func TestMergeRefs(t *testing.T) {
	a := []Ref{{0, 1}, {2, 5}, {4, 1}}
	c := []Ref{{1, 9}, {2, 4}, {3, 7}}
	dst := make([]Ref, 6)
	mergeRefs(dst, a, c)
	want := []Ref{{0, 1}, {1, 9}, {2, 4}, {2, 5}, {3, 7}, {4, 1}}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("mergeRefs = %v, want %v", dst, want)
		}
	}
	// One side empty.
	mergeRefs(dst[:3], nil, a)
	if dst[0] != a[0] || dst[2] != a[2] {
		t.Fatalf("mergeRefs empty-left = %v", dst[:3])
	}
}

// TestJoinTransientReusesOneComposite: every JoinTransient returns the
// same tuple, rewritten — equal to Join's while it lasts, gone with the
// next call, and never carved from the arenas Join draws on.
func TestJoinTransientReusesOneComposite(t *testing.T) {
	b := AcquireBuilder()
	defer b.Release()
	a, c, d := NewBase(0, 1, 7, 1), NewBase(1, 2, 7, 2), NewBase(2, 3, 7, 3)
	first := b.JoinTransient(a, c)
	if want := Join(a, c); first.Fingerprint() != want.Fingerprint() || first.Set != want.Set ||
		first.Arrival != want.Arrival || first.Oldest != want.Oldest || first.Key != want.Key {
		t.Fatalf("transient = %v, want %v", first, want)
	}
	kept := first.Clone()
	wide := b.JoinTransient(b.Join(a, c), d)
	if wide != first || first.Fingerprint() != "0#1|1#2|2#3" || kept.Fingerprint() != "0#1|1#2" {
		t.Fatalf("second transient %p reads %v (first was %p); clone reads %v", wide, wide, first, kept)
	}
	stored := b.Join(a, d)
	if allocs := testing.AllocsPerRun(100, func() { b.JoinTransient(a, c) }); allocs != 0 {
		t.Fatalf("%v allocations per transient join", allocs)
	}
	if stored.Fingerprint() != "0#1|2#3" {
		t.Fatalf("arena tuple disturbed by transient joins: %v", stored)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping transient join did not panic")
		}
	}()
	b.JoinTransient(a, a)
}
