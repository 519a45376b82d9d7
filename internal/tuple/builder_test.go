package tuple

import (
	"slices"
	"testing"
)

// TestBuilderCopySharesNothing: the join with OneRow's row is a copy —
// how a stored root's result is lent (engine.Output): it reads as its
// original and survives the original being overwritten, seqs included.
func TestBuilderCopySharesNothing(t *testing.T) {
	var b Builder
	var v Tuple
	orig := Join(NewBase(3, 17, 42, 99), NewBase(5, 2, 42, 100))
	got := b.JoinTransient(orig, OneRow.View(0, &v))
	if got.Fingerprint() != "3#17|5#2" || got.Key != 42 || got.Set != orig.Set || got.Arrival != 100 {
		t.Fatalf("JoinTransient with OneRow = %v, want %v", got, orig)
	}
	orig.Seqs[0], orig.Key = 9, 9
	if got.Fingerprint() != "3#17|5#2" || got.Key != 42 {
		t.Fatalf("copy changed with its original: %v", got)
	}
	if OneRow.Len() != 1 || v.Set != 0 || len(v.Seqs) != 0 {
		t.Fatalf("OneRow holds %d rows, its row %v", OneRow.Len(), &v)
	}
}

// TestBuilderJoinMatchesJoin: the builder's join composite reads as
// Join's, provenance merged in stream order.
func TestBuilderJoinMatchesJoin(t *testing.T) {
	var b Builder
	// Interleaved streams so the ref merge is exercised.
	x := Join(NewBase(0, 5, 7, 10), NewBase(2, 3, 7, 20))
	y := NewBase(1, 9, 7, 30)
	got := b.JoinTransient(x, y)
	want := Join(x, y)
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("Fingerprint = %s, want %s", got.Fingerprint(), want.Fingerprint())
	}
	if got.Set != want.Set || got.Arrival != want.Arrival {
		t.Fatalf("Builder.JoinTransient = %+v, want %+v", got, want)
	}
	if fp := got.Fingerprint(); fp != "0#5|1#9|2#3" {
		t.Fatalf("provenance %s, want it in stream order", fp)
	}
}

// TestBuilderJoinTheta: the builder's composite takes its left side's
// key, as Join's does. Which side a theta composite's key comes from is
// the engine's rule (engine.Node.InsertTheta), not the builder's.
func TestBuilderJoinTheta(t *testing.T) {
	var b Builder
	x := NewBase(0, 1, 11, 1)
	y := NewBase(1, 1, 22, 2)
	if got := b.JoinTransient(x, y); got.Key != 11 {
		t.Fatalf("composite key = %d, want 11", got.Key)
	}
	if got := b.JoinTransient(y, x); got.Key != 22 {
		t.Fatalf("composite key = %d, want 22", got.Key)
	}
}

func TestBuilderJoinOverlapPanics(t *testing.T) {
	var b Builder
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on overlapping stream sets")
		}
	}()
	b.JoinTransient(NewBase(0, 1, 1, 1), NewBase(0, 2, 1, 2))
}

// TestMergeRefs: a composite's seqs interleave by stream, whichever
// side each stream comes from, and a side with no streams adds none.
func TestMergeRefs(t *testing.T) {
	a := &Tuple{Set: NewStreamSet(0, 2, 5), Seqs: []uint64{1, 5, 1}}
	c := &Tuple{Set: NewStreamSet(1, 3, 63), Seqs: []uint64{9, 7, 4}}
	dst := make([]uint64, 6)
	mergeSeqs(dst, a, c)
	if want := []uint64{1, 9, 5, 7, 1, 4}; !slices.Equal(dst, want) {
		t.Fatalf("mergeSeqs = %v, want %v", dst, want)
	}
	mergeSeqs(dst[:3], &Tuple{}, a)
	if !slices.Equal(dst[:3], a.Seqs) {
		t.Fatalf("mergeSeqs empty-left = %v", dst[:3])
	}
}

// TestJoinTransientReusesOneComposite: every JoinTransient returns the
// same tuple, rewritten — equal to Join's while it lasts, gone with the
// next call — and allocates nothing once it has grown.
func TestJoinTransientReusesOneComposite(t *testing.T) {
	var b Builder
	a, c, d := NewBase(0, 1, 7, 1), NewBase(1, 2, 7, 2), NewBase(2, 3, 7, 3)
	first := b.JoinTransient(a, c)
	if want := Join(a, c); first.Fingerprint() != want.Fingerprint() || first.Set != want.Set ||
		first.Arrival != want.Arrival || first.Key != want.Key {
		t.Fatalf("transient = %v, want %v", first, want)
	}
	kept := first.Clone()
	wide := b.JoinTransient(Join(a, c), d)
	if wide != first || first.Fingerprint() != "0#1|1#2|2#3" || kept.Fingerprint() != "0#1|1#2" {
		t.Fatalf("second transient %p reads %v (first was %p); clone reads %v", wide, wide, first, kept)
	}
	if allocs := testing.AllocsPerRun(100, func() { b.JoinTransient(a, c) }); allocs != 0 {
		t.Fatalf("%v allocations per transient join", allocs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping transient join did not panic")
		}
	}()
	b.JoinTransient(a, a)
}
