package plan

import (
	"math/rand"
	"testing"
	"testing/quick"

	"jisc/internal/analysis"
	"jisc/internal/testseed"
	"jisc/internal/tuple"
)

func TestLeftDeepShape(t *testing.T) {
	p := MustLeftDeep(0, 1, 2, 3)
	if p.Joins() != 3 {
		t.Fatalf("Joins = %d, want 3", p.Joins())
	}
	if !p.Root.IsLeftDeep() {
		t.Fatal("LeftDeep plan not left-deep")
	}
	if got := p.String(); got != "(((0⋈1)⋈2)⋈3)" {
		t.Fatalf("String = %q, want fully parenthesized infix", got)
	}
	order, err := p.Order()
	if err != nil {
		t.Fatal(err)
	}
	want := []tuple.StreamID{0, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("Order = %v, want %v", order, want)
		}
	}
}

func TestLeftDeepErrors(t *testing.T) {
	if _, err := LeftDeep(0); err == nil {
		t.Error("single-stream plan accepted")
	}
	if _, err := LeftDeep(); err == nil {
		t.Error("empty plan accepted")
	}
}

func TestNewRejectsDuplicateStream(t *testing.T) {
	root := Join(Leaf(0), Leaf(0))
	if _, err := New(root); err == nil {
		t.Fatal("duplicate stream accepted")
	}
}

func TestNewRejectsNilAndLeafRoot(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil root accepted")
	}
	if _, err := New(Leaf(0)); err == nil {
		t.Error("leaf root accepted")
	}
}

func TestBushyShape(t *testing.T) {
	// (0⋈1) ⋈ (2⋈3)
	p := MustNew(Join(Join(Leaf(0), Leaf(1)), Join(Leaf(2), Leaf(3))))
	if p.Root.IsLeftDeep() {
		t.Fatal("bushy plan reported left-deep")
	}
	if p.Joins() != 3 {
		t.Fatalf("Joins = %d, want 3", p.Joins())
	}
	if got := p.String(); got != "((0⋈1)⋈(2⋈3))" {
		t.Fatalf("String = %s", got)
	}
	if _, err := p.Order(); err == nil {
		t.Fatal("Order on bushy plan did not error")
	}
}

func TestSetAndJoinSets(t *testing.T) {
	p := MustLeftDeep(2, 0, 1)
	if p.Streams != tuple.NewStreamSet(0, 1, 2) {
		t.Fatalf("Streams = %v", p.Streams)
	}
	js := p.JoinSets()
	if len(js) != 2 {
		t.Fatalf("JoinSets len = %d", len(js))
	}
	if js[0] != tuple.NewStreamSet(2, 0) || js[1] != tuple.NewStreamSet(0, 1, 2) {
		t.Fatalf("JoinSets = %v", js)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := MustLeftDeep(0, 1, 2)
	c := p.Root.Clone()
	c.Right.Stream = 9
	if p.Root.Right.Stream == 9 {
		t.Fatal("Clone shares nodes with original")
	}
}

func TestEqual(t *testing.T) {
	a := MustLeftDeep(0, 1, 2)
	b := MustLeftDeep(0, 1, 2)
	c := MustLeftDeep(0, 2, 1)
	d := MustNew(Join(Leaf(0), Join(Leaf(1), Leaf(2))))
	if !a.Equal(b) {
		t.Error("identical plans not Equal")
	}
	if a.Equal(c) {
		t.Error("different orders Equal")
	}
	if a.Equal(d) {
		t.Error("different shapes Equal")
	}
}

func TestSwap(t *testing.T) {
	p := MustLeftDeep(0, 1, 2, 3, 4)
	q, err := p.Swap(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	order, _ := q.Order()
	want := []tuple.StreamID{0, 3, 2, 1, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("swapped order = %v, want %v", order, want)
		}
	}
	if _, err := p.Swap(0, 99); err == nil {
		t.Error("out-of-range swap accepted")
	}
}

func TestDiffClassification(t *testing.T) {
	// Old: (((0⋈1)⋈2)⋈3); states {0,1},{0,1,2},{0,1,2,3}.
	old := MustLeftDeep(0, 1, 2, 3)
	oldC := AllComplete(old)

	// New: (((0⋈1)⋈3)⋈2) — swap positions 2 and 3.
	neu := MustLeftDeep(0, 1, 3, 2)
	c := Diff(oldC, neu)
	if !c[tuple.NewStreamSet(0, 1)] {
		t.Error("{0,1} should be complete (exists in old plan)")
	}
	if c[tuple.NewStreamSet(0, 1, 3)] {
		t.Error("{0,1,3} should be incomplete (absent from old plan)")
	}
	if !c[tuple.NewStreamSet(0, 1, 2, 3)] {
		t.Error("root state should be complete (full set exists in old plan)")
	}
	// Leaves are always complete.
	for _, id := range []tuple.StreamID{0, 1, 2, 3} {
		if !c[tuple.NewStreamSet(id)] {
			t.Errorf("leaf %d not complete", id)
		}
	}
	if got := IncompleteCount(c, neu); got != 1 {
		t.Errorf("IncompleteCount = %d, want 1", got)
	}
}

// §4.5: a state that exists in the old plan but is incomplete there
// must remain incomplete in the new plan (overlapped transitions).
func TestDiffOverlappedTransitions(t *testing.T) {
	a := MustLeftDeep(0, 1, 2, 3) // plan (a)
	b := MustLeftDeep(1, 2, 0, 3) // plan (b): state {1,2} incomplete vs (a)
	cB := Diff(AllComplete(a), b)
	if cB[tuple.NewStreamSet(1, 2)] {
		t.Fatal("{1,2} must be incomplete after a→b")
	}
	// Transition b→c before {1,2} completes; c also contains {1,2}.
	c := MustLeftDeep(1, 2, 3, 0)
	cC := Diff(cB, c)
	if cC[tuple.NewStreamSet(1, 2)] {
		t.Fatal("{1,2} must stay incomplete after b→c (Definition 1 naive application would wrongly mark it complete)")
	}
	if !cC[tuple.NewStreamSet(0, 1, 2, 3)] {
		t.Fatal("root state should be complete")
	}
}

func TestDiffBushy(t *testing.T) {
	// Old: (((0⋈1)⋈2)⋈3). New: (0⋈1) ⋈ (2⋈3) — bushy.
	old := AllComplete(MustLeftDeep(0, 1, 2, 3))
	neu := MustNew(Join(Join(Leaf(0), Leaf(1)), Join(Leaf(2), Leaf(3))))
	c := Diff(old, neu)
	if !c[tuple.NewStreamSet(0, 1)] {
		t.Error("{0,1} should be complete")
	}
	if c[tuple.NewStreamSet(2, 3)] {
		t.Error("{2,3} should be incomplete")
	}
	if !c[tuple.NewStreamSet(0, 1, 2, 3)] {
		t.Error("root should be complete")
	}
}

// swapLabels maps the 0-based order positions i and j a left-deep
// swap exchanges to §5.2's labels I ≤ J: both bottom-join streams
// carry label 1, the stream at position k ≥ 1 label k, so the join at
// level k covers the order prefix [0..k] and exactly the joins with
// I ≤ k < J change their stream set.
func swapLabels(i, j int) (I, J int) {
	return max(min(i, j), 1), max(i, j, 1)
}

// Property (§5.2): for any pairwise exchange in a left-deep plan, the
// number of complete join states Diff reports equals Eq. 3's closed
// form C_n = n − (J−I) used in the probabilistic analysis.
func TestSwapIncompleteStatesMatchesDiffProperty(t *testing.T) {
	f := func(seedRaw int64) bool {
		rng := rand.New(rand.NewSource(seedRaw))
		n := 3 + rng.Intn(18) // streams
		order := make([]tuple.StreamID, n)
		for i := range order {
			order[i] = tuple.StreamID(i)
		}
		old := MustLeftDeep(order...)
		i := rng.Intn(n)
		j := rng.Intn(n)
		neu, err := old.Swap(i, j)
		if err != nil {
			return false
		}
		I, J := swapLabels(i, j)
		complete := neu.Joins() - IncompleteCount(Diff(AllComplete(old), neu), neu)
		return complete == analysis.CompleteStates(neu.Joins(), I, J)
	}
	if err := quick.Check(f, testseed.Quick(t, 1, 200)); err != nil {
		t.Fatal(err)
	}
}

func TestSwapIncompleteStatesEdgeCases(t *testing.T) {
	cases := []struct{ i, j, want int }{
		{0, 0, 0}, {0, 1, 0}, {1, 0, 0}, {1, 2, 1}, {0, 3, 2}, {2, 5, 3}, {5, 2, 3},
	}
	old := MustLeftDeep(0, 1, 2, 3, 4, 5)
	for _, c := range cases {
		neu, err := old.Swap(c.i, c.j)
		if err != nil {
			t.Fatal(err)
		}
		if got := IncompleteCount(Diff(AllComplete(old), neu), neu); got != c.want {
			t.Errorf("swap(%d,%d): %d incomplete states, want %d", c.i, c.j, got, c.want)
		}
	}
}

func TestDescribeAndRender(t *testing.T) {
	p := MustLeftDeep(0, 1, 2)
	c := Diff(AllComplete(p), MustLeftDeep(0, 2, 1))
	if Describe(c, p) == "" {
		t.Error("empty Describe")
	}
	if p.Render() == "" {
		t.Error("empty Render")
	}
}

func TestWalkOrder(t *testing.T) {
	p := MustLeftDeep(0, 1, 2)
	var sets []tuple.StreamSet
	p.Root.Walk(func(n *Node) { sets = append(sets, n.Set()) })
	// Bottom-up: leaf 0, leaf 1, join {0,1}, leaf 2, join {0,1,2}.
	want := []tuple.StreamSet{
		tuple.NewStreamSet(0), tuple.NewStreamSet(1), tuple.NewStreamSet(0, 1),
		tuple.NewStreamSet(2), tuple.NewStreamSet(0, 1, 2),
	}
	if len(sets) != len(want) {
		t.Fatalf("Walk visited %d nodes, want %d", len(sets), len(want))
	}
	for i := range want {
		if sets[i] != want[i] {
			t.Fatalf("Walk order = %v, want %v", sets, want)
		}
	}
}
