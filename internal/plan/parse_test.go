package plan

import (
	"encoding/json"
	"math/rand"
	"testing"
	"testing/quick"

	"jisc/internal/testseed"
	"jisc/internal/tuple"
)

func TestParseLeftDeepList(t *testing.T) {
	for src, want := range map[string]*Plan{"0,1,2,3": MustLeftDeep(0, 1, 2, 3), " 2 , 0 , 1 ": MustLeftDeep(2, 0, 1)} {
		if p, err := Parse(src); err != nil || !p.Equal(want) {
			t.Fatalf("Parse(%q) = %v, %v", src, p, err)
		}
	}
}

func TestParseInfix(t *testing.T) {
	cases := map[string]*Plan{
		"((0⋈1)⋈2)":      MustLeftDeep(0, 1, 2),
		"((0 1) 2)":      MustLeftDeep(0, 1, 2),
		"((0*1)*2)":      MustLeftDeep(0, 1, 2),
		"((0 1) (2 3))":  MustNew(Join(Join(Leaf(0), Leaf(1)), Join(Leaf(2), Leaf(3)))),
		"(3 (1 0))":      MustNew(Join(Leaf(3), Join(Leaf(1), Leaf(0)))),
		"(((0⋈1)⋈2)⋈3)":  MustLeftDeep(0, 1, 2, 3),
		"  ((0 1) 2)   ": MustLeftDeep(0, 1, 2),
	}
	for src, want := range cases {
		got, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		if !got.Equal(want) {
			t.Errorf("Parse(%q) = %s, want %s", src, got, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "   ", "(", ")", "(0", "(0 1", "(0 1))", "0,1,x", "((0 1) 0)",
		"(0 0)", "abc", "(0 1) 2", "0,,1", "999999", "(0 99)",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
}

func TestParseSingleStreamRejected(t *testing.T) {
	if _, err := Parse("0"); err == nil {
		t.Fatal("single-stream plan accepted")
	}
}

// Property: String → Parse round-trips every random plan tree.
func TestParseRoundTripProperty(t *testing.T) {
	build := func(rng *rand.Rand, streams []tuple.StreamID) *Node {
		var rec func(ids []tuple.StreamID) *Node
		rec = func(ids []tuple.StreamID) *Node {
			if len(ids) == 1 {
				return Leaf(ids[0])
			}
			cut := 1 + rng.Intn(len(ids)-1)
			return Join(rec(ids[:cut]), rec(ids[cut:]))
		}
		return rec(streams)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9)
		ids := make([]tuple.StreamID, n)
		for i := range ids {
			ids[i] = tuple.StreamID(i)
		}
		rng.Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		p := MustNew(build(rng, ids))
		q, err := Parse(p.String())
		return err == nil && p.Equal(q)
	}
	if err := quick.Check(f, testseed.Quick(t, 1, 200)); err != nil {
		t.Fatal(err)
	}
}

func TestPlanJSON(t *testing.T) {
	p := MustLeftDeep(0, 1, 2)
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `"((0⋈1)⋈2)"` {
		t.Fatalf("marshal = %s", data)
	}
	var q Plan
	if err := json.Unmarshal(data, &q); err != nil {
		t.Fatal(err)
	}
	if !p.Equal(&q) {
		t.Fatalf("round trip = %s", &q)
	}
	if err := json.Unmarshal([]byte(`"((("`), &q); err == nil {
		t.Fatal("bad plan JSON accepted")
	}
	if err := json.Unmarshal([]byte(`42`), &q); err == nil {
		t.Fatal("non-string plan JSON accepted")
	}
}

func FuzzParse(f *testing.F) {
	for _, seed := range []string{"((0⋈1)⋈2)", "0,1,2", "((0 1) (2 3))", "(((", "0,,1"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		// Any accepted plan must round-trip through its String form.
		q, err := Parse(p.String())
		if err != nil {
			t.Fatalf("round trip of %q -> %q failed: %v", src, p.String(), err)
		}
		if !p.Equal(q) {
			t.Fatalf("round trip of %q changed the plan", src)
		}
	})
}
