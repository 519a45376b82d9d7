package engine

import (
	"testing"

	"jisc/internal/plan"
	"jisc/internal/tuple"
)

// Engine-level set-difference tests (strategy-independent paths; the
// migration-aware behavior is covered in internal/core against
// enginetest.Reference).

func newDiff(t *testing.T, win int, out *[]Delta) *Engine {
	t.Helper()
	cfg := Config{Plan: plan.MustLeftDeep(0, 1, 2), Kind: SetDiff, WindowSize: win}
	if out != nil {
		cfg.Output = collect(out)
	}
	return MustNew(cfg)
}

func TestSetDiffPassAndSuppress(t *testing.T) {
	var out []Delta
	e := newDiff(t, 10, &out)
	e.Feed(ev(0, 5)) // passes both inners
	if len(out) != 1 || out[0].Retraction {
		t.Fatalf("out = %v", out)
	}
	e.Feed(ev(1, 5)) // inner B match: retract
	if len(out) != 2 || !out[1].Retraction {
		t.Fatalf("out = %v", out)
	}
	e.Feed(ev(0, 5)) // new outer with suppressed key: nothing
	if len(out) != 2 {
		t.Fatalf("suppressed outer emitted: %v", out)
	}
}

func TestSetDiffSecondInnerSuppresses(t *testing.T) {
	var out []Delta
	e := newDiff(t, 10, &out)
	e.Feed(ev(0, 3))
	e.Feed(ev(2, 3)) // second-level inner
	if len(out) != 2 || !out[1].Retraction {
		t.Fatalf("out = %v", out)
	}
}

func TestSetDiffRequalifyOnInnerExpiry(t *testing.T) {
	var out []Delta
	e := newDiff(t, 2, &out)
	e.Feed(ev(0, 9))
	e.Feed(ev(1, 9)) // suppress
	e.Feed(ev(1, 1))
	e.Feed(ev(1, 2)) // inner window size 2: key 9 expires
	adds := 0
	for _, d := range out {
		if !d.Retraction && d.Tuple.Key == 9 {
			adds++
		}
	}
	if adds != 2 { // initial pass + requalification
		t.Fatalf("requalification adds = %d, out = %v", adds, out)
	}
}

func TestSetDiffOuterExpiryRetracts(t *testing.T) {
	var out []Delta
	e := newDiff(t, 2, &out)
	e.Feed(ev(0, 1))
	e.Feed(ev(0, 2))
	e.Feed(ev(0, 3)) // outer window 2: key 1 expires
	var retracted []tuple.Value
	for _, d := range out {
		if d.Retraction {
			retracted = append(retracted, d.Tuple.Key)
		}
	}
	if len(retracted) != 1 || retracted[0] != 1 {
		t.Fatalf("retracted = %v", retracted)
	}
}

func TestSetDiffStatesVisible(t *testing.T) {
	e := newDiff(t, 10, nil)
	e.Feed(ev(0, 5))
	if e.TotalStateSize() == 0 {
		t.Fatal("no state recorded")
	}
}

func TestHybridEngineSmoke(t *testing.T) {
	var out []Delta
	top := tuple.NewStreamSet(0, 1, 2)
	e := MustNew(Config{
		Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 10,
		Theta:      func(a, b *tuple.Tuple) bool { return a.Key%2 == b.Key%2 },
		ThetaNodes: func(set tuple.StreamSet) bool { return set == top },
		Output:     collect(&out),
	})
	e.Feed(ev(0, 4))
	e.Feed(ev(1, 4)) // equi join at the bottom
	e.Feed(ev(2, 6)) // theta join on parity at the top
	if len(out) != 1 {
		t.Fatalf("out = %v", out)
	}
	// Parity mismatch produces nothing.
	e.Feed(ev(2, 7))
	if len(out) != 1 {
		t.Fatalf("parity mismatch joined: %v", out)
	}
	// The NL node stores its composite in its table, under the key of
	// its lowest stream (0) — not the probing stream 2's 6.
	root := e.Root()
	if root.Kind != NLJoin || root.St.Size() != 1 || !root.St.ContainsKey(4) {
		t.Fatalf("hybrid root state: %v", root.St)
	}
	n := e.NodeBySet(tuple.NewStreamSet(0, 1))
	if n.St == nil {
		t.Fatal("bottom equi node missing table state")
	}
}

func TestNLEngineUsesTablesForScans(t *testing.T) {
	e := MustNew(Config{
		Plan: plan.MustLeftDeep(0, 1), Kind: NLJoin,
		Theta: func(a, b *tuple.Tuple) bool { return true },
	})
	e.Feed(ev(0, 1))
	if e.Scan(0).St == nil {
		t.Fatal("scan state should be a table even under NLJoin")
	}
	e.Feed(ev(1, 2))
	if root := e.Root(); root.Kind != NLJoin || root.St.Size() != 1 || !root.St.ContainsKey(1) {
		t.Fatalf("NL join state should be a table keyed by stream 0's key: %v", root.St)
	}
}

func TestEachEntryBothKinds(t *testing.T) {
	e := MustNew(Config{Plan: plan.MustLeftDeep(0, 1)})
	e.Feed(ev(0, 1))
	n := 0
	e.Scan(0).St.Each(func(*tuple.Tuple) bool { n++; return true })
	if n != 1 {
		t.Fatalf("Each over a scan state visited %d", n)
	}
	nl := MustNew(Config{
		Plan: plan.MustLeftDeep(0, 1), Kind: NLJoin,
		Theta: func(a, b *tuple.Tuple) bool { return true },
	})
	nl.Feed(ev(0, 1))
	nl.Feed(ev(1, 1))
	n = 0
	nl.Root().St.Each(func(*tuple.Tuple) bool { n++; return true })
	if n != 1 {
		t.Fatalf("Each over a nested-loops state visited %d", n)
	}
}
