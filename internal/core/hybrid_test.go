package core

import (
	"math/rand"
	"strings"
	"testing"

	"jisc/internal/engine"
	"jisc/internal/enginetest"
	"jisc/internal/migrate"
	"jisc/internal/plan"
	"jisc/internal/testseed"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// Hybrid plans (§2.1): equi-joins at the bottom of a left-deep plan,
// theta joins above, held to enginetest.Reference, which recomputes
// results directly from the raw windows with the mixed predicate chain.

// hybridTheta is the non-equi predicate used for the upper joins:
// composite and stored tuple agree on key mod 3 (coarser than the
// equi-join on full keys below).
func hybridTheta(a, b *tuple.Tuple) bool { return a.Key%3 == b.Key%3 }

// hybridConfig configures (((0⋈1)⋈2) theta 3): bottom two joins equi,
// top join theta, counting its emissions into outs.
func hybridConfig(strat engine.Strategy, win int, outs map[string]int) engine.Config {
	top := tuple.NewStreamSet(0, 1, 2, 3)
	return engine.Config{
		Plan: plan.MustLeftDeep(0, 1, 2, 3), WindowSize: win,
		Kind:       engine.HashJoin,
		Theta:      hybridTheta,
		ThetaNodes: func(set tuple.StreamSet) bool { return set == top },
		Strategy:   strat,
		Output: func(d engine.Delta) {
			outs[d.Tuple.Fingerprint()]++
		},
	}
}

func TestHybridPlanMatchesOracle(t *testing.T) {
	const win = 6
	outs := map[string]int{}
	cfg := hybridConfig(engine.Static{}, win, outs)
	e := engine.MustNew(cfg)
	ref := enginetest.NewReference(cfg)
	rng := rand.New(rand.NewSource(testseed.Seed(t, 21)))
	for i := 0; i < 300; i++ {
		ev := workload.Event{Stream: tuple.StreamID(rng.Intn(4)), Key: tuple.Value(rng.Intn(6))}
		ref.Feed(ev)
		e.Feed(ev)
	}
	if err := ref.Check(outs); err != nil {
		t.Fatal(err)
	}
}

// A hybrid plan migrates the equi-join prefix while the theta join on
// top stays put; JISC and Moving State must both emit the reference's
// results.
func TestHybridMigrationStrategiesAgree(t *testing.T) {
	for _, strat := range []engine.Strategy{New(), migrate.MovingState{}} {
		outs := map[string]int{}
		cfg := hybridConfig(strat, 8, outs)
		e, ref := engine.MustNew(cfg), enginetest.NewReference(cfg)
		src := workload.MustNewSource(workload.Config{Streams: 4, Domain: 6, Seed: 13})
		plans := []*plan.Plan{
			plan.MustLeftDeep(1, 2, 0, 3),
			plan.MustLeftDeep(2, 0, 1, 3),
			plan.MustLeftDeep(0, 1, 2, 3),
		}
		for i := 0; i < 400; i++ {
			if i > 0 && i%90 == 0 {
				p := plans[(i/90-1)%len(plans)]
				if err := e.Migrate(p); err != nil {
					t.Fatal(err)
				}
				ref.Migrate(p)
			}
			x := src.Next()
			ref.Feed(x)
			e.Feed(x)
		}
		if err := ref.Check(outs); err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
	}
}

// Moving the theta join's stream set itself (here: making the theta
// node cover a different prefix) keeps working as long as the theta
// node stays above the hash joins.
func TestHybridValidation(t *testing.T) {
	theta := func(set tuple.StreamSet) bool { return set == tuple.NewStreamSet(0, 1) }
	_, err := engine.New(engine.Config{
		Plan: plan.MustLeftDeep(0, 1, 2), Kind: engine.HashJoin,
		Theta:      hybridTheta,
		ThetaNodes: theta,
	})
	if err == nil {
		t.Fatal("hash join above a nested-loops child was accepted")
	}
	// A legal start: with {0,1} the theta node, plan (2,0,1) has no
	// theta state. Migrating to (0,1,2) would sink {0,1} below the hash
	// root, and Migrate refuses it before touching the plan.
	e, err := engine.New(engine.Config{
		Plan: plan.MustLeftDeep(2, 0, 1), Kind: engine.HashJoin, Strategy: New(),
		Theta:      hybridTheta,
		ThetaNodes: theta,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := e.Plan().String()
	err = e.Migrate(plan.MustLeftDeep(0, 1, 2))
	if err == nil || !strings.Contains(err.Error(), "cannot consume nested-loops child") {
		t.Fatalf("Migrate to a hash join above a nested-loops child: err = %v", err)
	}
	if got := e.Plan().String(); got != before {
		t.Fatalf("refused Migrate changed the plan: %s -> %s", before, got)
	}
	// ThetaNodes without Theta is rejected.
	if _, err := engine.New(engine.Config{
		Plan: plan.MustLeftDeep(0, 1), ThetaNodes: theta,
	}); err == nil {
		t.Fatal("ThetaNodes without Theta accepted")
	}
	// ThetaNodes with non-hash base kind is rejected.
	if _, err := engine.New(engine.Config{
		Plan: plan.MustLeftDeep(0, 1), Kind: engine.NLJoin,
		Theta: hybridTheta, ThetaNodes: theta,
	}); err == nil {
		t.Fatal("ThetaNodes with NLJoin base accepted")
	}
}

// A migration that invalidates both a hash state and the theta state
// above it: completing the nested-loops state must first complete its
// incomplete hash child in full (completeHashFull).
func TestHybridCompletionThroughIncompleteHashChild(t *testing.T) {
	theta := func(set tuple.StreamSet) bool { return set.Count() >= 4 }
	for _, strat := range []engine.Strategy{New(), migrate.MovingState{}} {
		outs := map[string]int{}
		cfg := engine.Config{
			Plan: plan.MustLeftDeep(0, 1, 2, 3, 4), WindowSize: 8,
			Kind:       engine.HashJoin,
			Theta:      hybridTheta,
			ThetaNodes: theta,
			Strategy:   strat,
			Output:     func(d engine.Delta) { outs[d.Tuple.Fingerprint()]++ },
		}
		e, ref := engine.MustNew(cfg), enginetest.NewReference(cfg)
		src := workload.MustNewSource(workload.Config{Streams: 5, Domain: 5, Seed: 23})
		for i := 0; i < 300; i++ {
			if i == 150 {
				// Swap positions 2 and 4: {0,1,4} (hash) and
				// {0,1,4,3} (theta) are both new and incomplete.
				p := plan.MustLeftDeep(0, 1, 4, 3, 2)
				if err := e.Migrate(p); err != nil {
					t.Fatal(err)
				}
				ref.Migrate(p)
			}
			x := src.Next()
			ref.Feed(x)
			e.Feed(x)
		}
		if len(outs) == 0 {
			t.Fatal("no outputs")
		}
		if err := ref.Check(outs); err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
	}
}
