package core

import (
	"fmt"
	"math/rand"
	"testing"

	"jisc/internal/engine"
	"jisc/internal/enginetest"
	"jisc/internal/migrate"
	"jisc/internal/plan"
	"jisc/internal/testseed"
	"jisc/internal/tuple"
)

// The nested-loops key rule (DESIGN.md §6.9): a theta composite takes the
// key of its lowest-numbered stream's constituent, whichever child was
// left and whichever constituent arrived last, so an NL state's
// contents depend on its stream set alone — as Definition 1 requires of
// the state JISC completes. bandTheta is not an equivalence relation,
// so a composite's key decides what it matches above.

// bandTheta matches keys at most one apart: symmetric, not transitive.
func bandTheta(a, b *tuple.Tuple) bool {
	d := a.Key - b.Key
	return d >= -1 && d <= 1
}

// bandConfig configures an all-nested-loops engine over p with
// bandTheta, counting its emissions into outs.
func bandConfig(p *plan.Plan, strat engine.Strategy, win int, outs map[string]int) engine.Config {
	return engine.Config{
		Plan: p, WindowSize: win, Kind: engine.NLJoin, Theta: bandTheta,
		Strategy: strat,
		Output:   func(d engine.Delta) { outs[d.Tuple.Fingerprint()]++ },
	}
}

// bandRun feeds evs to a bandConfig engine on from, migrating to `to` (when
// non-nil) before evs[at], and returns how many results it emitted.
func bandRun(t *testing.T, strat engine.Strategy, from, to *plan.Plan, at int, evs ...[2]int) int {
	t.Helper()
	outs := map[string]int{}
	e := engine.MustNew(bandConfig(from, strat, 100, outs))
	for i, x := range evs {
		if to != nil && i == at {
			if err := e.Migrate(to); err != nil {
				t.Fatal(err)
			}
		}
		e.Feed(ev(tuple.StreamID(x[0]), tuple.Value(x[1])))
	}
	n := 0
	for _, c := range outs {
		n += c
	}
	return n
}

// An NL composite's key does not depend on which constituent arrived
// last: {0,1} built from s0=10, s1=11 is keyed 10 in either order, so
// s2=12 matches it in neither.
func TestNLCompositeKeyIgnoresArrivalOrder(t *testing.T) {
	p := plan.MustLeftDeep(0, 1, 2)
	a := bandRun(t, engine.Static{}, p, nil, 0, [2]int{0, 10}, [2]int{1, 11}, [2]int{2, 12})
	b := bandRun(t, engine.Static{}, p, nil, 0, [2]int{1, 11}, [2]int{0, 10}, [2]int{2, 12})
	if a != 0 || b != 0 {
		t.Fatalf("s0 first: %d results, s1 first: %d; want 0 and 0", a, b)
	}
}

// The state JISC and Moving State complete is the state normal
// processing builds: {0,1} completed after (1,2,0) → (0,1,2) matches
// s2=12 exactly as a static (0,1,2) does.
func TestNLCompletedStateMatchesStatic(t *testing.T) {
	evs := [][2]int{{0, 10}, {1, 11}, {2, 12}}
	want := bandRun(t, engine.Static{}, plan.MustLeftDeep(0, 1, 2), nil, 0, evs...)
	for _, strat := range []engine.Strategy{New(), migrate.MovingState{}} {
		got := bandRun(t, strat, plan.MustLeftDeep(1, 2, 0), plan.MustLeftDeep(0, 1, 2), 2, evs...)
		if got != want || want != 0 {
			t.Fatalf("%s: %d results, static (0,1,2): %d; want 0", strat.Name(), got, want)
		}
	}
}

// A state that survives a migration swapping its children keeps its
// entries, so their keys must not follow the child order: {0,1} from
// (0,1,2) serves (1,0,2) as a static (1,0,2) would have built it.
func TestNLSurvivingStateIgnoresChildOrder(t *testing.T) {
	evs := [][2]int{{0, 10}, {1, 11}, {2, 12}, {2, 10}}
	want := bandRun(t, engine.Static{}, plan.MustLeftDeep(1, 0, 2), nil, 0, evs...)
	for _, strat := range []engine.Strategy{New(), migrate.MovingState{}} {
		got := bandRun(t, strat, plan.MustLeftDeep(0, 1, 2), plan.MustLeftDeep(1, 0, 2), 2, evs...)
		if got != want || want != 1 {
			t.Fatalf("%s: %d results, static (1,0,2): %d; want 1", strat.Name(), got, want)
		}
	}
}

// bandOrders are the six left-deep orders of three streams.
var bandOrders = [][3]tuple.StreamID{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}

// bandStep feeds one random tuple to e and to ref and checks that e
// emitted exactly the reference's new results under ref's plan: with a
// non-transitive theta the answer depends on which pair is joined
// first, so the reference evaluates the plan it is given.
func bandStep(t *testing.T, rng *rand.Rand, e *engine.Engine, ref *enginetest.Reference, outs map[string]int, label string) {
	t.Helper()
	x := ev(tuple.StreamID(rng.Intn(3)), tuple.Value(rng.Intn(8)))
	want := map[string]int{}
	for _, d := range ref.Feed(x) {
		want[d.Tuple.Fingerprint()]++
	}
	clear(outs)
	e.Feed(x)
	if d := enginetest.Diff(want, outs); d != "" {
		t.Fatalf("%s: emitted results differ from the reference's (want, got):\n%s", label, d)
	}
}

// TestNLBandThetaStaticMatchesOracle: a static all-NL engine on each of
// the six left-deep orders emits, per step, exactly the reference's new
// results for that order.
func TestNLBandThetaStaticMatchesOracle(t *testing.T) {
	const win = 5
	for _, order := range bandOrders {
		rng := rand.New(rand.NewSource(testseed.Seed(t, 38)))
		outs := map[string]int{}
		cfg := bandConfig(plan.MustLeftDeep(order[:]...), engine.Static{}, win, outs)
		e, ref := engine.MustNew(cfg), enginetest.NewReference(cfg)
		for i := range 200 {
			bandStep(t, rng, e, ref, outs, fmt.Sprintf("order %v step %d", order, i))
		}
	}
}

// TestNLBandThetaMigrationMatchesOracle: JISC and Moving State,
// migrating among the six orders, emit after each migration exactly the
// current plan's reference results. Only emissions are compared: a stored
// NL root keeps the entries of the shape that built them.
func TestNLBandThetaMigrationMatchesOracle(t *testing.T) {
	const win = 5
	for _, strat := range []engine.Strategy{New(), migrate.MovingState{}} {
		rng := rand.New(rand.NewSource(testseed.Seed(t, 38)))
		outs := map[string]int{}
		order := bandOrders[0]
		cfg := bandConfig(plan.MustLeftDeep(order[:]...), strat, win, outs)
		e, ref := engine.MustNew(cfg), enginetest.NewReference(cfg)
		for i := range 480 {
			if i > 0 && i%40 == 0 {
				order = bandOrders[rng.Intn(len(bandOrders))]
				p := plan.MustLeftDeep(order[:]...)
				if err := e.Migrate(p); err != nil {
					t.Fatal(err)
				}
				ref.Migrate(p)
			}
			bandStep(t, rng, e, ref, outs, fmt.Sprintf("%s order %v step %d", strat.Name(), order, i))
		}
		if e.Metrics().Transitions == 0 {
			t.Fatalf("%s: no migration ran", strat.Name())
		}
	}
}
