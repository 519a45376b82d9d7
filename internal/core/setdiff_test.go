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
	"jisc/internal/workload"
)

// Set-difference pipelines (§4.7). enginetest.Reference keeps the raw
// per-stream windows and recomputes the passing set — outer tuples whose
// key has no live match in any inner stream — from scratch; the
// engine's delta stream (additions minus retractions) must always
// reproduce the passing set the reference's own deltas build.

type diffHarness struct {
	t   *testing.T
	e   *engine.Engine
	ref *enginetest.Reference
	// The passing sets, "ref=key" → 1, derived from the engine's delta
	// stream and from the reference's.
	passing, want map[string]int
}

func newDiffHarness(t *testing.T, strat engine.Strategy, streams, win int) *diffHarness {
	t.Helper()
	order := make([]tuple.StreamID, streams)
	for i := range order {
		order[i] = tuple.StreamID(i)
	}
	h := &diffHarness{t: t, passing: map[string]int{}, want: map[string]int{}}
	cfg := engine.Config{
		Plan: plan.MustLeftDeep(order...), Kind: engine.SetDiff, WindowSize: win,
		Strategy: strat,
		Output:   func(d engine.Delta) { h.apply(h.passing, d) },
	}
	h.e, h.ref = engine.MustNew(cfg), enginetest.NewReference(cfg)
	return h
}

// apply folds one delta into a passing set: an addition of a tuple not
// passing, or a retraction of one that is.
func (h *diffHarness) apply(passing map[string]int, d engine.Delta) {
	tup := fmt.Sprintf("%v=%d", d.Tuple.First(), d.Tuple.Key)
	switch {
	case d.Retraction && passing[tup] == 0:
		h.t.Fatalf("retraction of non-passing tuple %s", tup)
	case d.Retraction:
		delete(passing, tup)
	case passing[tup] != 0:
		h.t.Fatalf("duplicate addition of %s", tup)
	default:
		passing[tup] = 1
	}
}

func (h *diffHarness) feed(ev workload.Event) {
	for _, d := range h.ref.Feed(ev) {
		h.apply(h.want, d)
	}
	h.e.Feed(ev)
}

func (h *diffHarness) migrate(p *plan.Plan) error {
	h.ref.Migrate(p)
	return h.e.Migrate(p)
}

func (h *diffHarness) check(t *testing.T, at string) {
	t.Helper()
	if d := enginetest.Diff(h.want, h.passing); d != "" {
		t.Fatalf("%s: passing set diverged (reference, engine):\n%s", at, d)
	}
}

func TestSetDiffBasics(t *testing.T) {
	h := newDiffHarness(t, engine.Static{}, 2, 10)
	h.feed(ev(0, 1)) // passes
	h.check(t, "after outer")
	h.feed(ev(1, 1)) // suppresses it
	h.check(t, "after inner arrival")
	h.feed(ev(0, 2)) // passes
	h.feed(ev(0, 1)) // suppressed immediately
	h.check(t, "after more outers")
}

func TestSetDiffRequalificationOnInnerExpiry(t *testing.T) {
	h := newDiffHarness(t, engine.Static{}, 2, 2)
	h.feed(ev(0, 7))
	h.feed(ev(1, 7)) // suppress
	h.check(t, "suppressed")
	h.feed(ev(1, 8))
	h.feed(ev(1, 9)) // inner window 2: key 7 expires -> requalify
	h.check(t, "requalified")
	if len(h.passing) != 1 {
		t.Fatalf("passing = %v", h.passing)
	}
}

func TestSetDiffOuterExpiry(t *testing.T) {
	h := newDiffHarness(t, engine.Static{}, 2, 2)
	h.feed(ev(0, 1))
	h.feed(ev(0, 2))
	h.feed(ev(0, 3)) // key 1 expires from the outer window
	h.check(t, "outer expiry")
}

func TestSetDiffChain(t *testing.T) {
	h := newDiffHarness(t, engine.Static{}, 4, 5)
	rng := rand.New(rand.NewSource(testseed.Seed(t, 11)))
	for i := 0; i < 200; i++ {
		h.feed(ev(tuple.StreamID(rng.Intn(4)), tuple.Value(rng.Intn(5))))
		h.check(t, fmt.Sprintf("step %d", i))
	}
}

// §4.7 with JISC: migrate a diff chain and keep checking against the
// reference. The passing set is order-independent, so any inner reordering
// must leave the passing set unchanged.
func TestSetDiffJISCMigration(t *testing.T) {
	base := testseed.Seed(t, 0)
	for seed := base; seed < base+6; seed++ {
		h := newDiffHarness(t, New(), 4, 4)
		rng := rand.New(rand.NewSource(seed))
		plans := []*plan.Plan{
			plan.MustLeftDeep(0, 3, 1, 2),
			plan.MustLeftDeep(0, 2, 3, 1),
			plan.MustLeftDeep(0, 1, 2, 3),
		}
		for i := 0; i < 240; i++ {
			if i > 0 && i%40 == 0 {
				if err := h.migrate(plans[(i/40-1)%len(plans)]); err != nil {
					t.Fatal(err)
				}
			}
			h.feed(ev(tuple.StreamID(rng.Intn(4)), tuple.Value(rng.Intn(4))))
			h.check(t, fmt.Sprintf("seed %d step %d", seed, i))
		}
	}
}

func TestSetDiffMovingStateMigration(t *testing.T) {
	h := newDiffHarness(t, migrate.MovingState{}, 3, 4)
	rng := rand.New(rand.NewSource(testseed.Seed(t, 3)))
	plans := []*plan.Plan{
		plan.MustLeftDeep(0, 2, 1),
		plan.MustLeftDeep(0, 1, 2),
	}
	for i := 0; i < 160; i++ {
		if i > 0 && i%30 == 0 {
			if err := h.migrate(plans[(i/30-1)%len(plans)]); err != nil {
				t.Fatal(err)
			}
		}
		h.feed(ev(tuple.StreamID(rng.Intn(3)), tuple.Value(rng.Intn(3))))
		h.check(t, fmt.Sprintf("step %d", i))
	}
}

// Outer migration is rejected: the outer stream anchors the pipeline.
func TestSetDiffKeepsOuterFirst(t *testing.T) {
	h := newDiffHarness(t, New(), 3, 4)
	// Migrating so a different stream becomes the outer changes the
	// query itself, not the plan; the engine accepts only reorderings
	// of the same stream set, and the paper's §4.7 example reorders
	// inners only. Feed a little and reorder inners.
	h.feed(ev(0, 1))
	if err := h.migrate(plan.MustLeftDeep(0, 2, 1)); err != nil {
		t.Fatal(err)
	}
	h.check(t, "after inner reorder")
}

// The paper's §4.7 example: (((A−B)−C)−D) migrates to (((A−D)−B)−C);
// states AD and ADB are incomplete while ADBC is complete.
func TestSetDiffPaperExampleClassification(t *testing.T) {
	h := newDiffHarness(t, New(), 4, 10)
	for s := tuple.StreamID(0); s < 4; s++ {
		h.feed(ev(s, tuple.Value(10+int(s))))
	}
	if err := h.migrate(plan.MustLeftDeep(0, 3, 1, 2)); err != nil {
		t.Fatal(err)
	}
	ad := h.e.NodeBySet(tuple.NewStreamSet(0, 3))
	adb := h.e.NodeBySet(tuple.NewStreamSet(0, 3, 1))
	adbc := h.e.NodeBySet(tuple.NewStreamSet(0, 1, 2, 3))
	if ad.St.Complete() {
		t.Error("AD should be incomplete")
	}
	if adb.St.Complete() {
		t.Error("ADB should be incomplete")
	}
	if !adbc.St.Complete() {
		t.Error("ADBC should be complete")
	}
	h.check(t, "after classification")
}
