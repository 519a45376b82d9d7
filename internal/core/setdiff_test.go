package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"jisc/internal/engine"
	"jisc/internal/migrate"
	"jisc/internal/plan"
	"jisc/internal/testseed"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// Set-difference pipelines (§4.7). The oracle maintains the raw
// per-stream windows and recomputes the passing set — outer tuples
// whose key has no live match in any inner stream — from scratch; the
// engine's delta stream (additions minus retractions) must always
// reproduce it.

type diffHarness struct {
	e       *engine.Engine
	passing map[tuple.Ref]tuple.Value // derived from the delta stream

	// raw windows for the oracle
	win     int
	streams int
	hist    map[tuple.StreamID][]tuple.Value // per-stream keys, arrival order
	seqs    map[tuple.StreamID]uint64
}

func newDiffHarness(t *testing.T, strat engine.Strategy, streams, win int) *diffHarness {
	t.Helper()
	order := make([]tuple.StreamID, streams)
	for i := range order {
		order[i] = tuple.StreamID(i)
	}
	h := &diffHarness{
		passing: map[tuple.Ref]tuple.Value{},
		win:     win,
		streams: streams,
		hist:    map[tuple.StreamID][]tuple.Value{},
		seqs:    map[tuple.StreamID]uint64{},
	}
	h.e = engine.MustNew(engine.Config{
		Plan: plan.MustLeftDeep(order...), Kind: engine.SetDiff, WindowSize: win,
		Strategy: strat,
		Output: func(d engine.Delta) {
			ref := d.Tuple.First()
			if d.Retraction {
				if _, ok := h.passing[ref]; !ok {
					t.Fatalf("retraction of non-passing tuple %v", ref)
				}
				delete(h.passing, ref)
			} else {
				if _, ok := h.passing[ref]; ok {
					t.Fatalf("duplicate addition of %v", ref)
				}
				h.passing[ref] = d.Tuple.Key
			}
		},
	})
	return h
}

func (h *diffHarness) feed(ev workload.Event) {
	h.hist[ev.Stream] = append(h.hist[ev.Stream], ev.Key)
	h.seqs[ev.Stream]++
	h.e.Feed(ev)
}

// oracle recomputes the passing set from the raw windows.
func (h *diffHarness) oracle() map[tuple.Ref]tuple.Value {
	innerKeys := map[tuple.Value]bool{}
	for s := 1; s < h.streams; s++ {
		keys := h.hist[tuple.StreamID(s)]
		start := 0
		if len(keys) > h.win {
			start = len(keys) - h.win
		}
		for _, k := range keys[start:] {
			innerKeys[k] = true
		}
	}
	out := map[tuple.Ref]tuple.Value{}
	outer := h.hist[0]
	start := 0
	if len(outer) > h.win {
		start = len(outer) - h.win
	}
	for i := start; i < len(outer); i++ {
		if !innerKeys[outer[i]] {
			out[tuple.Ref{Stream: 0, Seq: uint64(i + 1)}] = outer[i]
		}
	}
	return out
}

func (h *diffHarness) check(t *testing.T, at string) {
	t.Helper()
	want := h.oracle()
	if len(want) == len(h.passing) {
		same := true
		for r, k := range want {
			if h.passing[r] != k {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	t.Fatalf("%s: passing set diverged\n got: %s\nwant: %s", at, renderSet(h.passing), renderSet(want))
}

func renderSet(m map[tuple.Ref]tuple.Value) string {
	var parts []string
	for r, k := range m {
		parts = append(parts, fmt.Sprintf("%v=%d", r, k))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
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
// oracle. The oracle is order-independent, so any inner reordering
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
				if err := h.e.Migrate(plans[(i/40-1)%len(plans)]); err != nil {
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
			if err := h.e.Migrate(plans[(i/30-1)%len(plans)]); err != nil {
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
	if err := h.e.Migrate(plan.MustLeftDeep(0, 2, 1)); err != nil {
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
	if err := h.e.Migrate(plan.MustLeftDeep(0, 3, 1, 2)); err != nil {
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
