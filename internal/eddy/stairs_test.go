package eddy

import (
	"math/rand"
	"testing"

	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/enginetest"
	"jisc/internal/migrate"
	"jisc/internal/plan"
	"jisc/internal/testseed"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// STAIRs (§4.6) have no executor of their own: a STAIR is a prefix
// state of the engine's left-deep plan, promoted eagerly at the
// transition by Moving State (Promote/Demote) and on demand by JISC.
// These tests pin the STAIR behaviours the eddy baselines are compared
// on, run on the engine as bench.StairsAblation runs them.

// newStairs builds the engine's left-deep plan p, promoting eagerly
// (Moving State) or lazily (JISC); out, when not nil, collects each
// result's fingerprint.
func newStairs(t *testing.T, p *plan.Plan, window int, lazy bool, out *[]string) *engine.Engine {
	t.Helper()
	var strategy engine.Strategy = migrate.MovingState{}
	if lazy {
		strategy = core.New()
	}
	cfg := engine.Config{Plan: p, WindowSize: window, Strategy: strategy}
	if out != nil {
		cfg.Output = func(d engine.Delta) { *out = append(*out, d.Tuple.Fingerprint()) }
	}
	e := engine.MustNew(cfg)
	t.Cleanup(e.Close)
	return e
}

func TestStairsValidation(t *testing.T) {
	for _, strategy := range []engine.Strategy{migrate.MovingState{}, core.New()} {
		if _, err := engine.New(engine.Config{Strategy: strategy}); err == nil {
			t.Errorf("%s: nil plan accepted", strategy.Name())
		}
	}
}

func TestStairsJoinsAndState(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		var outs []string
		s := newStairs(t, plan.MustLeftDeep(0, 1, 2), 0, lazy, &outs)
		s.Feed(ev(0, 5))
		s.Feed(ev(1, 5))
		s.Feed(ev(2, 5))
		if len(outs) != 1 || outs[0] != "0#1|1#1|2#1" {
			t.Fatalf("lazy=%v: outs = %v", lazy, outs)
		}
		// The intermediate STAIR state exists (unlike CACQ).
		if st := s.NodeBySet(tuple.NewStreamSet(0, 1)).St; st.Size() != 1 {
			t.Fatalf("lazy=%v: intermediate state not materialized (size %d)", lazy, st.Size())
		}
	}
}

func TestStairsEagerMigrationPromotesAll(t *testing.T) {
	s := newStairs(t, plan.MustLeftDeep(0, 1, 2), 0, false, nil)
	s.Feed(ev(1, 5))
	s.Feed(ev(2, 5))
	if err := s.Migrate(plan.MustLeftDeep(1, 2, 0)); err != nil {
		t.Fatal(err)
	}
	st := s.NodeBySet(tuple.NewStreamSet(1, 2)).St
	if !st.Complete() || st.Size() != 1 {
		t.Fatalf("eager promote: complete=%v size=%d", st.Complete(), st.Size())
	}
	if s.Metrics().MigrationWork == 0 {
		t.Fatal("no promote work recorded")
	}
}

func TestStairsLazyMigrationDefersPromotion(t *testing.T) {
	var outs []string
	s := newStairs(t, plan.MustLeftDeep(0, 1, 2), 0, true, &outs)
	s.Feed(ev(1, 5))
	s.Feed(ev(2, 5))
	if err := s.Migrate(plan.MustLeftDeep(1, 2, 0)); err != nil {
		t.Fatal(err)
	}
	st := s.NodeBySet(tuple.NewStreamSet(1, 2)).St
	if st.Complete() || st.Size() != 0 {
		t.Fatalf("lazy migrate did eager work: size=%d", st.Size())
	}
	// The probe by stream 0 promotes on demand and joins.
	s.Feed(ev(0, 5))
	if len(outs) != 1 {
		t.Fatalf("outs = %v", outs)
	}
	if s.Metrics().Completions == 0 {
		t.Fatal("no lazy promotion recorded")
	}
}

// The ablation's two executors name their promotion, and CACQ, the
// other eddy baseline, its own.
func TestStairsNames(t *testing.T) {
	if n := newStairs(t, plan.MustLeftDeep(0, 1), 0, false, nil).Name(); n != "engine/moving-state" {
		t.Errorf("eager name %q", n)
	}
	if n := newStairs(t, plan.MustLeftDeep(0, 1), 0, true, nil).Name(); n != "engine/jisc" {
		t.Errorf("lazy name %q", n)
	}
	if n := MustNewCACQ(CACQConfig{Plan: plan.MustLeftDeep(0, 1)}).Name(); n != "cacq" {
		t.Errorf("cacq name %q", n)
	}
}

func TestStairsWindowEviction(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		var outs []string
		s := newStairs(t, plan.MustLeftDeep(0, 1), 2, lazy, &outs)
		s.Feed(ev(0, 1))
		s.Feed(ev(0, 2))
		s.Feed(ev(0, 3)) // evicts key 1 from stem and prefixes
		s.Feed(ev(1, 1)) // expired key: no join
		if len(outs) != 0 {
			t.Fatalf("lazy=%v: expired tuple joined: %v", lazy, outs)
		}
		s.Feed(ev(1, 3))
		if len(outs) != 1 {
			t.Fatalf("lazy=%v: live join missed: %v", lazy, outs)
		}
		if s.Metrics().Evictions == 0 {
			t.Fatalf("lazy=%v: evictions not counted", lazy)
		}
	}
}

func TestStairsLazyEvictionThroughIncompleteStates(t *testing.T) {
	s := newStairs(t, plan.MustLeftDeep(0, 1, 2), 2, true, nil)
	s.Feed(ev(0, 5))
	s.Feed(ev(1, 5))
	if err := s.Migrate(plan.MustLeftDeep(1, 2, 0)); err != nil {
		t.Fatal(err)
	}
	// Slide stream 1's window so key 5 expires while {1,2} is
	// incomplete: the removal must pass through without stopping.
	s.Feed(ev(1, 8))
	s.Feed(ev(1, 9))
	// key 5's entries must never be completed into {1,2} afterwards.
	s.Feed(ev(0, 5))
	if s.NodeBySet(tuple.NewStreamSet(1, 2)).St.ContainsKey(5) {
		t.Fatal("expired key materialized during lazy completion")
	}
}

func TestStairsMigrateRejectsBadPlans(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		s := newStairs(t, plan.MustLeftDeep(0, 1, 2), 0, lazy, nil)
		if err := s.Migrate(plan.MustLeftDeep(0, 2, 3)); err == nil {
			t.Errorf("lazy=%v: different stream set accepted", lazy)
		}
		if err := s.Migrate(plan.MustLeftDeep(0, 1)); err == nil {
			t.Errorf("lazy=%v: fewer streams accepted", lazy)
		}
	}
}

// Lazy completion must walk down through multiple stacked incomplete
// prefix states to the base stem: two back-to-back routing changes
// leave every prefix state of the final order incomplete, and the
// next probing tuple has to rebuild the whole lineage for its key.
func TestStairsLazyCompletionWalksToBase(t *testing.T) {
	var outs []string
	s := newStairs(t, plan.MustLeftDeep(0, 1, 2, 3), 0, true, &outs)
	for st := 0; st < 4; st++ {
		s.Feed(ev(tuple.StreamID(st), 5))
	}
	if len(outs) != 1 {
		t.Fatalf("priming outputs = %v", outs)
	}
	// Two immediate order changes: every prefix of the final order is
	// fresh and incomplete.
	if err := s.Migrate(plan.MustLeftDeep(3, 2, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Migrate(plan.MustLeftDeep(1, 3, 0, 2)); err != nil {
		t.Fatal(err)
	}
	before := s.Metrics()
	// A stream-2 arrival probes prefix {1,3,0}, which is incomplete —
	// the walk descends through incomplete {1,3} to the base stem of
	// stream 1 and completes both levels for key 5.
	s.Feed(ev(2, 5))
	after := s.Metrics()
	if after.Completions-before.Completions < 2 {
		t.Fatalf("Completions rose by %d, want ≥ 2 (stacked lazy completion)", after.Completions-before.Completions)
	}
	if len(outs) != 2 {
		t.Fatalf("outputs after lazy completion = %v", outs)
	}
	// Same key again: the states are attempted now, no re-completion.
	mid := s.Metrics()
	s.Feed(ev(2, 5))
	if got := s.Metrics().Completions; got != mid.Completions {
		t.Fatalf("re-probing an attempted key re-ran completion (%d -> %d)", mid.Completions, got)
	}
}

// Differential baseline: lazy and eager STAIR promotion must each emit
// exactly the naive reference's output multiset across randomized
// workloads with repeated (including back-to-back) routing changes.
func TestStairsLazyEagerDifferential(t *testing.T) {
	base := testseed.Seed(t, 1)
	orders := []*plan.Plan{
		plan.MustLeftDeep(0, 1, 2, 3),
		plan.MustLeftDeep(2, 0, 3, 1),
		plan.MustLeftDeep(3, 1, 0, 2),
		plan.MustLeftDeep(1, 2, 3, 0),
	}
	for c := 0; c < 8; c++ {
		seed := base + int64(c)
		for _, lazy := range []bool{false, true} {
			var fps []string
			s := newStairs(t, orders[0], 6, lazy, &fps)
			ref := enginetest.NewReference(engine.Config{Plan: orders[0], WindowSize: 6})
			switchTo := func(p *plan.Plan) {
				if err := s.Migrate(p); err != nil {
					t.Fatal(err)
				}
				ref.Migrate(p)
			}
			rng := rand.New(rand.NewSource(seed))
			src := workload.MustNewSource(workload.Config{Streams: 4, Domain: 4, Seed: seed})
			for i := 0; i < 250; i++ {
				if i > 0 && i%50 == 0 {
					switchTo(orders[rng.Intn(len(orders))])
					if rng.Intn(2) == 0 { // back-to-back change
						switchTo(orders[rng.Intn(len(orders))])
					}
				}
				x := src.Next()
				ref.Feed(x)
				s.Feed(x)
			}
			dst := map[string]int{}
			for _, fp := range fps {
				dst[fp]++
			}
			if err := ref.Check(dst); err != nil {
				t.Fatalf("seed %d, lazy=%v: %v", seed, lazy, err)
			}
		}
	}
}
