package adaptive

import (
	"math"
	"testing"
	"testing/quick"

	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/obs"
	"jisc/internal/plan"
	"jisc/internal/testseed"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// TestAdvisorMinProbesDefault: the zero Config is usable, and its
// MinProbes default (16) decides when a stream's first estimate forms.
func TestAdvisorMinProbesDefault(t *testing.T) {
	a := MustNew(&fakeTarget{}, Config{}).advisor
	a.observeSample(0, 15, 15)
	if _, ok := a.sel[0]; ok {
		t.Fatal("an estimate formed from 15 probes, under the default MinProbes")
	}
	a.observeSample(0, 31, 15) // 16 more probes, no matches
	if s, ok := a.sel[0]; !ok || s != 0 {
		t.Fatalf("sel = %v %v after 16 probes, want 0 true", s, ok)
	}
}

func TestCostOf(t *testing.T) {
	sel := map[tuple.StreamID]float64{0: 1, 1: 0.5, 2: 2, 3: 1}
	// order 0,1,2,3: prefixes 1*0.5, 1*0.5*2, 1*0.5*2*1 = 0.5+1+1 = 2.5
	if got := costOf([]tuple.StreamID{0, 1, 2, 3}, sel); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("cost = %v, want 2.5", got)
	}
	// order 0,2,1,3: prefixes 2, 1, 1 = 4
	if got := costOf([]tuple.StreamID{0, 2, 1, 3}, sel); math.Abs(got-4) > 1e-12 {
		t.Fatalf("cost = %v, want 4", got)
	}
	// Unknown streams count as selectivity 1.
	if got := costOf([]tuple.StreamID{9, 8}, nil); got != 1 {
		t.Fatalf("cost with nil sel = %v", got)
	}
}

func TestBestOrderSortsAscending(t *testing.T) {
	sel := map[tuple.StreamID]float64{0: 0.9, 1: 0.1, 2: 3, 3: 0.5}
	got := bestOrder([]tuple.StreamID{0, 1, 2, 3}, sel)
	want := []tuple.StreamID{1, 3, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BestOrder = %v, want %v", got, want)
		}
	}
}

// Property: bestOrder's cost is ≤ the cost of any random permutation.
func TestBestOrderOptimalProperty(t *testing.T) {
	f := func(rawSel [6]uint8, perm1, perm2 uint8) bool {
		streams := []tuple.StreamID{0, 1, 2, 3, 4, 5}
		sel := map[tuple.StreamID]float64{}
		for i, r := range rawSel {
			sel[tuple.StreamID(i)] = float64(r%40)/10 + 0.05
		}
		best := bestOrder(streams, sel)
		bestCost := costOf(best, sel)
		// Compare against a couple of derived permutations.
		alt := append([]tuple.StreamID(nil), streams...)
		i, j := int(perm1)%6, int(perm2)%6
		alt[i], alt[j] = alt[j], alt[i]
		return bestCost <= costOf(alt, sel)+1e-9
	}
	if err := quick.Check(f, testseed.Quick(t, 1, 500)); err != nil {
		t.Fatal(err)
	}
}

func TestObserveSampleSmoothing(t *testing.T) {
	a := newAdvisor(&Config{MinProbes: 1})
	a.observeSample(0, 100, 100) // sel = 1.0
	if s, ok := a.sel[0]; !ok || s != 1.0 {
		t.Fatalf("sel = %v %v", s, ok)
	}
	a.observeSample(0, 200, 100) // window sample 0.0 -> smoothed 0.5
	if s := a.sel[0]; math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("smoothed sel = %v, want 0.5", s)
	}
	// Too few new probes: estimate unchanged.
	a.observeSample(0, 200, 100)
	if s := a.sel[0]; math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("estimate moved on zero probes: %v", s)
	}
}

func TestProposeHysteresis(t *testing.T) {
	tr := obs.NewTracer(8)
	a := newAdvisor(&Config{MinProbes: 1, Tracer: tr, Query: "q"})
	cur := plan.MustLeftDeep(0, 1, 2)
	// No data: no proposal.
	if _, ok := a.propose(cur); ok {
		t.Fatal("proposed with no observations")
	}
	// Feed strongly inverted selectivities.
	a.observeSample(1, 100, 10)  // sel 0.1
	a.observeSample(2, 100, 400) // sel 4.0
	// The expensive stream 2 sits in the middle of the current plan;
	// moving it last shrinks the first prefix by 40x.
	cur = plan.MustLeftDeep(0, 2, 1)
	p, ok := a.propose(cur)
	if !ok {
		t.Fatal("no proposal despite large improvement")
	}
	order, _ := p.Order()
	if order[len(order)-1] != 2 {
		t.Fatalf("most expensive stream not last: %v", order)
	}
	found := false
	for _, ev := range tr.Events() {
		if ev.Kind == obs.EvPlanProposed && ev.Query == "q" {
			found = true
		}
	}
	if !found {
		t.Fatal("no EvPlanProposed event traced")
	}
}

func TestProposeRejectsSmallImprovement(t *testing.T) {
	a := newAdvisor(&Config{MinProbes: 1})
	a.observeSample(1, 100, 100) // 1.0
	a.observeSample(2, 100, 110) // 1.1 — a 5% improvement at best
	if _, ok := a.propose(plan.MustLeftDeep(0, 2, 1)); ok {
		t.Fatal("proposed for sub-threshold improvement")
	}
}

func TestProposeSkipsBushy(t *testing.T) {
	a := newAdvisor(&Config{})
	bushy := plan.MustNew(plan.Join(plan.Join(plan.Leaf(0), plan.Leaf(1)), plan.Join(plan.Leaf(2), plan.Leaf(3))))
	if _, ok := a.propose(bushy); ok {
		t.Fatal("advised a bushy plan")
	}
}

func TestProposeNoChangeForOptimalPlan(t *testing.T) {
	a := newAdvisor(&Config{MinProbes: 1})
	a.observeSample(1, 100, 10)
	a.observeSample(2, 100, 400)
	// Already optimal order.
	if _, ok := a.propose(plan.MustLeftDeep(0, 1, 2)); ok {
		t.Fatal("proposed a no-op transition")
	}
}

// End to end: an engine running a plan with the expensive stream at
// the bottom; the advisor observes real probe counters and proposes
// moving the selective stream down, and the engine migrates under
// JISC to the improved plan.
func TestAdvisorDrivesEngineMigration(t *testing.T) {
	// Stream 1 draws from a tiny domain (matches often, expensive);
	// stream 2 from a large one (selective). Plan starts with the
	// expensive stream first.
	src := workload.MustNewSource(workload.Config{
		Streams: 3, Domain: 8, Seed: 5,
		Domains: []int64{8, 2, 64},
	})
	e := engine.MustNew(engine.Config{
		Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 64, Strategy: core.New(),
	})
	a := newAdvisor(&Config{MinProbes: 8})
	migrated := false
	for i := 0; i < 4000 && !migrated; i++ {
		e.Feed(src.Next())
		if i%200 == 0 {
			a.observeScanStats(e.ScanStats())
			if p, ok := a.propose(e.Plan()); ok {
				if err := e.Migrate(p); err != nil {
					t.Fatal(err)
				}
				migrated = true
				order, _ := p.Order()
				// The hot (tiny-domain) stream 1 must move after the
				// selective stream 2.
				pos := map[tuple.StreamID]int{}
				for idx, id := range order {
					pos[id] = idx
				}
				if pos[1] < pos[2] {
					t.Fatalf("expensive stream not demoted: %v", order)
				}
			}
		}
	}
	if !migrated {
		t.Fatal("advisor never proposed a transition")
	}
	if e.Metrics().Transitions != 1 {
		t.Fatalf("transitions = %d", e.Metrics().Transitions)
	}
}

// TestObserveSampleResetRebaseline: a cumulative reading below the
// previous one (fresh Nodes after a plan transition zero the counters)
// must rebaseline, not fold in a wrapped-around delta.
func TestObserveSampleResetRebaseline(t *testing.T) {
	a := newAdvisor(&Config{MinProbes: 1})
	a.observeSample(0, 100, 50)
	if s := a.sel[0]; s != 0.5 {
		t.Fatalf("sel = %v, want 0.5", s)
	}
	// Counters reset (e.g. after Migrate rebuilt the tree), then a few
	// fresh probes with a different rate.
	a.observeSample(0, 4, 4)
	if s := a.sel[0]; s != 0.5 {
		t.Fatalf("sel after reset reading = %v, want unchanged 0.5", s)
	}
	a.observeSample(0, 14, 14) // sample 1.0, smoothed by half
	if s := a.sel[0]; s != 0.75 {
		t.Fatalf("sel after fresh delta = %v, want 0.75", s)
	}
}
