package eddy

import (
	"slices"
	"testing"

	"jisc/internal/enginetest"
	"jisc/internal/plan"
	"jisc/internal/testseed"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

func ev(s tuple.StreamID, k tuple.Value) workload.Event {
	return workload.Event{Stream: s, Key: k}
}

func TestCACQValidation(t *testing.T) {
	if _, err := NewCACQ(CACQConfig{}); err == nil {
		t.Error("nil plan accepted")
	}
	bushy := plan.MustNew(plan.Join(plan.Join(plan.Leaf(0), plan.Leaf(1)), plan.Join(plan.Leaf(2), plan.Leaf(3))))
	if _, err := NewCACQ(CACQConfig{Plan: bushy}); err == nil {
		t.Error("bushy plan accepted")
	}
}

func TestMustConstructorsPanicOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewCACQ did not panic on nil plan")
		}
	}()
	MustNewCACQ(CACQConfig{})
}

func TestCACQMigrateRejectsBadPlans(t *testing.T) {
	c := MustNewCACQ(CACQConfig{Plan: plan.MustLeftDeep(0, 1, 2)})
	bushy := plan.MustNew(plan.Join(plan.Join(plan.Leaf(0), plan.Leaf(1)), plan.Join(plan.Leaf(2), plan.Leaf(3))))
	if err := c.Migrate(bushy); err == nil {
		t.Error("bushy routing order accepted")
	}
	if err := c.Migrate(plan.MustLeftDeep(0, 1, 3)); err == nil {
		t.Error("different stream set accepted")
	}
}

func TestCACQJoins(t *testing.T) {
	var outs []string
	c := MustNewCACQ(CACQConfig{
		Plan:   plan.MustLeftDeep(0, 1, 2),
		Output: func(tp *tuple.Tuple) { outs = append(outs, tp.Fingerprint()) },
	})
	c.Feed(ev(0, 5))
	c.Feed(ev(1, 5))
	c.Feed(ev(2, 5))
	if len(outs) != 1 || outs[0] != "0#1|1#1|2#1" {
		t.Fatalf("outs = %v", outs)
	}
	// Second stream-0 tuple joins the stored 1 and 2 tuples.
	c.Feed(ev(0, 5))
	if len(outs) != 2 {
		t.Fatalf("outs = %v", outs)
	}
	if c.Name() != "cacq" {
		t.Errorf("name %q, want cacq", c.Name())
	}
}

func TestCACQNoIntermediateStateAndFreeMigration(t *testing.T) {
	c := MustNewCACQ(CACQConfig{Plan: plan.MustLeftDeep(0, 1, 2, 3)})
	src := workload.MustNewSource(workload.Config{Streams: 4, Domain: 5, Seed: 2})
	for i := 0; i < 100; i++ {
		c.Feed(src.Next())
	}
	before := c.Metrics()
	if err := c.Migrate(plan.MustLeftDeep(3, 2, 1, 0)); err != nil {
		t.Fatal(err)
	}
	after := c.Metrics()
	if after.Probes != before.Probes || after.Inserts != before.Inserts {
		t.Fatal("CACQ migration performed state work")
	}
	if want := []tuple.StreamID{3, 2, 1, 0}; !slices.Equal(c.order, want) {
		t.Fatalf("order = %v, want %v", c.order, want)
	}
}

func TestCACQEddyVisitsCounted(t *testing.T) {
	c := MustNewCACQ(CACQConfig{Plan: plan.MustLeftDeep(0, 1, 2)})
	c.Feed(ev(0, 5))
	c.Feed(ev(1, 5))
	c.Feed(ev(2, 5))
	// One pass per dispatch-queue pop: the first tuple probes an empty
	// SteM (1), the second joins once and dead-ends (2), the third
	// climbs to a result (3).
	if got := c.EddyVisits(); got != 6 {
		t.Fatalf("eddy visits = %d, want 6", got)
	}
}

func TestCACQWindowEviction(t *testing.T) {
	var outs []string
	c := MustNewCACQ(CACQConfig{
		Plan: plan.MustLeftDeep(0, 1), WindowSize: 2,
		Output: func(tp *tuple.Tuple) { outs = append(outs, tp.Fingerprint()) },
	})
	c.Feed(ev(0, 1))
	c.Feed(ev(0, 2))
	c.Feed(ev(0, 3)) // evicts key 1
	c.Feed(ev(1, 1))
	if len(outs) != 0 {
		t.Fatalf("expired tuple joined: %v", outs)
	}
}

func TestCACQRejectsDifferentStreams(t *testing.T) {
	c := MustNewCACQ(CACQConfig{Plan: plan.MustLeftDeep(0, 1)})
	if err := c.Migrate(plan.MustLeftDeep(0, 2)); err == nil {
		t.Fatal("accepted different stream set")
	}
}

func BenchmarkCACQSteadyState(b *testing.B) {
	c := MustNewCACQ(CACQConfig{Plan: plan.MustLeftDeep(0, 1, 2, 3), WindowSize: 1000})
	src := workload.MustNewSource(workload.Config{Streams: 4, Domain: 10000, Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Feed(src.Next())
	}
}

func TestCACQLotteryMatchesFixedOutput(t *testing.T) {
	run := func(routing Routing) map[string]int {
		outs := map[string]int{}
		c := MustNewCACQ(CACQConfig{
			Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 16, Routing: routing,
			Output: func(tp *tuple.Tuple) { outs[tp.Fingerprint()]++ },
		})
		src := workload.MustNewSource(workload.Config{Streams: 3, Domain: 6, Seed: 44})
		for i := 0; i < 600; i++ {
			c.Feed(src.Next())
		}
		return outs
	}
	if d := enginetest.Diff(run(FixedOrder), run(Lottery)); d != "" {
		t.Fatalf("outputs differ (fixed, lottery):\n%s", d)
	}
}

func TestCACQLotteryPrefersSelectiveStem(t *testing.T) {
	// Stream 2 draws from a huge domain (nearly never matches):
	// routing it first should cost fewer eddy visits than the adverse
	// fixed order that visits it last.
	mkSrc := func() *workload.Source {
		return workload.MustNewSource(workload.Config{
			Streams: 4, Domain: 8, Seed: 9,
			Domains: []int64{8, 8, 100000, 8},
		})
	}
	adverse := MustNewCACQ(CACQConfig{
		Plan: plan.MustLeftDeep(0, 1, 3, 2), WindowSize: 64, // selective stream last
	})
	adaptive := MustNewCACQ(CACQConfig{
		Plan: plan.MustLeftDeep(0, 1, 3, 2), WindowSize: 64, Routing: Lottery,
	})
	src1, src2 := mkSrc(), mkSrc()
	for i := 0; i < 5000; i++ {
		adverse.Feed(src1.Next())
		adaptive.Feed(src2.Next())
	}
	av := adverse.EddyVisits()
	lv := adaptive.EddyVisits()
	if lv >= av {
		t.Fatalf("lottery routing not cheaper: adaptive %d visits vs fixed-adverse %d", lv, av)
	}
}

func TestLotteryNextExhausted(t *testing.T) {
	l := newLottery([]tuple.StreamID{0, 1})
	if _, ok := l.next([]tuple.StreamID{0, 1}, tuple.NewStreamSet(0, 1)); ok {
		t.Fatal("next returned a stream with all done")
	}
}

// Lottery routing must keep CACQ's output identical to fixed-order
// routing across migrations — routing policy affects cost, never
// results.
func TestCACQLotteryDifferentialUnderMigration(t *testing.T) {
	base := testseed.Seed(t, 2)
	for c := 0; c < 6; c++ {
		seed := base + int64(c)
		outs := map[Routing]map[string]int{}
		for _, r := range []Routing{FixedOrder, Lottery} {
			dst := map[string]int{}
			outs[r] = dst
			cq := MustNewCACQ(CACQConfig{
				Plan: plan.MustLeftDeep(0, 1, 2, 3), WindowSize: 5, Routing: r,
				Output: func(tp *tuple.Tuple) { dst[tp.Fingerprint()]++ },
			})
			src := workload.MustNewSource(workload.Config{Streams: 4, Domain: 3, Seed: seed})
			for i := 0; i < 300; i++ {
				if i == 150 {
					if err := cq.Migrate(plan.MustLeftDeep(3, 1, 2, 0)); err != nil {
						t.Fatal(err)
					}
				}
				cq.Feed(src.Next())
			}
		}
		if d := enginetest.Diff(outs[FixedOrder], outs[Lottery]); d != "" {
			t.Fatalf("seed %d: lottery routing changed CACQ's results:\n%s", seed, d)
		}
	}
}
