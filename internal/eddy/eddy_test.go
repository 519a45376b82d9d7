package eddy

import (
	"slices"
	"testing"

	"jisc/internal/plan"
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

func TestStairsValidation(t *testing.T) {
	if _, err := NewStairs(StairsConfig{}); err == nil {
		t.Error("nil plan accepted")
	}
}

func TestStairsJoinsAndState(t *testing.T) {
	var outs []string
	s := MustNewStairs(StairsConfig{
		Plan:   plan.MustLeftDeep(0, 1, 2),
		Output: func(tp *tuple.Tuple) { outs = append(outs, tp.Fingerprint()) },
	})
	s.Feed(ev(0, 5))
	s.Feed(ev(1, 5))
	s.Feed(ev(2, 5))
	if len(outs) != 1 || outs[0] != "0#1|1#1|2#1" {
		t.Fatalf("outs = %v", outs)
	}
	// Intermediate STAIR state exists (unlike CACQ).
	if st, ok := s.inter[tuple.NewStreamSet(0, 1)]; !ok || st.Size() != 1 {
		t.Fatal("intermediate state not materialized")
	}
}

func TestStairsEagerMigrationPromotesAll(t *testing.T) {
	s := MustNewStairs(StairsConfig{Plan: plan.MustLeftDeep(0, 1, 2)})
	s.Feed(ev(1, 5))
	s.Feed(ev(2, 5))
	if err := s.Migrate(plan.MustLeftDeep(1, 2, 0)); err != nil {
		t.Fatal(err)
	}
	st := s.inter[tuple.NewStreamSet(1, 2)]
	if !st.Complete() || st.Size() != 1 {
		t.Fatalf("eager promote: complete=%v size=%d", st.Complete(), st.Size())
	}
	if s.Metrics().MigrationWork == 0 {
		t.Fatal("no promote work recorded")
	}
}

func TestStairsLazyMigrationDefersPromotion(t *testing.T) {
	var outs []string
	s := MustNewStairs(StairsConfig{
		Plan: plan.MustLeftDeep(0, 1, 2), Lazy: true,
		Output: func(tp *tuple.Tuple) { outs = append(outs, tp.Fingerprint()) },
	})
	s.Feed(ev(1, 5))
	s.Feed(ev(2, 5))
	if err := s.Migrate(plan.MustLeftDeep(1, 2, 0)); err != nil {
		t.Fatal(err)
	}
	st := s.inter[tuple.NewStreamSet(1, 2)]
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

func TestStairsNames(t *testing.T) {
	if MustNewStairs(StairsConfig{Plan: plan.MustLeftDeep(0, 1)}).Name() != "stairs" {
		t.Error("eager name")
	}
	if MustNewStairs(StairsConfig{Plan: plan.MustLeftDeep(0, 1), Lazy: true}).Name() != "stairs-jisc" {
		t.Error("lazy name")
	}
	if MustNewCACQ(CACQConfig{Plan: plan.MustLeftDeep(0, 1)}).Name() != "cacq" {
		t.Error("cacq name")
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
	fixed := run(FixedOrder)
	lot := run(Lottery)
	if len(fixed) != len(lot) {
		t.Fatalf("outputs differ: fixed %d vs lottery %d", len(fixed), len(lot))
	}
	for fp, n := range fixed {
		if lot[fp] != n {
			t.Fatalf("%s: fixed %d vs lottery %d", fp, n, lot[fp])
		}
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

func TestStairsWindowEviction(t *testing.T) {
	var outs []string
	s := MustNewStairs(StairsConfig{
		Plan: plan.MustLeftDeep(0, 1), WindowSize: 2,
		Output: func(tp *tuple.Tuple) { outs = append(outs, tp.Fingerprint()) },
	})
	s.Feed(ev(0, 1))
	s.Feed(ev(0, 2))
	s.Feed(ev(0, 3)) // evicts key 1 from stem and prefixes
	s.Feed(ev(1, 1)) // expired key: no join
	if len(outs) != 0 {
		t.Fatalf("expired tuple joined: %v", outs)
	}
	s.Feed(ev(1, 3))
	if len(outs) != 1 {
		t.Fatalf("live join missed: %v", outs)
	}
	if s.Metrics().Evictions == 0 {
		t.Fatal("evictions not counted")
	}
}

func TestStairsLazyEvictionThroughIncompleteStates(t *testing.T) {
	s := MustNewStairs(StairsConfig{Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 2, Lazy: true})
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
	st := s.inter[tuple.NewStreamSet(1, 2)]
	if st.ContainsKey(5) {
		t.Fatal("expired key materialized during lazy completion")
	}
}
