package migrate

import (
	"testing"
	"time"

	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

func ev(s tuple.StreamID, k tuple.Value) workload.Event {
	return workload.Event{Stream: s, Key: k}
}

func TestMovingStateEagerlyFillsStates(t *testing.T) {
	e := engine.MustNew(engine.Config{
		Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 100, Strategy: MovingState{},
	})
	for _, k := range []tuple.Value{1, 2, 3} {
		e.Feed(ev(1, k))
		e.Feed(ev(2, k))
	}
	if err := e.Migrate(plan.MustLeftDeep(1, 2, 0)); err != nil {
		t.Fatal(err)
	}
	n12 := e.NodeBySet(tuple.NewStreamSet(1, 2))
	if !n12.St.Complete() {
		t.Fatal("moving state left {1,2} incomplete")
	}
	if n12.St.Size() != 3 {
		t.Fatalf("{1,2} size = %d, want 3 (all keys eagerly computed)", n12.St.Size())
	}
	if e.Metrics().MigrationWork == 0 {
		t.Fatal("no migration work recorded")
	}
}

// haltClock wraps a strategy so that its OnTransition advances a fake
// clock by one second per unit of migration work done in it: the halt
// an eager strategy pays inside Migrate, in numbers a test can assert.
type haltClock struct {
	engine.Strategy
	clock *time.Time
}

func (h haltClock) OnTransition(e *engine.Engine) error {
	before := e.Metrics().MigrationWork
	err := h.Strategy.OnTransition(e)
	*h.clock = h.clock.Add(time.Duration(e.Metrics().MigrationWork-before) * time.Second)
	return err
}

// TestMovingStateOutputLatencyIsTheHalt: Moving State recomputes the
// new plan's {1,2} state (three entries) inside Migrate, so the first
// result after the transition costs no further migration work and the
// output latency a caller measures from before Migrate (package bench)
// is the halt plus the feeding time until that result.
func TestMovingStateOutputLatencyIsTheHalt(t *testing.T) {
	var clock, firstAt time.Time
	outputs := 0
	e := engine.MustNew(engine.Config{
		Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 100,
		Strategy: haltClock{MovingState{}, &clock},
		Output: func(engine.Delta) {
			if outputs == 0 {
				firstAt = clock
			}
			outputs++
		},
	})
	for _, k := range []tuple.Value{1, 2, 3} {
		e.Feed(ev(1, k))
		e.Feed(ev(2, k))
	}
	start := clock
	if err := e.Migrate(plan.MustLeftDeep(1, 2, 0)); err != nil {
		t.Fatal(err)
	}
	halt := e.Metrics().MigrationWork
	clock = clock.Add(2 * time.Millisecond)
	e.Feed(ev(0, 1))
	if halt != 3 || e.Metrics().MigrationWork != halt {
		t.Fatalf("migration work %d in Migrate, %d after the first result; want 3 and 3", halt, e.Metrics().MigrationWork)
	}
	if want := 3*time.Second + 2*time.Millisecond; outputs != 1 || firstAt.Sub(start) != want {
		t.Fatalf("%d results, first %v after the transition; want 1 and %v", outputs, firstAt.Sub(start), want)
	}
}

func TestMovingStateBushy(t *testing.T) {
	e := engine.MustNew(engine.Config{
		Plan: plan.MustLeftDeep(0, 1, 2, 3), WindowSize: 100, Strategy: MovingState{},
	})
	for _, k := range []tuple.Value{1, 2} {
		for s := tuple.StreamID(0); s < 4; s++ {
			e.Feed(ev(s, k))
		}
	}
	bushy := plan.MustNew(plan.Join(
		plan.Join(plan.Leaf(0), plan.Leaf(1)),
		plan.Join(plan.Leaf(2), plan.Leaf(3)),
	))
	if err := e.Migrate(bushy); err != nil {
		t.Fatal(err)
	}
	n23 := e.NodeBySet(tuple.NewStreamSet(2, 3))
	if !n23.St.Complete() || n23.St.Size() != 2 {
		t.Fatalf("{2,3}: complete=%v size=%d", n23.St.Complete(), n23.St.Size())
	}
}

func TestMovingStateNLJoin(t *testing.T) {
	band := func(a, b *tuple.Tuple) bool {
		d := a.Key - b.Key
		return d >= -1 && d <= 1
	}
	e := engine.MustNew(engine.Config{
		Plan: plan.MustLeftDeep(0, 1, 2), Kind: engine.NLJoin, Theta: band,
		Strategy: MovingState{},
	})
	e.Feed(ev(1, 10))
	e.Feed(ev(2, 10))
	if err := e.Migrate(plan.MustLeftDeep(1, 2, 0)); err != nil {
		t.Fatal(err)
	}
	n12 := e.NodeBySet(tuple.NewStreamSet(1, 2))
	if n12.Kind != engine.NLJoin || !n12.St.Complete() || n12.St.Size() != 1 {
		t.Fatalf("NL {1,2}: %v", n12.St)
	}
}

func TestParallelTrackConfigValidation(t *testing.T) {
	if _, err := NewParallelTrack(PTConfig{}); err == nil {
		t.Error("nil plan accepted")
	}
	if _, err := NewParallelTrack(PTConfig{Plan: plan.MustLeftDeep(0, 1), CheckEvery: -1}); err == nil {
		t.Error("negative check period accepted")
	}
}

func TestParallelTrackRunsBothPlans(t *testing.T) {
	pt := MustNewParallelTrack(PTConfig{Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 4, CheckEvery: 2})
	pt.Feed(ev(0, 1))
	if pt.Tracks() != 1 {
		t.Fatalf("tracks = %d", pt.Tracks())
	}
	if err := pt.Migrate(plan.MustLeftDeep(0, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if pt.Tracks() != 2 || !pt.MigrationActive() {
		t.Fatalf("tracks after migrate = %d", pt.Tracks())
	}
	// Every fed tuple is processed by both tracks: migration work.
	pt.Feed(ev(1, 1))
	if pt.Metrics().MigrationWork == 0 {
		t.Fatal("double processing not recorded")
	}
}

func TestParallelTrackDiscardsOldPlan(t *testing.T) {
	pt := MustNewParallelTrack(PTConfig{Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 3, CheckEvery: 2})
	src := workload.MustNewSource(workload.Config{Streams: 3, Domain: 4, Seed: 1})
	for i := 0; i < 30; i++ {
		pt.Feed(src.Next())
	}
	if err := pt.Migrate(plan.MustLeftDeep(2, 1, 0)); err != nil {
		t.Fatal(err)
	}
	// After 3 windows' worth of tuples, every pre-transition tuple has
	// left every window; the discard check must fire.
	for i := 0; i < 60 && pt.MigrationActive(); i++ {
		pt.Feed(src.Next())
	}
	if pt.MigrationActive() {
		t.Fatal("old plan never discarded")
	}
	if pt.Tracks() != 1 {
		t.Fatalf("tracks = %d", pt.Tracks())
	}
}

func TestParallelTrackDuplicateElimination(t *testing.T) {
	var outs []string
	pt := MustNewParallelTrack(PTConfig{
		Plan: plan.MustLeftDeep(0, 1), WindowSize: 10, CheckEvery: 100,
		Output: func(d engine.Delta) { outs = append(outs, d.Tuple.Fingerprint()) },
	})
	pt.Feed(ev(0, 5))
	if err := pt.Migrate(plan.MustLeftDeep(1, 0)); err != nil {
		t.Fatal(err)
	}
	// Post-transition pair: both tracks produce it; exactly one copy
	// must be emitted.
	pt.Feed(ev(0, 7))
	pt.Feed(ev(1, 7))
	// Mixed pair (old 0#1 with new 1#2): only the old track can see it.
	pt.Feed(ev(1, 5))
	counts := map[string]int{}
	for _, f := range outs {
		counts[f]++
	}
	for f, c := range counts {
		if c != 1 {
			t.Errorf("output %s emitted %d times", f, c)
		}
	}
	if len(counts) != 2 {
		t.Fatalf("outputs = %v, want the all-new pair and the mixed pair", counts)
	}
	if pt.DupDropped() == 0 {
		t.Fatal("no duplicates recorded as dropped")
	}
}

func TestParallelTrackOverlappedTransitionsStackTracks(t *testing.T) {
	pt := MustNewParallelTrack(PTConfig{Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 100, CheckEvery: 1000})
	pt.Feed(ev(0, 1))
	if err := pt.Migrate(plan.MustLeftDeep(0, 2, 1)); err != nil {
		t.Fatal(err)
	}
	pt.Feed(ev(1, 1))
	if err := pt.Migrate(plan.MustLeftDeep(2, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if pt.Tracks() != 3 {
		t.Fatalf("tracks = %d, want 3 (overlapped transitions)", pt.Tracks())
	}
}

func TestParallelTrackRejectsDifferentStreams(t *testing.T) {
	pt := MustNewParallelTrack(PTConfig{Plan: plan.MustLeftDeep(0, 1)})
	if err := pt.Migrate(plan.MustLeftDeep(0, 2)); err == nil {
		t.Fatal("accepted different stream set")
	}
}

func TestNames(t *testing.T) {
	if (MovingState{}).Name() != "moving-state" {
		t.Error("MovingState name")
	}
	pt := MustNewParallelTrack(PTConfig{Plan: plan.MustLeftDeep(0, 1)})
	if pt.Name() != "parallel-track" {
		t.Error("ParallelTrack name")
	}
}
