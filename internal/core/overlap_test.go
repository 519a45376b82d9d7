package core

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"jisc/internal/engine"
	"jisc/internal/enginetest"
	"jisc/internal/metrics"
	"jisc/internal/migrate"
	"jisc/internal/plan"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// The §4.3 counter of a state that survives an overlapped transition
// (§4.5) keeps its side: the side is a stream set on the state's table,
// not a pointer into the operator tree every Migrate rebuilds. These
// tests run a 4-way join, window 200, through transitions five tuples
// apart and require the surviving incomplete state to complete, its
// counter drained by evictions, rather than stay incomplete and pay a
// completion episode for every new key forever after.

// overlapRun is one such run: n tuples of a uniform 4-stream workload
// over domain, the plan migrated to migrations[i] before tuple i.
type overlapRun struct {
	deltas     []string // "+fp" or "-fp", in emission order
	outs       map[string]int
	completeAt int // the tuple after which watch was first complete again, -1 if never
	pending    int // watch's counter at the end
	met        metrics.Snapshot
}

func runOverlap(t *testing.T, strat engine.Strategy, initial *plan.Plan, migrations map[int]*plan.Plan,
	domain int64, n int, watch tuple.StreamSet) overlapRun {
	t.Helper()
	r := overlapRun{outs: map[string]int{}, completeAt: -1}
	cfg := engine.Config{Plan: initial, WindowSize: 200, Strategy: strat, Output: r.record}
	e := engine.MustNew(cfg)
	defer e.Close()
	r.feed(t, e, workload.MustNewSource(workload.Config{Streams: 4, Domain: domain, Seed: 7}).Take(n), 0, migrations, watch)
	r.met = e.Metrics()
	r.pending = e.NodeBySet(watch).St.Counter()
	return r
}

func (r *overlapRun) record(d engine.Delta) {
	sign := "+"
	if d.Retraction {
		sign = "-"
	} else {
		r.outs[d.Tuple.Fingerprint()]++
	}
	r.deltas = append(r.deltas, sign+d.Tuple.Fingerprint())
}

// feed feeds evs, the tuples from index base on, migrating as planned,
// and notes when watch is complete after the last planned migration.
func (r *overlapRun) feed(t *testing.T, e *engine.Engine, evs []workload.Event, base int, migrations map[int]*plan.Plan, watch tuple.StreamSet) {
	t.Helper()
	last := 0
	for i := range migrations {
		last = max(last, i)
	}
	for k, ev := range evs {
		i := base + k
		if p, ok := migrations[i]; ok {
			if err := e.Migrate(p); err != nil {
				t.Fatal(err)
			}
		}
		e.Feed(ev)
		if r.completeAt < 0 && i >= last {
			if n := e.NodeBySet(watch); n != nil && n.St.Complete() {
				r.completeAt = i
			}
		}
	}
}

// TestCounterSurvivesOverlappedTransition: {0,2} is born at the first
// transition, armed by one of its scans, and survives the second
// (0,2,1,3 → 2,0,3,1) with the same children. Its counter must keep
// draining as that scan evicts, so the state completes; a build that
// kept the side on the rebuilt tree lost it and left keys pending for
// good. Either way the results are Moving State's.
func TestCounterSurvivesOverlappedTransition(t *testing.T) {
	set := tuple.NewStreamSet(0, 2)
	migrations := map[int]*plan.Plan{
		1000: plan.MustLeftDeep(0, 2, 1, 3),
		1005: plan.MustLeftDeep(2, 0, 3, 1),
	}
	for _, domain := range []int64{1000, 5000} {
		t.Run(fmt.Sprintf("domain=%d", domain), func(t *testing.T) {
			lazy := runOverlap(t, New(), plan.MustLeftDeep(0, 1, 2, 3), migrations, domain, 20000, set)
			eager := runOverlap(t, migrate.MovingState{}, plan.MustLeftDeep(0, 1, 2, 3), migrations, domain, 20000, set)
			t.Logf("%v complete after tuple %d, %d completions, %d results", set, lazy.completeAt, lazy.met.Completions, lazy.met.Output)
			if lazy.completeAt < 0 {
				t.Errorf("%v never completed: %d keys still pending after 20,000 tuples (%d completions)", set, lazy.pending, lazy.met.Completions)
			}
			sameOutputs(t, lazy.outs, eager.outs)
		})
	}
}

// TestStaleCounterSideRearms: {0,1,2} is born at 0,1,3,2 → 0,1,2,3 with
// children {0,1} and {2}, and survives 0,1,2,3 → 0,2,1,3 with children
// {0,2} and {1}. Its side is no longer a child, so nothing could drain
// it; install re-arms it from its new children ({1} is complete: Case 2)
// and it completes.
func TestStaleCounterSideRearms(t *testing.T) {
	set := tuple.NewStreamSet(0, 1, 2)
	migrations := map[int]*plan.Plan{
		1000: plan.MustLeftDeep(0, 1, 2, 3),
		1005: plan.MustLeftDeep(0, 2, 1, 3),
	}
	lazy := runOverlap(t, New(), plan.MustLeftDeep(0, 1, 3, 2), migrations, 5000, 20000, set)
	eager := runOverlap(t, migrate.MovingState{}, plan.MustLeftDeep(0, 1, 3, 2), migrations, 5000, 20000, set)
	t.Logf("%v complete after tuple %d, %d completions, %d results", set, lazy.completeAt, lazy.met.Completions, lazy.met.Output)
	if lazy.completeAt < 0 {
		t.Errorf("%v never completed: %d keys still pending after 20,000 tuples (%d completions)", set, lazy.pending, lazy.met.Completions)
	}
	sameOutputs(t, lazy.outs, eager.outs)
}

// TestCheckpointAfterOverlapRearms: a checkpoint taken after the second
// MIGRATE of TestStaleCounterSideRearms restores to the uninterrupted
// run's deltas, in order, and completes {0,1,2} at the same tuple.
func TestCheckpointAfterOverlapRearms(t *testing.T) {
	set := tuple.NewStreamSet(0, 1, 2)
	migrations := map[int]*plan.Plan{
		1000: plan.MustLeftDeep(0, 1, 2, 3),
		1005: plan.MustLeftDeep(0, 2, 1, 3),
	}
	const n, at = 20000, 1010
	initial := plan.MustLeftDeep(0, 1, 3, 2)
	want := runOverlap(t, New(), initial, migrations, 5000, n, set)

	evs := workload.MustNewSource(workload.Config{Streams: 4, Domain: 5000, Seed: 7}).Take(n)
	got := overlapRun{outs: map[string]int{}, completeAt: -1}
	e := engine.MustNew(engine.Config{Plan: initial, WindowSize: 200, Strategy: New(), Output: got.record})
	got.feed(t, e, evs[:at], 0, migrations, set)
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	e.Close()
	r, err := engine.Restore(&buf, engine.Config{WindowSize: 200, Strategy: New(), Output: got.record})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got.feed(t, r, evs[at:], at, migrations, set)

	if want.completeAt < 0 || got.completeAt != want.completeAt {
		t.Errorf("%v complete after tuple %d restored, %d uninterrupted (-1: never)", set, got.completeAt, want.completeAt)
	}
	sameDeltas(t, got.deltas, want.deltas)
}

func sameOutputs(t *testing.T, a, b map[string]int) {
	t.Helper()
	if d := enginetest.Diff(a, b); d != "" {
		t.Fatalf("results differ (lazily, eagerly):\n%s", d)
	}
}

// TestRestoreRearmsLostCounterSide: testdata/snap_v4_lost_side.gob was
// written by a build that kept the counter side on the rebuilt tree —
// TestCounterSurvivesOverlappedTransition's run at domain 1,000,
// checkpointed after tuple 1,010 — so {0,2} is armed with no side. The
// restored engine re-arms it from its children; it completes, and the
// rest of the run emits what this build's uninterrupted run does, in
// order.
func TestRestoreRearmsLostCounterSide(t *testing.T) {
	set := tuple.NewStreamSet(0, 2)
	migrations := map[int]*plan.Plan{
		1000: plan.MustLeftDeep(0, 2, 1, 3),
		1005: plan.MustLeftDeep(2, 0, 3, 1),
	}
	const n, at = 20000, 1010
	evs := workload.MustNewSource(workload.Config{Streams: 4, Domain: 1000, Seed: 7}).Take(n)
	want := overlapRun{outs: map[string]int{}, completeAt: -1}
	ref := engine.MustNew(engine.Config{Plan: plan.MustLeftDeep(0, 1, 2, 3), WindowSize: 200, Strategy: New(), Output: want.record})
	defer ref.Close()
	want.feed(t, ref, evs[:at], 0, migrations, set)
	want.deltas = nil
	want.feed(t, ref, evs[at:], at, migrations, set)

	old, err := os.ReadFile("testdata/snap_v4_lost_side.gob")
	if err != nil {
		t.Fatal(err)
	}
	got := overlapRun{outs: map[string]int{}, completeAt: -1}
	r, err := engine.Restore(bytes.NewReader(old), engine.Config{WindowSize: 200, Strategy: New(), Output: got.record})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.NodeBySet(set).St; st.Complete() || st.CounterSide() == 0 {
		t.Fatalf("restored %v: complete=%v side=%v, want incomplete and re-armed", set, st.Complete(), st.CounterSide())
	}
	got.feed(t, r, evs[at:], at, migrations, set)
	if got.completeAt < 0 {
		t.Errorf("restored %v never completed", set)
	}
	sameDeltas(t, got.deltas, want.deltas)
}

// sameDeltas requires a restored run's deltas to be the uninterrupted
// run's, in order.
func sameDeltas(t *testing.T, got, want []string) {
	t.Helper()
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("%d deltas restored, %d uninterrupted", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delta %d: %s restored, %s uninterrupted", i, got[i], want[i])
		}
	}
}
