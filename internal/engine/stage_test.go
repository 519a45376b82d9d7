package engine_test

import (
	"strings"
	"testing"
	"time"

	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/obs"
	"jisc/internal/plan"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// stageTuples is the stage length of the migrate-uniform shape: the
// tuples fed between two migrations.
const stageTuples = 20_000

// stageRun drives TestMigrateUniformWork's left-deep shape — six
// streams, window 1000, keys uniform over 1250, the left-deep order
// rotated once a stage — one 256-tuple batch or one migration at a
// time, cycling through its input and its rotations, with a counting
// Output as the benchmark's engine rung has. A nil now is the default
// clock.
type stageRun struct {
	e       *engine.Engine
	evs     []workload.Event
	plans   []*plan.Plan
	next    int // the next rotation to install
	at      int // the next event to feed
	outputs int
}

func newStageRun(rec *obs.Recorder, now func() time.Time) *stageRun {
	r := &stageRun{evs: uniformEvents(6*stageTuples, 6, 1250, 3)}
	order := []tuple.StreamID{0, 1, 2, 3, 4, 5}
	for range order {
		order = append(order[1:], order[0])
		r.plans = append(r.plans, plan.MustLeftDeep(order...))
	}
	r.e = engine.MustNew(engine.Config{
		Plan: plan.MustLeftDeep(0, 1, 2, 3, 4, 5), WindowSize: 1000,
		Strategy: core.New(), Obs: rec, Now: now, Output: func(engine.Delta) { r.outputs++ },
	})
	return r
}

// feed feeds the next batch.
func (r *stageRun) feed() {
	r.e.FeedBatch(r.evs[r.at : r.at+256])
	if r.at += 256; r.at+256 > len(r.evs) {
		r.at = 0
	}
}

// stage feeds one stage's worth of batches.
func (r *stageRun) stage() {
	for range stageTuples / 256 {
		r.feed()
	}
}

// migrate installs the next rotation.
func (r *stageRun) migrate(tb testing.TB) {
	if err := r.e.Migrate(r.plans[r.next%len(r.plans)]); err != nil {
		tb.Fatal(err)
	}
	r.next++
}

// TestMigrationStageAllocs pins what a migration stage allocates with
// an obs recorder attached: completion episodes allocate nothing — no
// closure per episode, no spine slice per Procedure 3 walk — so a
// stage batch allocates only what its results and completed entries
// need (runs growing under reborn keys). With episodes allocation-free
// a batch reads 93 allocations; with a closure per episode and a heap
// spine per walk it read 244.
func TestMigrationStageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates beside the program")
	}
	rec := obs.NewSet("q", 0).Recorder(0)
	r := newStageRun(rec, nil)
	defer r.e.Close()
	r.stage()
	r.migrate(t)
	perBatch := testing.AllocsPerRun(40, r.feed)
	if episodes := rec.Completion.Count(); episodes < 1000 {
		t.Fatalf("%d completion episodes in 41 stage batches, want a stage full of them", episodes)
	}
	t.Logf("%.1f allocations per 256-tuple stage batch, %d episodes", perBatch, rec.Completion.Count())
	if perBatch > 100 {
		t.Errorf("%.1f allocations per 256-tuple stage batch, want ≤ 100", perBatch)
	}
}

// TestTraceKeepsMigrationLifecycle: a migration's completion episodes
// must not flush its own lifecycle out of the trace. On the
// migrate-uniform shape a stage runs some 2,500 episodes; traced one in
// sixteen, a full stage after the sixth migration leaves the
// default-capacity ring still holding that migration's plan-installed
// event and the classification event of every state of the new plan.
func TestTraceKeepsMigrationLifecycle(t *testing.T) {
	set := obs.NewSet("q", 0)
	r := newStageRun(set.Recorder(0), nil)
	defer r.e.Close()
	r.stage()
	for range 6 {
		r.migrate(t)
		r.stage()
	}
	want := r.plans[5].String()
	var installed *obs.Event
	states := 0
	events := set.Tracer.Events()
	for i := range events {
		switch ev := &events[i]; ev.Kind {
		case obs.EvPlanInstalled:
			installed, states = ev, 0
		case obs.EvStateComplete, obs.EvStateIncomplete:
			states++
		}
	}
	if installed == nil || !strings.HasSuffix(installed.Note, " -> "+want) {
		t.Fatalf("the ring of %d events (%d dropped) lost the last migration's plan-installed event", len(events), set.Tracer.Dropped())
	}
	if n := int(installed.Count + installed.Extra); n != 5 || states != n {
		t.Fatalf("the ring holds %d state events after plan-installed, which classified %d states; want 5", states, n)
	}
}

// TestObservationClockReads is the instrumentation budget's count: an
// observed engine reads its clock only to open and close a span it
// records — a sampled FeedBatch call, a completion episode, a Migrate —
// and never per probe. On the migrate-uniform shape, through three
// migrations, fed in 256-tuple batches and then one tuple per Feed
// call, every read is one of the two of a recorded span.
func TestObservationClockReads(t *testing.T) {
	var reads uint64
	rec := obs.NewSet("q", 0).Recorder(0)
	r := newStageRun(rec, func() time.Time { reads++; return time.Unix(0, 0) })
	defer r.e.Close()
	r.stage()
	for range 2 {
		r.migrate(t)
		r.stage()
	}
	r.migrate(t)
	for range 4000 {
		r.e.Feed(r.evs[r.at])
		r.at = (r.at + 1) % len(r.evs)
	}
	feeds, episodes, migrates := rec.Feed.Count(), rec.Completion.Count(), rec.Migrate.Count()
	t.Logf("%d clock reads: %d timed feeds, %d completion episodes, %d migrations", reads, feeds, episodes, migrates)
	if feeds == 0 || episodes == 0 || migrates != 3 {
		t.Fatalf("%d timed feeds, %d episodes, %d migrations: want all three spans recorded", feeds, episodes, migrates)
	}
	if want := 2 * (feeds + episodes + migrates); reads != want {
		t.Errorf("%d clock reads, want %d: two per recorded span", reads, want)
	}
}

// BenchmarkMigrationStage times one migration stage per op on the
// migrate-uniform shape: a MIGRATE to the next rotation and the
// stageTuples tuples after it, fed in 256-tuple batches.
// BenchmarkMigrationStageObserved is the same with an obs recorder
// attached; the difference is the instrumentation's cost where
// completion episodes happen, which BenchmarkFeedSteadyStateObserved
// (no migration) cannot see.
func BenchmarkMigrationStage(b *testing.B) { benchmarkMigrationStage(b, nil) }

func BenchmarkMigrationStageObserved(b *testing.B) {
	rec := obs.NewSet("bench", 0).Recorder(0)
	benchmarkMigrationStage(b, rec)
	if rec.Completion.Count() == 0 {
		b.Fatal("no completion episode recorded")
	}
}

func benchmarkMigrationStage(b *testing.B, rec *obs.Recorder) {
	r := newStageRun(rec, nil)
	defer r.e.Close()
	r.stage()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.migrate(b)
		r.stage()
	}
}
