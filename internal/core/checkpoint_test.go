package core

import (
	"bytes"
	"testing"

	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// Checkpoint/restore round trips, exercised through the JISC strategy
// so that mid-migration snapshots carry incomplete states, attempted
// keys, armed counters, and birth ticks.

func runPair(t *testing.T, cfg engine.Config, events []workload.Event,
	migrateAt map[int]*plan.Plan, checkpointAt int) (uninterrupted, resumed map[string]int) {
	t.Helper()

	feedAll := func(e *engine.Engine, evs []workload.Event, base int, sink map[string]int, plans map[int]*plan.Plan) {
		for i, ev := range evs {
			if p, ok := plans[base+i]; ok {
				if err := e.Migrate(p); err != nil {
					t.Fatal(err)
				}
			}
			e.Feed(ev)
		}
		_ = sink
	}

	// Uninterrupted run.
	uninterrupted = map[string]int{}
	cfgA := cfg
	cfgA.Output = func(d engine.Delta) {
		if !d.Retraction {
			uninterrupted[d.Tuple.Fingerprint()]++
		}
	}
	ea := engine.MustNew(cfgA)
	feedAll(ea, events, 0, uninterrupted, migrateAt)

	// Interrupted run: process a prefix, checkpoint, restore into a
	// fresh engine, process the suffix.
	resumed = map[string]int{}
	sink := func(d engine.Delta) {
		if !d.Retraction {
			resumed[d.Tuple.Fingerprint()]++
		}
	}
	cfgB := cfg
	cfgB.Output = sink
	eb := engine.MustNew(cfgB)
	feedAll(eb, events[:checkpointAt], 0, resumed, migrateAt)

	var buf bytes.Buffer
	if err := eb.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	cfgC := cfg
	cfgC.Plan = nil // restored from the checkpoint
	cfgC.Output = sink
	ec, err := engine.Restore(&buf, cfgC)
	if err != nil {
		t.Fatal(err)
	}
	feedAll(ec, events[checkpointAt:], checkpointAt, resumed, migrateAt)
	return uninterrupted, resumed
}

func compare(t *testing.T, a, b map[string]int) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("distinct outputs differ: %d vs %d", len(a), len(b))
	}
	for fp, n := range a {
		if b[fp] != n {
			t.Fatalf("%s: %d vs %d", fp, n, b[fp])
		}
	}
}

func TestCheckpointRoundTripSteadyState(t *testing.T) {
	src := workload.MustNewSource(workload.Config{Streams: 3, Domain: 6, Seed: 50})
	events := src.Take(400)
	cfg := engine.Config{Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 12, Strategy: New()}
	a, b := runPair(t, cfg, events, nil, 200)
	compare(t, a, b)
	if len(a) == 0 {
		t.Fatal("no outputs")
	}
}

// The demanding case: checkpoint taken between a transition and the
// completion of its incomplete states — the snapshot must carry the
// whole lazy-migration machinery.
func TestCheckpointMidMigration(t *testing.T) {
	src := workload.MustNewSource(workload.Config{Streams: 4, Domain: 8, Seed: 51})
	events := src.Take(600)
	cfg := engine.Config{Plan: plan.MustLeftDeep(0, 1, 2, 3), WindowSize: 16, Strategy: New()}
	migrations := map[int]*plan.Plan{
		295: plan.MustLeftDeep(3, 2, 1, 0), // worst case: everything incomplete
	}
	// Checkpoint 5 tuples after the transition, long before the
	// incomplete states can have completed.
	a, b := runPair(t, cfg, events, migrations, 300)
	compare(t, a, b)
	if len(a) == 0 {
		t.Fatal("no outputs")
	}
}

func TestCheckpointMidMigrationOverlapped(t *testing.T) {
	src := workload.MustNewSource(workload.Config{Streams: 4, Domain: 6, Seed: 52})
	events := src.Take(700)
	cfg := engine.Config{Plan: plan.MustLeftDeep(0, 1, 2, 3), WindowSize: 10, Strategy: New()}
	migrations := map[int]*plan.Plan{
		290: plan.MustLeftDeep(1, 2, 0, 3),
		296: plan.MustLeftDeep(1, 2, 3, 0), // overlapped
	}
	a, b := runPair(t, cfg, events, migrations, 302)
	compare(t, a, b)
}

func TestCheckpointTimeWindows(t *testing.T) {
	src := workload.MustNewSource(workload.Config{Streams: 3, Domain: 5, Seed: 53})
	events := src.Take(500)
	cfg := engine.Config{Plan: plan.MustLeftDeep(0, 1, 2), TimeSpan: 18, Strategy: New()}
	migrations := map[int]*plan.Plan{240: plan.MustLeftDeep(2, 1, 0)}
	a, b := runPair(t, cfg, events, migrations, 250)
	compare(t, a, b)
}

func TestCheckpointNLJoin(t *testing.T) {
	band := func(x, y *tuple.Tuple) bool { return x.Key%4 == y.Key%4 }
	src := workload.MustNewSource(workload.Config{Streams: 3, Domain: 16, Seed: 54})
	events := src.Take(300)
	cfg := engine.Config{
		Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 10,
		Kind: engine.NLJoin, Theta: band, Strategy: New(),
	}
	migrations := map[int]*plan.Plan{140: plan.MustLeftDeep(1, 2, 0)}
	a, b := runPair(t, cfg, events, migrations, 145)
	compare(t, a, b)
}

func TestCheckpointErrors(t *testing.T) {
	e := engine.MustNew(engine.Config{Plan: plan.MustLeftDeep(0, 1), Strategy: New()})
	e.Feed(ev(0, 1))
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	// Kind mismatch rejected.
	if _, err := engine.Restore(bytes.NewReader(buf.Bytes()), engine.Config{
		Kind: engine.NLJoin, Theta: func(a, b *tuple.Tuple) bool { return true },
	}); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	// Window mismatch rejected.
	if _, err := engine.Restore(bytes.NewReader(buf.Bytes()), engine.Config{WindowSize: 5}); err == nil {
		t.Fatal("window mismatch accepted")
	}
	// Garbage rejected.
	if _, err := engine.Restore(bytes.NewReader([]byte("junk")), engine.Config{}); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
}

// The restored engine's counters keep working: a counter armed before
// the checkpoint must still drain and complete the state afterwards.
func TestCheckpointPreservesCounters(t *testing.T) {
	e := engine.MustNew(engine.Config{Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 100, Strategy: New()})
	e.Feed(ev(1, 1))
	e.Feed(ev(1, 2))
	e.Feed(ev(2, 1))
	e.Feed(ev(2, 2))
	if err := e.Migrate(plan.MustLeftDeep(1, 2, 0)); err != nil {
		t.Fatal(err)
	}
	e.Feed(ev(0, 1)) // completes key 1; counter at 1
	n12 := e.NodeBySet(tuple.NewStreamSet(1, 2))
	if n12.St.Counter() != 1 {
		t.Fatalf("counter = %d before checkpoint", n12.St.Counter())
	}
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := engine.Restore(&buf, engine.Config{WindowSize: 100, Strategy: New()})
	if err != nil {
		t.Fatal(err)
	}
	m12 := r.NodeBySet(tuple.NewStreamSet(1, 2))
	if m12.St.Complete() || m12.St.Counter() != 1 {
		t.Fatalf("restored counter = %d complete=%v", m12.St.Counter(), m12.St.Complete())
	}
	if m12.St.CounterSide() != n12.St.CounterSide() {
		t.Fatal("counter side not restored")
	}
	r.Feed(ev(0, 2)) // completes key 2: counter drains
	if !m12.St.Complete() {
		t.Fatal("restored state did not complete after counter drained")
	}
}
