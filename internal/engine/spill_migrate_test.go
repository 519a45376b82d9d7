package engine_test

import (
	"bytes"
	"fmt"
	"testing"

	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/metrics"
	"jisc/internal/migrate"
	"jisc/internal/plan"
	"jisc/internal/storage"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// TestSpillSurvivesMigration drives a JISC migration over an engine
// whose state is partly spilled: the completion episodes must fault
// cold buckets back in, dead states must release their spilled refs,
// and the output must match an unbounded run delta for delta.
func TestSpillSurvivesMigration(t *testing.T) {
	evs := make([]workload.Event, 0, 3000)
	rng := uint64(0xD1B54A32D192ED03)
	for i := 0; i < 3000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		evs = append(evs, workload.Event{
			Stream: tuple.StreamID(i % 3),
			Key:    tuple.Value(rng >> 33 % 64),
		})
	}

	// working accumulates the unbounded run's peak resident bytes; the
	// bounded run's budget is a quarter of it so a real share of the
	// state lives on disk without degenerating into pure cache thrash.
	var working int64
	run := func(budget int64) ([]string, metrics.Snapshot, *engine.Engine) {
		var out []string
		cfg := engine.Config{
			Plan:        plan.MustLeftDeep(0, 1, 2),
			WindowSize:  500,
			Strategy:    core.New(),
			StateBudget: budget,
			Output: func(d engine.Delta) {
				s := d.Tuple.Fingerprint()
				if d.Retraction {
					s = "-" + s
				}
				out = append(out, s)
			},
		}
		if budget > 0 {
			cfg.SpillFS = storage.NewMemFS()
			cfg.SpillSegmentBytes = 32 << 10
		}
		e := engine.MustNew(cfg)
		newPlan := plan.MustLeftDeep(2, 0, 1)
		for i, evt := range evs {
			if i == len(evs)/2 {
				if err := e.Migrate(newPlan); err != nil {
					t.Fatal(err)
				}
			}
			e.Feed(evt)
			if budget == 0 {
				if b := e.StateBytes(); b > working {
					working = b
				}
			}
		}
		return out, e.Metrics(), e
	}

	want, refStats, ref := run(0)
	defer ref.Close()
	got, boundedStats, bounded := run(working / 4)
	defer bounded.Close()

	if len(got) != len(want) {
		t.Fatalf("bounded run emitted %d deltas, unbounded %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delta %d diverged after migration: bounded %q, unbounded %q", i, got[i], want[i])
		}
	}
	if refStats.Transitions != boundedStats.Transitions {
		t.Fatalf("transition counts differ: %d vs %d", refStats.Transitions, boundedStats.Transitions)
	}
	spill, ok := bounded.SpillStats()
	if !ok || spill.Spills == 0 || spill.Faults == 0 {
		t.Fatalf("migration run never exercised the spill tier: %+v (on=%v)", spill, ok)
	}
}

// TestSpillCheckpointKeepsBucketOrder checkpoints an engine whose keys
// are split between a spilled and a resident part, restores it, and
// requires the rest of the run to emit what the uninterrupted,
// unbounded run emits, delta for delta: a checkpoint lists each bucket
// in arrival order whichever tiers its tuples sit in.
func TestSpillCheckpointKeepsBucketOrder(t *testing.T) {
	evs := make([]workload.Event, 0, 4000)
	rng := uint64(0xA0761D6478BD642F)
	for i := 0; i < 4000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		evs = append(evs, workload.Event{Stream: tuple.StreamID(i % 3), Key: tuple.Value(rng >> 33 % 48)})
	}
	var out []string
	cfg := engine.Config{
		Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 400, Strategy: core.New(),
		Output: func(d engine.Delta) { out = append(out, d.Tuple.Fingerprint()) },
	}
	ref := engine.MustNew(cfg)
	defer ref.Close()
	var working int64
	for _, ev := range evs {
		ref.Feed(ev)
		working = max(working, ref.StateBytes())
	}
	want := out
	out = nil

	cfg.StateBudget = working / 4
	cfg.SpillFS = storage.NewMemFS()
	e := engine.MustNew(cfg)
	for _, ev := range evs[:len(evs)/2] {
		e.Feed(ev)
	}
	if st, _ := e.SpillStats(); st.SpilledBuckets == 0 {
		t.Fatalf("nothing is spilled at the checkpoint: %+v", st)
	}
	var snap bytes.Buffer
	if err := e.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	e.Close()
	cfg.SpillFS = storage.NewMemFS()
	restored, err := engine.Restore(&snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	for _, ev := range evs[len(evs)/2:] {
		restored.Feed(ev)
	}
	if len(out) != len(want) {
		t.Fatalf("checkpointed run emitted %d deltas, uninterrupted %d", len(out), len(want))
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("delta %d diverged: checkpointed %q, uninterrupted %q", i, out[i], want[i])
		}
	}
}

// TestSpillSetDiff runs a set-difference pipeline, outer stream 0 and
// three inners, under a 2 KiB state budget on an in-memory file system
// with 4 KiB segments, the inner order migrated every 1,500 tuples, lazily
// (JISC) and eagerly (Moving State). Every bucket the operator moves —
// an inner arrival's RemoveKey, an expiry's RemoveRef, a requalifying
// key's Probe — faults its spilled part back first, so the bounded run
// must spill, fault, and emit the unbounded run's deltas in order.
func TestSpillSetDiff(t *testing.T) {
	orders := [][]tuple.StreamID{{0, 1, 2, 3}, {0, 3, 1, 2}, {0, 2, 3, 1}, {0, 1, 3, 2}}
	const n, every = 6000, 1500
	run := func(strat engine.Strategy, seed int64, window int, budget int64) ([]string, *engine.Engine) {
		var out []string
		cfg := engine.Config{
			Plan: plan.MustLeftDeep(orders[0]...), Kind: engine.SetDiff, WindowSize: window,
			Strategy: strat, StateBudget: budget,
			Output: func(d engine.Delta) {
				s := d.Tuple.Fingerprint()
				if d.Retraction {
					s = "-" + s
				}
				out = append(out, s)
			},
		}
		if budget > 0 {
			cfg.SpillFS = storage.NewMemFS()
			cfg.SpillSegmentBytes = 4 << 10
		}
		e := engine.MustNew(cfg)
		src := workload.MustNewSource(workload.Config{Streams: 4, Domain: 300, Seed: seed})
		for i := range n {
			if i > 0 && i%every == 0 {
				if err := e.Migrate(plan.MustLeftDeep(orders[i/every%len(orders)]...)); err != nil {
					t.Fatal(err)
				}
			}
			e.Feed(src.Next())
		}
		return out, e
	}
	for _, strat := range []func() engine.Strategy{
		func() engine.Strategy { return core.New() },
		func() engine.Strategy { return migrate.MovingState{} },
	} {
		for seed := int64(1); seed <= 5; seed++ {
			for _, window := range []int{30, 200} {
				want, ref := run(strat(), seed, window, 0)
				ref.Close()
				got, bounded := run(strat(), seed, window, 2<<10)
				spill, _ := bounded.SpillStats()
				bounded.Close()
				name := fmt.Sprintf("%s seed %d window %d", strat().Name(), seed, window)
				t.Logf("%s: %d deltas, %d spills, %d faults", name, len(want), spill.Spills, spill.Faults)
				if spill.Spills == 0 || spill.Faults == 0 {
					t.Errorf("%s: the spill tier was not exercised: %+v", name, spill)
				}
				if len(got) != len(want) {
					t.Errorf("%s: bounded run emitted %d deltas, unbounded %d", name, len(got), len(want))
					continue
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%s: delta %d is %q bounded, %q unbounded", name, i, got[i], want[i])
						break
					}
				}
			}
		}
	}
}
