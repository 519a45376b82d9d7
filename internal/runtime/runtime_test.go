package runtime

import (
	"sync"
	"testing"

	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/obs"
	"jisc/internal/plan"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

func TestNewDefaultsToOneShard(t *testing.T) {
	rt := MustNew(Config{Engine: engine.Config{Plan: plan.MustLeftDeep(0, 1)}})
	defer rt.Close()
	if rt.Shards() != 1 {
		t.Fatalf("Shards = %d, want 1", rt.Shards())
	}
}

func TestNewRejectsNegativeShards(t *testing.T) {
	if _, err := New(Config{
		Engine: engine.Config{Plan: plan.MustLeftDeep(0, 1)},
		Shards: -1,
	}); err == nil {
		t.Fatal("negative shard count accepted")
	}
}

func TestRouteKeyAffinity(t *testing.T) {
	rt := MustNew(Config{
		Engine: engine.Config{Plan: plan.MustLeftDeep(0, 1), WindowSize: 100},
		Shards: 3,
	})
	defer rt.Close()
	// Same key must always land on the same shard, whatever the
	// stream: equi-join matching is per key.
	for key := tuple.Value(0); key < 64; key++ {
		a := rt.route(workload.Event{Stream: 0, Key: key})
		b := rt.route(workload.Event{Stream: 1, Key: key})
		if a != b {
			t.Fatalf("key %d routed to different shards", key)
		}
	}
}

// TestSnapshotConcurrentWithFeed exercises the lock-free metrics path:
// Snapshot merges the shard counters from the test goroutine while the
// workers are busy processing, with no control-channel round trip.
// Run with -race this doubles as the data-race proof for the atomic
// collector contract.
func TestSnapshotConcurrentWithFeed(t *testing.T) {
	const n = 2000
	rt := MustNew(Config{
		Engine: engine.Config{
			Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 256, Strategy: core.New(),
		},
		QueueSize: 64,
		Shards:    4,
	})
	defer rt.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := rt.Feed(workload.Event{
				Stream: tuple.StreamID(i % 3), Key: tuple.Value(i % 32),
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Live snapshots while the workers churn: monotone non-decreasing
	// input counts, never an error, never blocking on the queues.
	var last uint64
	for i := 0; i < 100; i++ {
		s := rt.Snapshot()
		if s.Input < last {
			t.Fatalf("Snapshot Input went backwards: %d -> %d", last, s.Input)
		}
		last = s.Input
	}
	wg.Wait()
	if err := rt.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := rt.Snapshot().Input; got != n {
		t.Fatalf("final Snapshot Input = %d, want %d", got, n)
	}
}

func TestMigrateFansOutToAllShards(t *testing.T) {
	rt := MustNew(Config{
		Engine: engine.Config{
			Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 128, Strategy: core.New(),
		},
		Shards: 3,
	})
	defer rt.Close()
	for i := 0; i < 300; i++ {
		if err := rt.Feed(workload.Event{
			Stream: tuple.StreamID(i % 3), Key: tuple.Value(i % 16),
		}); err != nil {
			t.Fatal(err)
		}
	}
	target := plan.MustLeftDeep(2, 0, 1)
	if err := rt.Migrate(target); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rt.Shards(); i++ {
		p, err := rt.Shard(i).Plan()
		if err != nil {
			t.Fatal(err)
		}
		if p.String() != target.String() {
			t.Fatalf("shard %d on plan %s, want %s", i, p, target)
		}
	}
	if m, err := rt.Metrics(); err != nil || m.Transitions != 1 {
		t.Fatalf("merged Transitions = %d (err %v), want 1", m.Transitions, err)
	}
}

func TestCheckpointRequiresSingleShard(t *testing.T) {
	rt := MustNew(Config{
		Engine: engine.Config{Plan: plan.MustLeftDeep(0, 1)},
		Shards: 2,
	})
	defer rt.Close()
	if err := rt.Checkpoint(nil); err == nil {
		t.Fatal("multi-shard Checkpoint accepted")
	}
	if err := rt.CheckpointShard(5, nil); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}

// TestObsWiringShardedMigration wires an obs.Set through a sharded
// runtime: every shard gets its own recorder, ObsSnapshot merges them,
// and a fanned-out migration leaves one plan-installed trace event and
// one Migrate histogram sample per shard.
func TestObsWiringShardedMigration(t *testing.T) {
	const shards = 3
	set := obs.NewSet("q", 64)
	rt := MustNew(Config{
		Engine: engine.Config{
			Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 128, Strategy: core.New(),
		},
		Shards: shards,
		Obs:    set,
	})
	defer rt.Close()
	if rt.Obs() != set {
		t.Fatal("Obs() did not return the configured set")
	}
	for i := 0; i < 3000; i++ {
		if err := rt.Feed(workload.Event{
			Stream: tuple.StreamID(i % 3), Key: tuple.Value(i % 48),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Migrate(plan.MustLeftDeep(2, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Flush(); err != nil {
		t.Fatal(err)
	}
	s := rt.ObsSnapshot()
	if s.Feed.Count == 0 {
		t.Fatal("merged snapshot has no feed samples")
	}
	if got := s.Migrate.Count; got != shards {
		t.Fatalf("Migrate histogram count = %d, want one per shard (%d)", got, shards)
	}
	// Each shard recorded into its own recorder.
	perShard := 0
	for _, r := range set.Recorders() {
		if r.Feed.Count() > 0 {
			perShard++
		}
	}
	if perShard != shards {
		t.Fatalf("%d shards recorded feed latency, want %d", perShard, shards)
	}
	installed := map[int]bool{}
	for _, ev := range set.Tracer.Events() {
		if ev.Kind == obs.EvPlanInstalled {
			installed[ev.Shard] = true
		}
	}
	if len(installed) != shards {
		t.Fatalf("plan-installed events from %d shards, want %d", len(installed), shards)
	}
}

// TestObsStandaloneRunner checks the single-runner wiring: Config.Obs
// without a Runtime lands on shard 0's recorder.
func TestObsStandaloneRunner(t *testing.T) {
	set := obs.NewSet("q", 16)
	r := MustNewRunner(Config{
		Engine: engine.Config{Plan: plan.MustLeftDeep(0, 1), WindowSize: 64},
		Obs:    set,
	})
	defer r.Close()
	for i := 0; i < 200; i++ {
		if err := r.Feed(workload.Event{
			Stream: tuple.StreamID(i % 2), Key: tuple.Value(i % 8),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if r.Obs() != set.Recorder(0) {
		t.Fatal("runner recorder is not the set's shard-0 recorder")
	}
	if r.Obs().Feed.Count() == 0 {
		t.Fatal("no feed samples recorded")
	}
}

// TestShardOutputBatchBoundary: each shard emits into its own sink with
// no lock around it, and every control message is answered with the
// sink handed off — with and without durability, whose runners are
// built on a separate path.
func TestShardOutputBatchBoundary(t *testing.T) {
	for _, durableOn := range []bool{false, true} {
		type sink struct{ buffered, delivered, boundaries int }
		sinks := make([]sink, 3)
		cfg := Config{
			Engine: engine.Config{Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 64, Strategy: core.New()},
			Shards: len(sinks),
			ShardOutput: func(i int) (engine.Output, func()) {
				s := &sinks[i]
				return func(engine.Delta) { s.buffered++ }, func() {
					s.delivered += s.buffered
					s.buffered = 0
					s.boundaries++
				}
			},
		}
		if durableOn {
			cfg.Durability.Dir = t.TempDir()
		}
		rt := MustNew(cfg)
		// check reads the sinks right after a control message returned:
		// its reply orders the workers' writes before these reads.
		check := func(when string) {
			t.Helper()
			var delivered uint64
			for i, s := range sinks {
				if s.buffered != 0 {
					t.Fatalf("%s: shard %d still buffers %d results", when, i, s.buffered)
				}
				delivered += uint64(s.delivered)
			}
			if out := rt.Snapshot().Output; out == 0 || delivered != out {
				t.Fatalf("%s: %d results past a boundary, %d emitted", when, delivered, out)
			}
		}
		src := workload.MustNewSource(workload.Config{Streams: 3, Domain: 16, Seed: 7})
		if err := rt.FeedBatch(src.Take(300)); err != nil {
			t.Fatal(err)
		}
		if err := rt.Flush(); err != nil {
			t.Fatal(err)
		}
		check("after Flush")
		for _, ev := range src.Take(100) {
			if err := rt.Feed(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.Migrate(plan.MustLeftDeep(2, 0, 1)); err != nil {
			t.Fatal(err)
		}
		check("after Migrate")
		if _, err := rt.Metrics(); err != nil {
			t.Fatal(err)
		}
		check("after Metrics")
		rt.Close()
		for i, s := range sinks {
			if s.boundaries == 0 {
				t.Fatalf("shard %d never saw a boundary", i)
			}
		}
	}
}
