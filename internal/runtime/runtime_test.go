package runtime

import (
	"strings"
	"sync"
	"testing"
	"time"

	"jisc/internal/admission"
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

// TestConfigValidate is the one table for everything New refuses up
// front, and for the neighbouring configurations it must keep
// accepting.
func TestConfigValidate(t *testing.T) {
	eng := engine.Config{Plan: plan.MustLeftDeep(0, 1), WindowSize: 32}
	deadline := admission.MustNew(admission.Config{FeedDeadline: time.Millisecond})
	for _, tc := range []struct {
		name string
		cfg  Config
		want string // substring of the error; "" = accepted
	}{
		{"negative shards", Config{Engine: eng, Shards: -1}, "at least 1 shard"},
		{"negative queue", Config{Engine: eng, QueueSize: -1}, "negative queue size"},
		{"negative queue, durable", Config{Engine: eng, QueueSize: -1, Durability: memWAL()}, "negative queue size"},
		{"nil plan", Config{}, "plan"},
		{"nil plan, sharded", Config{Shards: 2}, "plan"},
		// Shed tuples would resurrect on replay.
		{"shed + durability", Config{Engine: eng, Overflow: Shed, QueueSize: 4, Durability: memWAL()}, "Shed overflow policy"},
		// A deadline sheds after the WAL append; rate and budget limits
		// act before the log and stay legal.
		{"deadline + durability", Config{Engine: eng, Admission: deadline, Durability: memWAL()}, "feed deadline"},
		{"rate + durability", Config{Engine: eng, Admission: admission.MustNew(admission.Config{Rate: 1e6}), Durability: memWAL()}, ""},
		{"shed alone", Config{Engine: eng, Overflow: Shed}, ""},
		{"deadline alone", Config{Engine: eng, Admission: deadline}, ""},
		{"zero shards = one", Config{Engine: eng}, ""},
	} {
		rt, err := New(tc.cfg)
		switch {
		case err == nil:
			rt.Close()
			if tc.want != "" {
				t.Errorf("%s: accepted, want an error naming %q", tc.name, tc.want)
			}
		case tc.want == "" || !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// shardPlan reads shard i's plan in-band on its worker.
func shardPlan(t *testing.T, rt *Runtime, i int) (p *plan.Plan) {
	t.Helper()
	if err := rt.shards[i].do(nil, func(e *engine.Engine) error { p = e.Plan(); return nil }); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRouteKeyAffinity(t *testing.T) {
	rt := MustNew(Config{
		Engine: engine.Config{Plan: plan.MustLeftDeep(0, 1), WindowSize: 100},
		Shards: 3,
	})
	defer rt.Close()
	// Same key must always land on the same shard, whatever the
	// stream: equi-join matching is per key, so every pair joins only
	// if both halves met on one shard.
	const keys = 64
	for key := tuple.Value(0); key < keys; key++ {
		if err := rt.Feed(workload.Event{Stream: 0, Key: key}); err != nil {
			t.Fatal(err)
		}
		if err := rt.Feed(workload.Event{Stream: 1, Key: key}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := rt.Snapshot().Output; got != keys {
		t.Fatalf("Output = %d, want %d: a key's two streams were routed apart", got, keys)
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
	if rt.Shards() != 3 {
		t.Fatalf("Shards = %d, want 3", rt.Shards())
	}
	for i := 0; i < rt.Shards(); i++ {
		if p := shardPlan(t, rt, i); p.String() != target.String() {
			t.Fatalf("shard %d on plan %s, want %s", i, p, target)
		}
	}
	if m, err := rt.Metrics(); err != nil || m.Transitions != 1 {
		t.Fatalf("merged Transitions = %d (err %v), want 1", m.Transitions, err)
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

// TestShardOutputBatchBoundary: each shard emits into its own sink with
// no lock around it, and every control message is answered with the
// sink handed off — with and without durability, whose engines are
// recovered rather than built.
func TestShardOutputBatchBoundary(t *testing.T) {
	for _, durableOn := range []bool{false, true} {
		type sink struct{ buffered, delivered, boundaries int }
		sinks := make([]sink, 3)
		cfg := Config{
			Engine: engine.Config{Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 64, Strategy: core.New()},
			Shards: len(sinks),
			ShardOutput: func(i int) (engine.Sink, func()) {
				s := &sinks[i]
				return func(_ bool, _ *tuple.Tuple, rows tuple.Rows) { s.buffered += rows.Len() }, func() {
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
