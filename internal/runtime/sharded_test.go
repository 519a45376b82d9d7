package runtime

import (
	"fmt"
	"maps"
	"sync"
	"testing"

	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/enginetest"
	"jisc/internal/plan"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// With eviction-free windows, the partitioned run produces exactly the
// single-engine results: hash partitioning by the join key is lossless
// for equi-joins. Partitions number tuples locally, so results are
// compared by join key (each key lives on exactly one partition), not
// by provenance fingerprint.
func TestShardedMatchesSingleEngine(t *testing.T) {
	const n = 1200
	src := workload.MustNewSource(workload.Config{Streams: 3, Domain: 12, Seed: 17})
	events := src.Take(n)

	single := map[tuple.Value]int{}
	se := engine.MustNew(engine.Config{
		Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: n, Strategy: core.New(),
		Output: func(d engine.Delta) { single[d.Tuple.Key]++ },
	})

	parts := map[tuple.Value]int{}
	var mu sync.Mutex
	pp := MustNew(Config{Shards: 4, Engine: engine.Config{
		Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: n, Strategy: core.New(),
		Output: func(d engine.Delta) {
			mu.Lock()
			parts[d.Tuple.Key]++
			mu.Unlock()
		},
	}})
	defer pp.Close()

	target := plan.MustLeftDeep(2, 0, 1)
	for i, ev := range events {
		if i == n/2 {
			if err := se.Migrate(target); err != nil {
				t.Fatal(err)
			}
			if err := pp.Migrate(target); err != nil {
				t.Fatal(err)
			}
		}
		se.Feed(ev)
		if err := pp.Feed(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := pp.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(single) != len(parts) {
		t.Fatalf("result keys: single %d vs partitioned %d", len(single), len(parts))
	}
	for key, c := range single {
		if parts[key] != c {
			t.Fatalf("key %d: single %d vs partitioned %d results", key, c, parts[key])
		}
	}
	m, err := pp.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Input != n {
		t.Fatalf("aggregated Input = %d, want %d", m.Input, n)
	}
	if m.Transitions != 1 {
		t.Fatalf("Transitions = %d", m.Transitions)
	}
}

// TestShardedConcurrentEquivalence is the strong form of the
// equivalence check: one producer goroutine per stream feeds the
// partitioned runtime while a plan transition lands mid-stream, and
// the per-key output counts must still equal a single-threaded
// engine's. With eviction-free windows a symmetric hash join emits
// every matching combination exactly once — when its last constituent
// arrives — so the output multiset is independent of arrival
// interleaving and of the transition point, as long as migration loses
// and duplicates nothing (Theorem 1). Run under -race this also
// exercises the router, the per-shard engines, and the merged metrics
// concurrently.
func TestShardedConcurrentEquivalence(t *testing.T) {
	const (
		streams = 3
		perStr  = 300
		domain  = 10
		window  = streams * perStr // eviction-free
	)
	// Fixed per-stream key sequences so both runs see the same data.
	keyOf := func(s tuple.StreamID, i int) tuple.Value {
		return tuple.Value((i*7 + int(s)*3) % domain)
	}

	// Single-threaded reference: round-robin arrival, transition in
	// the middle.
	single := map[tuple.Value]int{}
	se := engine.MustNew(engine.Config{
		Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: window, Strategy: core.New(),
		Output: func(d engine.Delta) { single[d.Tuple.Key]++ },
	})
	target := plan.MustLeftDeep(2, 0, 1)
	for i := 0; i < perStr; i++ {
		if i == perStr/2 {
			if err := se.Migrate(target); err != nil {
				t.Fatal(err)
			}
		}
		for s := tuple.StreamID(0); s < streams; s++ {
			se.Feed(workload.Event{Stream: s, Key: keyOf(s, i)})
		}
	}

	// Sharded run: one producer per stream, migration fired from
	// the main goroutine while they are in flight.
	parts := map[tuple.Value]int{}
	var mu sync.Mutex
	pp := MustNew(Config{
		Shards: 4,
		Engine: engine.Config{
			Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: window, Strategy: core.New(),
			Output: func(d engine.Delta) {
				mu.Lock()
				parts[d.Tuple.Key]++
				mu.Unlock()
			},
		},
		QueueSize: 32, // small queues so producers and workers overlap
	})
	defer pp.Close()

	var wg sync.WaitGroup
	release := make(chan struct{})
	for s := tuple.StreamID(0); s < streams; s++ {
		wg.Add(1)
		go func(s tuple.StreamID) {
			defer wg.Done()
			<-release
			for i := 0; i < perStr; i++ {
				if err := pp.Feed(workload.Event{Stream: s, Key: keyOf(s, i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	close(release)
	if err := pp.Migrate(target); err != nil { // mid-stream: producers are live
		t.Fatal(err)
	}
	wg.Wait()
	if err := pp.Flush(); err != nil {
		t.Fatal(err)
	}

	for key, want := range single {
		if parts[key] != want {
			t.Fatalf("key %d: single %d vs partitioned %d results", key, want, parts[key])
		}
	}
	for key := range parts {
		if _, ok := single[key]; !ok {
			t.Fatalf("key %d produced only by the partitioned run", key)
		}
	}
	m, err := pp.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Input != streams*perStr {
		t.Fatalf("merged Input = %d, want %d", m.Input, streams*perStr)
	}
	if m.Transitions != 1 {
		t.Fatalf("merged Transitions = %d, want 1", m.Transitions)
	}
}

// BenchmarkPartitionedThroughput compares one-shard and four-shard
// feeding of a 4-way JISC join.
func BenchmarkPartitionedThroughput(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("partitions-%d", shards), func(b *testing.B) {
			pp := MustNew(Config{
				Engine: engine.Config{
					Plan: plan.MustLeftDeep(0, 1, 2, 3), WindowSize: 500, Strategy: core.New(),
				},
				QueueSize: 4096,
				Shards:    shards,
			})
			defer pp.Close()
			src := workload.MustNewSource(workload.Config{Streams: 4, Domain: 500, Seed: 1})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := pp.Feed(src.Next()); err != nil {
					b.Fatal(err)
				}
			}
			if err := pp.Flush(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestShardWindowsBothClocks pins what a window means under shards,
// for both clocks: a shard's engine counts only its own arrivals, as
// per-stream seqs under a count window and as ticks under a time
// window. So each shard's results are exactly those of one engine fed
// that shard's partition (ShardOf), through evictions and a migration,
// and the total grows with the shard count.
func TestShardWindowsBothClocks(t *testing.T) {
	const n = 1200
	events := workload.MustNewSource(workload.Config{Streams: 3, Domain: 12, Seed: 17}).Take(n)
	target := plan.MustLeftDeep(2, 0, 1)
	for _, win := range []engine.Config{{WindowSize: 30}, {TimeSpan: 90}} {
		var totals []int
		for _, shards := range []int{1, 2, 4} {
			cfg := win
			cfg.Plan = plan.MustLeftDeep(0, 1, 2)
			cfg.Strategy = core.New()
			got := make([]*enginetest.Sink, shards)
			rt := MustNew(Config{Shards: shards, Engine: cfg, ShardOutput: func(i int) (engine.Sink, func()) {
				got[i] = enginetest.NewSink()
				return engine.Output(got[i].Output).Sink(), nil
			}})
			want := make([]*enginetest.Sink, shards)
			refs := make([]*engine.Engine, shards)
			for i := range refs {
				want[i] = enginetest.NewSink()
				cfg.Strategy, cfg.Output = core.New(), want[i].Output
				refs[i] = engine.MustNew(cfg)
			}
			for i, ev := range events {
				if i == n/2 {
					if err := rt.Migrate(target); err != nil {
						t.Fatal(err)
					}
					for _, e := range refs {
						if err := e.Migrate(target); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := rt.Feed(ev); err != nil {
					t.Fatal(err)
				}
				refs[ShardOf(ev.Key, shards)].Feed(ev)
			}
			if err := rt.Flush(); err != nil {
				t.Fatal(err)
			}
			m, err := rt.Metrics()
			if err != nil {
				t.Fatal(err)
			}
			rt.Close()
			if m.Evictions == 0 || m.Transitions != 1 {
				t.Fatalf("%+v × %d shards: evictions=%d transitions=%d, want both", win, shards, m.Evictions, m.Transitions)
			}
			total := 0
			for i := range refs {
				refs[i].Close()
				if err := got[i].Check(); err != nil {
					t.Fatal(err)
				}
				if !maps.Equal(got[i].Outs, want[i].Outs) {
					t.Fatalf("%+v × %d shards: shard %d gave %d distinct results, its partition's engine %d", win, shards, i, len(got[i].Outs), len(want[i].Outs))
				}
				for _, c := range got[i].Outs {
					total += c
				}
			}
			totals = append(totals, total)
		}
		t.Logf("window %d, timespan %d: %v results at 1, 2, 4 shards", win.WindowSize, win.TimeSpan, totals)
		if totals[0] >= totals[1] || totals[1] >= totals[2] {
			t.Errorf("window %d, timespan %d: results %v do not grow with the shard count", win.WindowSize, win.TimeSpan, totals)
		}
	}
}
