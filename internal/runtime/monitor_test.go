package runtime

import (
	"sync"
	"testing"
	"time"

	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/storage"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// TestMonitorReadsDoNotQueue holds shard 0's worker at its first
// batchEnd with more batches and a migration queued behind it. Every
// monitor read must answer within 100 ms, from what the shards
// published: shard 0's one finished batch, and the plan it last
// applied, not the one still queued. Flush still waits for the worker.
func TestMonitorReadsDoNotQueue(t *testing.T) {
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	initial, next := plan.MustLeftDeep(0, 1, 2), plan.MustLeftDeep(2, 1, 0)
	rt := MustNew(Config{
		Engine: engine.Config{
			Plan: initial, WindowSize: 100, Strategy: core.New(),
			StateBudget: 1 << 20, SpillFS: storage.NewMemFS(),
		},
		Shards: 2,
		ShardOutput: func(i int) (engine.Sink, func()) {
			if i != 0 {
				return nil, nil
			}
			return nil, func() { once.Do(func() { close(held); <-release }) }
		},
	})
	defer rt.Close()
	var key tuple.Value // a key shard 0 owns
	for ShardOf(key, 2) != 0 {
		key++
	}
	for i := 0; i < 6; i++ {
		if err := rt.Feed(workload.Event{Stream: tuple.StreamID(i % 3), Key: key}); err != nil {
			t.Fatal(err)
		}
	}
	<-held
	migrated := make(chan error, 1)
	go func() { migrated <- rt.Migrate(next) }()

	within := func(name string, read func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { read(); close(done) }()
		select {
		case <-done:
		case <-time.After(100 * time.Millisecond):
			t.Errorf("%s still blocked after 100 ms behind a held worker", name)
		}
	}
	within("StateBytes", func() { rt.StateBytes() })
	within("ScanStats", func() { rt.ScanStats() })
	within("Plan", func() {
		if p := rt.Plan(); !p.Equal(initial) {
			t.Errorf("Plan = %s with the migration still queued, want %s", p, initial)
		}
	})
	within("Snapshot", func() {
		if in := rt.Snapshot().Input; in != 1 {
			t.Errorf("Snapshot input = %d, want the held shard's 1 finished tuple", in)
		}
	})
	within("SpillStats", func() {
		if _, ok := rt.SpillStats(); !ok {
			t.Error("SpillStats: spilling off")
		}
	})
	flushed := make(chan error, 1)
	go func() { flushed <- rt.Flush() }()
	select {
	case err := <-flushed:
		t.Fatalf("Flush returned (%v) past a held worker", err)
	case <-time.After(20 * time.Millisecond):
	}

	close(release)
	if err := <-migrated; err != nil {
		t.Fatal(err)
	}
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if p := rt.Plan(); !p.Equal(next) {
		t.Fatalf("Plan = %s after the migration, want %s", p, next)
	}
	if in := rt.Snapshot().Input; in != 6 {
		t.Fatalf("Snapshot input = %d after Flush, want 6", in)
	}
}
