package runtime

// The single-worker harness is a one-shard Runtime: these tests pin its
// queue semantics (channel order is the buffer-clearing phase, Block vs
// Shed, in-band controls, errors after Close).

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/enginetest"
	"jisc/internal/migrate"
	"jisc/internal/plan"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

func ev(s tuple.StreamID, k tuple.Value) workload.Event {
	return workload.Event{Stream: s, Key: k}
}

func TestOneShardBasicFlow(t *testing.T) {
	var outputs atomic.Int64
	r := MustNew(Config{Engine: engine.Config{
		Plan:   plan.MustLeftDeep(0, 1),
		Output: func(engine.Delta) { outputs.Add(1) },
	}})
	defer r.Close()
	if err := r.Feed(ev(0, 5)); err != nil {
		t.Fatal(err)
	}
	if err := r.Feed(ev(1, 5)); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if outputs.Load() != 1 {
		t.Fatalf("outputs = %d", outputs.Load())
	}
}

func TestQueueIsBufferClearingPhase(t *testing.T) {
	var outs []string
	r := MustNew(Config{Engine: engine.Config{
		Plan:     plan.MustLeftDeep(0, 1, 2),
		Strategy: core.New(),
		Output: func(d engine.Delta) {
			outs = append(outs, d.Tuple.Fingerprint()) // worker goroutine only
		},
	}})
	defer r.Close()
	// Tuples enqueued before the migration must be processed by the
	// OLD plan; tuples after it by the new plan. Either way the
	// result multiset must be complete.
	for _, e := range []workload.Event{ev(0, 3), ev(1, 3)} {
		if err := r.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Migrate(plan.MustLeftDeep(2, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := r.Feed(ev(2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0] != "0#1|1#1|2#1" {
		t.Fatalf("outs = %v", outs)
	}
}

func TestOneShardConcurrentProducers(t *testing.T) {
	var outputs atomic.Int64
	r := MustNew(Config{
		Engine: engine.Config{
			Plan:       plan.MustLeftDeep(0, 1, 2, 3),
			WindowSize: 64,
			Strategy:   core.New(),
			Output:     func(engine.Delta) { outputs.Add(1) },
		},
		QueueSize: 256,
	})
	defer r.Close()

	var wg sync.WaitGroup
	for s := tuple.StreamID(0); s < 4; s++ {
		wg.Add(1)
		go func(s tuple.StreamID) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if err := r.Feed(ev(s, tuple.Value(i%8))); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	// Concurrently migrate a few times while producers are running.
	plans := []*plan.Plan{
		plan.MustLeftDeep(1, 0, 2, 3),
		plan.MustLeftDeep(1, 2, 0, 3),
		plan.MustLeftDeep(0, 1, 2, 3),
	}
	for _, p := range plans {
		if err := r.Migrate(p); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	m, err := r.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Input != 2000 {
		t.Fatalf("Input = %d, want 2000", m.Input)
	}
	if m.Transitions != 3 {
		t.Fatalf("Transitions = %d", m.Transitions)
	}
	if outputs.Load() == 0 {
		t.Fatal("no outputs under concurrency")
	}
}

// Concurrent runtimes under JISC and Moving State must each produce the
// naive reference's output multiset for the same serialized message
// sequence.
func TestStrategiesAgree(t *testing.T) {
	for _, strat := range []engine.Strategy{core.New(), migrate.MovingState{}} {
		sink := enginetest.NewSink() // the one shard's worker is its only writer
		cfg := engine.Config{
			Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 8, Strategy: strat,
			Output: sink.Output,
		}
		r, ref := MustNew(Config{Engine: cfg}), enginetest.NewReference(cfg)
		src := workload.MustNewSource(workload.Config{Streams: 3, Domain: 4, Seed: 9})
		for i := 0; i < 300; i++ {
			if i == 100 {
				target := plan.MustLeftDeep(2, 0, 1)
				if err := r.Migrate(target); err != nil {
					t.Fatal(err)
				}
				ref.Migrate(target)
			}
			ev := src.Next()
			ref.Feed(ev)
			if err := r.Feed(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Flush(); err != nil {
			t.Fatal(err)
		}
		r.Close()
		if err := sink.Check(); err != nil {
			t.Fatal(err)
		}
		if err := ref.Check(sink.Outs); err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
	}
}

func TestMigrateErrorPropagates(t *testing.T) {
	r := MustNew(Config{Engine: engine.Config{Plan: plan.MustLeftDeep(0, 1)}}) // Static
	defer r.Close()
	if err := r.Migrate(plan.MustLeftDeep(1, 0)); err == nil {
		t.Fatal("static strategy migration should error")
	}
}

func TestQueueLen(t *testing.T) {
	r := MustNew(Config{Engine: engine.Config{Plan: plan.MustLeftDeep(0, 1)}, QueueSize: 8})
	defer r.Close()
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if r.QueueLen() != 0 {
		t.Fatalf("QueueLen = %d after flush", r.QueueLen())
	}
}

func TestLoadShedding(t *testing.T) {
	r := MustNew(Config{
		Engine: engine.Config{
			Plan:   plan.MustLeftDeep(0, 1),
			Output: func(engine.Delta) {},
		},
		QueueSize: 2,
		Overflow:  Shed,
	})
	defer r.Close()
	// Flood a tiny queue: Feed must never block, and every tuple must
	// be accounted either processed or shed.
	const total = 50000
	for i := 0; i < total; i++ {
		if err := r.Feed(ev(tuple.StreamID(i%2), tuple.Value(i%8))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	m, err := r.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Input+r.Shed() != total {
		t.Fatalf("accounting: processed %d + shed %d != %d", m.Input, r.Shed(), total)
	}
	if m.Input == 0 {
		t.Fatal("everything was shed")
	}
}

func TestBlockPolicyProcessesEverything(t *testing.T) {
	r := MustNew(Config{
		Engine:    engine.Config{Plan: plan.MustLeftDeep(0, 1)},
		QueueSize: 2,
	})
	defer r.Close()
	const total = 5000
	for i := 0; i < total; i++ {
		if err := r.Feed(ev(tuple.StreamID(i%2), tuple.Value(i%8))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	m, err := r.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Input != total || r.Shed() != 0 {
		t.Fatalf("block policy lost tuples: input=%d shed=%d", m.Input, r.Shed())
	}
}

// TestClosedErrors: after Close every entry point that reaches a shard
// answers ErrClosed — the same error whether or not a log sits in
// front of the queue — rather than acking work that will never be
// processed or logged.
func TestClosedErrors(t *testing.T) {
	for name, cfg := range map[string]Config{
		"plain":   {Engine: engine.Config{Plan: plan.MustLeftDeep(0, 1), Strategy: core.New()}},
		"durable": durConfig(2, t.TempDir(), nil),
	} {
		t.Run(name, func(t *testing.T) {
			r := MustNew(cfg)
			r.Close()
			r.Close() // idempotent
			calls := map[string]func() error{
				"Feed":      func() error { return r.Feed(ev(0, 1)) },
				"FeedBatch": func() error { return r.FeedBatch([]workload.Event{ev(0, 1), ev(1, 2)}) },
				"Migrate":   func() error { return r.Migrate(plan.MustLeftDeep(1, 0)) },
				"Flush":     r.Flush,
				"Metrics":   func() error { _, err := r.Metrics(); return err },
			}
			for call, fn := range calls {
				if err := fn(); err != ErrClosed {
					t.Errorf("%s after Close: %v, want ErrClosed", call, err)
				}
			}
			// The monitor reads never reach a shard, so they still answer.
			if p := r.Plan(); p == nil || len(r.ScanStats()) != len(p.Streams.Streams()) {
				t.Errorf("monitor reads after Close: plan %v, scan stats %v", p, r.ScanStats())
			}
			if r.Durable() {
				if err := r.CheckpointNow(); !errors.Is(err, ErrClosed) {
					t.Errorf("CheckpointNow after Close: %v, want ErrClosed", err)
				}
			}
		})
	}
}
