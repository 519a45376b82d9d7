package engine_test

import (
	"sync"
	"testing"

	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/storage"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// viewEvents is a seeded 4-stream feed over 48 keys.
func viewEvents(n int) []workload.Event {
	evs := make([]workload.Event, n)
	rng := uint64(0x9E3779B97F4A7C15)
	for i := range evs {
		rng = rng*6364136223846793005 + 1442695040888963407
		evs[i] = workload.Event{Stream: tuple.StreamID(i % 4), Key: tuple.Value(rng >> 33 % 48)}
	}
	return evs
}

// TestStateBytesIsTheStoresCount: Engine.StateBytes sums the tables,
// and with a state budget the store keeps its own resident count of the
// same tables. The two must be one number, or the view would publish
// one and the spill tier enforce another: after every batch and every
// migration, under spilling budgets, a hybrid plan whose theta
// composites are accounted but never spilled, and a stored root, the
// store's count equals the sum.
func TestStateBytesIsTheStoresCount(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  engine.Config
	}{
		{"hash", engine.Config{}},
		{"theta", engine.Config{
			ThetaNodes: func(set tuple.StreamSet) bool { return set.Count() >= 3 },
			Theta:      func(probe, stored *tuple.Tuple) bool { return probe.Key == stored.Key },
		}},
		{"stored root", engine.Config{EmitExpiry: true}},
	} {
		for _, budget := range []int64{4 << 10, 16 << 10, 1 << 30} {
			cfg := tc.cfg
			cfg.Plan, cfg.WindowSize, cfg.Strategy = plan.MustLeftDeep(0, 1, 2, 3), 120, core.New()
			cfg.StateBudget, cfg.SpillFS, cfg.SpillSegmentBytes = budget, storage.NewMemFS(), 8<<10
			e := engine.MustNew(cfg)
			check := func(at string) {
				st, _ := e.SpillStats()
				if got := e.StateBytes(); got != st.ResidentBytes {
					t.Fatalf("%s, budget %d, %s: tables hold %d B, the store counts %d B", tc.name, budget, at, got, st.ResidentBytes)
				}
				if got := e.View().StateBytes(); got != st.ResidentBytes {
					t.Fatalf("%s, budget %d, %s: view publishes %d B, the store counts %d B", tc.name, budget, at, got, st.ResidentBytes)
				}
			}
			check("new")
			evs := viewEvents(2000)
			plans := []*plan.Plan{plan.MustLeftDeep(3, 1, 0, 2), plan.MustLeftDeep(2, 0, 3, 1), plan.MustLeftDeep(0, 1, 2, 3)}
			for i := 0; i < len(evs); i += 25 {
				e.FeedBatch(evs[i : i+25])
				check("after a batch")
				if i%1000 == 500 {
					if err := e.Migrate(plans[i/1000%len(plans)]); err != nil {
						t.Fatal(err)
					}
					check("after a migration")
				}
			}
			if st, _ := e.SpillStats(); budget < 1<<20 && st.Spills == 0 {
				t.Errorf("%s, budget %d: nothing spilled", tc.name, budget)
			}
			e.Close()
		}
	}
}

// TestConcurrentSnapshot: the owner feeds and migrates while other
// goroutines read the view. Under -race this is the regression test for
// reads that never enter the engine's goroutine: every counter a
// reader sees only grows, the plan and scan counters are whole, and
// once the owner stops the view equals the live engine.
func TestConcurrentSnapshot(t *testing.T) {
	const readers = 4
	e := engine.MustNew(engine.Config{Plan: plan.MustLeftDeep(0, 1, 2, 3), WindowSize: 200, Strategy: core.New()})
	defer e.Close()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := e.View()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				m := v.Metrics()
				if m.Input < last {
					t.Errorf("published input went back: %d after %d", m.Input, last)
					return
				}
				last = m.Input
				if p := v.Plan(); p == nil || len(v.ScanStats()) != 4 || v.StateBytes() < 0 {
					t.Errorf("view torn: plan %v, scan stats %v, state bytes %d", p, v.ScanStats(), v.StateBytes())
					return
				}
			}
		}()
	}
	evs := viewEvents(6000)
	plans := []*plan.Plan{plan.MustLeftDeep(3, 2, 1, 0), plan.MustLeftDeep(0, 1, 2, 3)}
	for i := 0; i < len(evs); i += 30 {
		e.FeedBatch(evs[i : i+30])
		if i%1500 == 900 {
			if err := e.Migrate(plans[i/1500%2]); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	v := e.View()
	if got, want := v.Metrics(), e.Metrics(); got != want {
		t.Fatalf("published %+v, live %+v", got, want)
	}
	if got, want := v.StateBytes(), e.StateBytes(); got != want {
		t.Fatalf("published %d state bytes, live %d", got, want)
	}
	if got, want := v.Plan(), e.Plan(); got != want {
		t.Fatalf("published plan %s, live %s", got, want)
	}
	got, want := v.ScanStats(), e.ScanStats()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("published scan stats %v, live %v", got, want)
		}
	}
}

// TestMarkOutputsAtCountsAProbeAtOnce: the view is written at batch
// end, so a concurrent reader sees whole batches only. Seven stream-0
// tuples share key 1; every later batch is one stream-1 tuple of key 1,
// whose probe yields seven results, and the published output is always
// a multiple of seven.
func TestMarkOutputsAtCountsAProbeAtOnce(t *testing.T) {
	const perProbe, probes = 7, 5000
	e := engine.MustNew(engine.Config{Plan: plan.MustLeftDeep(0, 1), WindowSize: 100})
	defer e.Close()
	prefill := make([]workload.Event, perProbe)
	for i := range prefill {
		prefill[i] = workload.Event{Stream: 0, Key: 1}
	}
	e.FeedBatch(prefill)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < probes; i++ {
			e.Feed(workload.Event{Stream: 1, Key: 1})
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if out := e.View().Metrics().Output; out%perProbe != 0 {
			t.Fatalf("view saw output=%d, part of a probe of %d results", out, perProbe)
		}
	}
	if out := e.View().Metrics().Output; out != perProbe*probes {
		t.Fatalf("output=%d, want %d", out, perProbe*probes)
	}
}
