package engine_test

import (
	"runtime"
	"testing"

	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/metrics"
	"jisc/internal/obs"
	"jisc/internal/plan"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// bushy returns the plan ((a⋈b)⋈(c⋈d)).
func bushy(a, b, c, d tuple.StreamID) *plan.Plan {
	return plan.MustNew(plan.Join(plan.Join(plan.Leaf(a), plan.Leaf(b)), plan.Join(plan.Leaf(c), plan.Leaf(d))))
}

// splitmix64 is the tests' own generator, so a seed's key sequence
// never depends on the Go release.
type splitmix64 uint64

func (x *splitmix64) next() uint64 {
	*x += 0x9E3779B97F4A7C15
	z := uint64(*x)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// hotKeyEvents is the benchmark's migrate-hotkey input shape: tuples
// round-robin over three streams, 98% of keys uniform over 4000 and 2%
// one hot key.
func hotKeyEvents(n int, seed uint64) []workload.Event {
	const hot = tuple.Value(1 << 40)
	evs := make([]workload.Event, n)
	rng := splitmix64(seed)
	for i := range evs {
		key := hot
		if rng.next()%100 >= 2 {
			key = tuple.Value(rng.next() % 4000)
		}
		evs[i] = workload.Event{Stream: tuple.StreamID(i % 3), Key: key}
	}
	return evs
}

// uniformEvents is the benchmark's migrate-uniform input shape: tuples
// round-robin over the streams, keys uniform over the domain.
func uniformEvents(n, streams int, domain, seed uint64) []workload.Event {
	evs := make([]workload.Event, n)
	rng := splitmix64(seed)
	for i := range evs {
		evs[i] = workload.Event{Stream: tuple.StreamID(i % streams), Key: tuple.Value(rng.next() % domain)}
	}
	return evs
}

// runHotKey feeds evs in 256-tuple batches through a 3-way JISC engine
// with a window of 1000, rotating the left-deep order with a MIGRATE
// every 15 000 tuples, and returns the final counters and the peak of
// the resident state bytes sampled after each batch.
func runHotKey(t testing.TB, evs []workload.Event, emitExpiry bool, out engine.Output) (m metrics.Snapshot, peak int64) {
	e := engine.MustNew(engine.Config{
		Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 1000,
		Strategy: core.New(), EmitExpiry: emitExpiry, Output: out,
	})
	defer e.Close()
	order := []tuple.StreamID{0, 1, 2}
	for i := 0; i < len(evs); i += 256 {
		end := min(i+256, len(evs))
		if i > 0 && i/15_000 != (i-256)/15_000 {
			order = append(order[1:], order[0])
			if err := e.Migrate(plan.MustLeftDeep(order...)); err != nil {
				t.Fatal(err)
			}
		}
		e.FeedBatch(evs[i:end])
		if b := e.StateBytes(); b > peak {
			peak = b
		}
	}
	return e.Metrics(), peak
}

// TestHotKeyEvictionWork gates the seed-deterministic work counters of
// window expiry on the migrate-hotkey shape (3 streams, window 1000, a
// 2% hot key, a MIGRATE every 15 000 tuples rotating the left-deep
// order): a 3-way join stores one scan tuple and, for the ~2% hot
// arrivals of the two inner streams, ~20 intermediate composites — so
// insertions and evictions stay under 1.5 per input tuple however many
// results the root emits, and resident state stays under 0.5 MB. With
// the root's output stored (EmitExpiry) the same input produces the
// same results at ~9 insertions and evictions per tuple.
func TestHotKeyEvictionWork(t *testing.T) {
	const n = 90_000
	evs := hotKeyEvents(n, 3)
	run := func(emitExpiry bool) (metrics.Snapshot, int64) {
		return runHotKey(t, evs, emitExpiry, nil)
	}
	got, peak := run(false)
	stored, storedPeak := run(true)

	per := func(c uint64) float64 { return float64(c) / float64(got.Input) }
	if got.Input != n || got.Transitions != 5 {
		t.Fatalf("input=%d transitions=%d, want %d and 5", got.Input, got.Transitions, n)
	}
	if got.Output != stored.Output || got.Probes != stored.Probes || per(got.Output) < 6 {
		t.Errorf("output/probes %d/%d, with the root stored %d/%d; want equal and ≥ 6 results per tuple",
			got.Output, got.Probes, stored.Output, stored.Probes)
	}
	if got.Completions != stored.Completions || got.CompletedEntries != stored.CompletedEntries {
		t.Errorf("completions %d/%d entries, with the root stored %d/%d",
			got.Completions, got.CompletedEntries, stored.Completions, stored.CompletedEntries)
	}
	if per(got.Inserts) > 1.5 || per(got.Evictions) > 1.5 {
		t.Errorf("inserts/tuple %.2f, evictions/tuple %.2f; want ≤ 1.5 each", per(got.Inserts), per(got.Evictions))
	}
	if peak > 512<<10 {
		t.Errorf("state bytes peak %d, want ≤ 0.5 MB", peak)
	}
	// The stored-root run is the old cost, kept as the yardstick: the
	// root's share is the results themselves.
	if stored.Inserts-got.Inserts != got.Output || storedPeak <= 2*peak {
		t.Errorf("root share: inserts %d vs %d for %d results, peak %d vs %d",
			stored.Inserts, got.Inserts, got.Output, storedPeak, peak)
	}
	t.Logf("per tuple: inserts %.3f evictions %.3f outputs %.3f probes %.3f; peak %d B (root stored: %.3f / %.3f, %d B)",
		per(got.Inserts), per(got.Evictions), per(got.Output), per(got.Probes), peak,
		per(stored.Inserts), per(stored.Evictions), storedPeak)
}

// migrationWork is what a migrating run did, counted: the engine's work
// counters and the number of completion episodes.
type migrationWork struct {
	Probes, Inserts, Evictions, Output, Completions, CompletedEntries, Episodes uint64
}

// runMigrating feeds evs in 256-tuple batches through a JISC engine,
// migrating to the next of plans (cyclically) at the first batch
// boundary past every multiple of `every` tuples.
func runMigrating(t *testing.T, cfg engine.Config, evs []workload.Event, every int, plans []*plan.Plan) migrationWork {
	rec := &obs.Recorder{}
	cfg.Strategy, cfg.Obs = core.New(), rec
	e := engine.MustNew(cfg)
	defer e.Close()
	next := 0
	for i := 0; i < len(evs); i += 256 {
		if i > 0 && i/every != (i-256)/every {
			if err := e.Migrate(plans[next%len(plans)]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		e.FeedBatch(evs[i:min(i+256, len(evs))])
	}
	m := e.Metrics()
	if m.Input != uint64(len(evs)) || m.Transitions != uint64(next) || next == 0 {
		t.Fatalf("input=%d transitions=%d, want %d and %d", m.Input, m.Transitions, len(evs), next)
	}
	return migrationWork{m.Probes, m.Inserts, m.Evictions, m.Output, m.Completions, m.CompletedEntries, rec.Completion.Count()}
}

// TestMigrateUniformWork gates the seed-deterministic work of lazy
// migration on the migrate-uniform shape (6 streams, window 1000, keys
// uniform over 1250, the left-deep order rotated every 20 000 tuples),
// and on a bushy plan and a set-difference pipeline, where a probing
// tuple's own history never said whether the probed state had attempted
// its key. The counts are those of commit 43950d7, which also kept a
// per-stream last-arrival map to skip the attempted-set lookup for a
// repeated base key; the per-state attempted set alone (Definition 2,
// §4.4) decides the same episodes, so every number is exact: a
// completion started twice, or skipped, moves Completions and Episodes,
// and a lost or duplicated entry moves CompletedEntries and Output.
func TestMigrateUniformWork(t *testing.T) {
	rotations := func(order ...tuple.StreamID) []*plan.Plan {
		var ps []*plan.Plan
		for range order {
			order = append(order[1:], order[0])
			ps = append(ps, plan.MustLeftDeep(order...))
		}
		return ps
	}
	cases := []struct {
		name  string
		cfg   engine.Config
		evs   []workload.Event
		every int
		plans []*plan.Plan
		want  migrationWork
	}{
		{
			name:  "left-deep",
			cfg:   engine.Config{Plan: plan.MustLeftDeep(0, 1, 2, 3, 4, 5), WindowSize: 1000},
			evs:   uniformEvents(120_000, 6, 1250, 3),
			every: 20_000,
			plans: rotations(0, 1, 2, 3, 4, 5),
			want: migrationWork{Probes: 268214, Inserts: 268214, Evictions: 252505, Output: 37219,
				Completions: 24121, CompletedEntries: 4501, Episodes: 12246},
		},
		{
			name:  "bushy",
			cfg:   engine.Config{Plan: bushy(0, 1, 2, 3), WindowSize: 500},
			evs:   uniformEvents(40_000, 4, 600, 3),
			every: 8_000,
			plans: []*plan.Plan{bushy(0, 2, 1, 3), bushy(0, 3, 2, 1), bushy(0, 1, 2, 3)},
			want: migrationWork{Probes: 72156, Inserts: 72156, Evictions: 66804, Output: 22063,
				Completions: 4152, CompletedEntries: 749, Episodes: 4152},
		},
		{
			name:  "set-difference",
			cfg:   engine.Config{Plan: plan.MustLeftDeep(0, 1, 2, 3), Kind: engine.SetDiff, WindowSize: 500},
			evs:   uniformEvents(40_000, 4, 600, 3),
			every: 8_000,
			plans: []*plan.Plan{plan.MustLeftDeep(0, 2, 3, 1), plan.MustLeftDeep(0, 3, 1, 2), plan.MustLeftDeep(0, 1, 2, 3)},
			want: migrationWork{Probes: 52950, Inserts: 55783, Evictions: 38000, Output: 2833,
				Completions: 3671, CompletedEntries: 671, Episodes: 2720},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runMigrating(t, tc.cfg, tc.evs, tc.every, tc.plans)
			if got != tc.want {
				t.Errorf("work %+v, want %+v", got, tc.want)
			}
			t.Logf("%+v", got)
		})
	}
}

// BenchmarkSetDiffPipeline measures steady-state set-difference
// throughput (§4.7) under JISC after an inner reorder.
func BenchmarkSetDiffPipeline(b *testing.B) {
	e := engine.MustNew(engine.Config{
		Plan: plan.MustLeftDeep(0, 1, 2, 3), WindowSize: 500, Kind: engine.SetDiff, Strategy: core.New(),
	})
	defer e.Close()
	src := workload.MustNewSource(workload.Config{Streams: 4, Domain: 500, Seed: 1})
	for i := 0; i < 4*500; i++ {
		e.Feed(src.Next())
	}
	if err := e.Migrate(plan.MustLeftDeep(0, 3, 1, 2)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Feed(src.Next())
	}
}

// TestStateBoundedByWindow: what an engine keeps is bounded by its
// windows, not by the key domain. Two million tuples whose keys never
// repeat leave the heap where half a million left it — every structure
// that holds a key also lets go of it when the tuple expires. Commit
// 43950d7 read 15.2 MB at 0.5 M tuples and 58.3 MB at 2 M on this
// input: its per-stream last-arrival maps gained an entry per distinct
// key and never lost one.
func TestStateBoundedByWindow(t *testing.T) {
	e := engine.MustNew(engine.Config{Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 1000})
	defer e.Close()
	evs := make([]workload.Event, 250)
	fed := 0
	heapAfter := func(n int) uint64 {
		for fed < n {
			for j := range evs {
				evs[j] = workload.Event{Stream: tuple.StreamID(fed % 3), Key: tuple.Value(fed)}
				fed++
			}
			e.FeedBatch(evs)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	early, late := heapAfter(500_000), heapAfter(2_000_000)
	t.Logf("HeapAlloc %d B at 0.5 M tuples, %d B at 2 M", early, late)
	if late > early+1<<20 {
		t.Errorf("heap grew %d B between 0.5 M and 2 M never-repeating keys, want ≤ 1 MiB", late-early)
	}
}

// TestFeedBatchSteadyStateAllocs pins the hot path's allocation
// budget: once the windows are full, a tuple that matches nothing
// slides one entry out and one in, and a batch allocates nothing — the
// arriving tuple is the engine's own scratch and its row recycles the
// one that left. A time window of 3×window ticks holds the same tuples
// as a count window of window, since each stream gets every third tick.
// The race detector's instrumentation allocates beside the program, so
// the bound holds only without it.
func TestFeedBatchSteadyStateAllocs(t *testing.T) {
	const window, batch = 512, 256
	for _, cfg := range []engine.Config{
		{Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: window},
		{Plan: plan.MustLeftDeep(0, 1, 2), TimeSpan: 3 * window},
	} {
		e := engine.MustNew(cfg)
		defer e.Close()
		// Stream s draws keys from its own range, cycling with the window's
		// period: every arrival expires the previous holder of its key, so
		// states and the key maps keep a constant shape.
		var i int
		evs := make([]workload.Event, batch)
		fill := func() {
			for j := range evs {
				s := i % 3
				evs[j] = workload.Event{Stream: tuple.StreamID(s), Key: tuple.Value(s*1_000_000 + i/3%window)}
				i++
			}
		}
		for warm := 0; warm < 4*3*window/batch; warm++ {
			fill()
			e.FeedBatch(evs)
		}
		perBatch := testing.AllocsPerRun(50, func() {
			fill()
			e.FeedBatch(evs)
		})
		if m := e.Metrics(); m.Output != 0 || m.Evictions == 0 {
			t.Fatalf("timespan %d: output=%d evictions=%d, want a full sliding window with no matches", cfg.TimeSpan, m.Output, m.Evictions)
		}
		if perBatch > 0 && !raceEnabled {
			t.Errorf("timespan %d: %.1f allocations per %d-tuple batch, want none", cfg.TimeSpan, perBatch, batch)
		}
	}
}

// TestNLEvictionAllocs: evicting from a nested-loops state lists the
// state's keys — a theta composite sits under its lowest stream's key,
// not necessarily the expired tuple's — into a scratch slice the engine
// reuses, not a fresh slice per expired tuple. On full sliding windows
// whose every arrival matches, with an Output reading every result, a
// batch allocates nothing, as TestFeedBatchSteadyStateAllocs's does:
// the root stores its results and lends each one as a copy in one
// reusable composite.
func TestNLEvictionAllocs(t *testing.T) {
	const window, batch = 64, 256
	delivered := uint64(0)
	e := engine.MustNew(engine.Config{
		Plan: plan.MustLeftDeep(0, 1, 2), Kind: engine.NLJoin, WindowSize: window,
		Theta:  func(probe, stored *tuple.Tuple) bool { return probe.Key == stored.Key },
		Output: func(d engine.Delta) { delivered += uint64(len(d.Tuple.Seqs)) / 3 },
	})
	defer e.Close()
	var i int
	evs := make([]workload.Event, batch)
	fill := func() {
		for j := range evs {
			evs[j] = workload.Event{Stream: tuple.StreamID(i % 3), Key: tuple.Value(i / 3 % 16)}
			i++
		}
	}
	for warm := 0; warm < 4*3*window/batch; warm++ {
		fill()
		e.FeedBatch(evs)
	}
	before := e.Metrics()
	perBatch := testing.AllocsPerRun(50, func() {
		fill()
		e.FeedBatch(evs)
	})
	m := e.Metrics()
	if m.Output == before.Output || m.Evictions-before.Evictions <= m.Input-before.Input || delivered != m.Output {
		t.Fatalf("output %d → %d (%d delivered), evictions %d → %d over %d tuples: want results, each delivered, and composites evicted",
			before.Output, m.Output, delivered, before.Evictions, m.Evictions, m.Input-before.Input)
	}
	if perBatch > 0 && !raceEnabled {
		t.Errorf("%.1f allocations per %d-tuple batch, want none", perBatch, batch)
	}
}

// TestSetDiffEvictionAllocs bounds what a set-difference pipeline's
// expiries allocate: an outer expiry retracts from the engine's scratch
// tuple, and a last-key inner expiry lifts the requalified outer tuples
// through scratch too, deduplicating against the engine's reused ref
// set — not a heap tuple, a map and an escaping view per event. What is
// left is run growth as keys churn through the windows. A
// set-difference over 3 streams, window 64, keys from a domain of 500.
func TestSetDiffEvictionAllocs(t *testing.T) {
	const window, batch = 64, 256
	results, retractions := 0, 0
	e := engine.MustNew(engine.Config{
		Plan: plan.MustLeftDeep(0, 1, 2), Kind: engine.SetDiff, WindowSize: window,
		Output: func(d engine.Delta) {
			if d.Retraction {
				retractions++
			} else {
				results++
			}
		},
	})
	defer e.Close()
	src := workload.MustNewSource(workload.Config{Streams: 3, Domain: 500, Seed: 1})
	evs := make([]workload.Event, batch)
	fill := func() {
		for j := range evs {
			evs[j] = src.Next()
		}
	}
	for warm := 0; warm < 8*3*window/batch; warm++ {
		fill()
		e.FeedBatch(evs)
	}
	before := e.Metrics()
	perBatch := testing.AllocsPerRun(50, func() {
		fill()
		e.FeedBatch(evs)
	})
	m := e.Metrics()
	if m.Output == before.Output || retractions == 0 || m.Evictions-before.Evictions < m.Input-before.Input {
		t.Fatalf("output %d → %d, %d retractions, evictions %d → %d over %d tuples: want results, retractions and a full window's expiries",
			before.Output, m.Output, retractions, before.Evictions, m.Evictions, m.Input-before.Input)
	}
	t.Logf("%.1f allocations per %d-tuple batch", perBatch, batch)
	if perBatch >= 10 && !raceEnabled {
		t.Errorf("%.1f allocations per %d-tuple batch, want under 10 (a heap tuple or map per expiry made 364, a run regrown per moved bucket 47)", perBatch, batch)
	}
}

// TestMigrateArmAllocs: arming a completion counter lists its side's
// keys into a scratch slice the engine reuses, so a JISC Migrate
// allocates as often with 10,000 distinct keys on the armed side as
// with 1,000 — per new state, not per key.
func TestMigrateArmAllocs(t *testing.T) {
	allocs := func(keys int) float64 {
		e := engine.MustNew(engine.Config{
			Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: keys, Strategy: core.New(), StateBudget: -1,
		})
		defer e.Close()
		for k := range keys {
			for s := range 3 {
				e.Feed(workload.Event{Stream: tuple.StreamID(s), Key: tuple.Value(k)})
			}
		}
		// Each switch makes {0,2} or {0,1} new, incomplete and armed with
		// one scan's keys: every stream holds all of them.
		a, b := plan.MustLeftDeep(0, 2, 1), plan.MustLeftDeep(0, 1, 2)
		return testing.AllocsPerRun(10, func() {
			if err := e.Migrate(a); err != nil {
				t.Fatal(err)
			}
			if err := e.Migrate(b); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1_000), allocs(10_000)
	if small != large {
		t.Errorf("%.1f allocations per pair of JISC migrations at 1,000 keys on the armed side, %.1f at 10,000", small, large)
	}
}
