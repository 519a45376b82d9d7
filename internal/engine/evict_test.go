package engine_test

import (
	"testing"

	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/metrics"
	"jisc/internal/plan"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// hotKeyEvents is the benchmark's migrate-hotkey input shape: tuples
// round-robin over three streams, 98% of keys uniform over 4000 and 2%
// one hot key, from a splitmix64 sequence so the test owns its
// randomness.
func hotKeyEvents(n int, seed uint64) []workload.Event {
	const hot = tuple.Value(1 << 40)
	evs := make([]workload.Event, n)
	x := seed
	next := func() uint64 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		return z ^ z>>31
	}
	for i := range evs {
		key := hot
		if next()%100 >= 2 {
			key = tuple.Value(next() % 4000)
		}
		evs[i] = workload.Event{Stream: tuple.StreamID(i % 3), Key: key}
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

// TestFeedBatchSteadyStateAllocs pins the hot path's allocation
// budget: once the windows are full, a tuple that matches nothing
// slides one entry out and one in, and allocates nothing of its own —
// only the builder's arena refills (one tuple chunk per 256 base
// tuples, one ref chunk per 1024).
func TestFeedBatchSteadyStateAllocs(t *testing.T) {
	const window, batch = 512, 256
	e := engine.MustNew(engine.Config{Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: window})
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
		t.Fatalf("output=%d evictions=%d, want a full sliding window with no matches", m.Output, m.Evictions)
	}
	if perBatch > 3 {
		t.Errorf("%.1f allocations per %d-tuple batch, want only arena refills (≤ 3)", perBatch, batch)
	}
}
