package engine_test

import (
	"runtime"
	"testing"

	"jisc/internal/engine"
	"jisc/internal/obs"
	"jisc/internal/plan"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// TestRootResultIsTransient pins who may retain a result. A hash-join
// root without EmitExpiry only lends Delta.Tuple: the pointer kept from
// one callback is the next result by the time the next callback runs,
// and a Clone is not. Roots that store their output — EmitExpiry,
// set-difference, nested-loops — hand out tuples that stay as they
// were, however long a consumer keeps them.
func TestRootResultIsTransient(t *testing.T) {
	t.Run("lent", func(t *testing.T) {
		var kept, clone *tuple.Tuple
		var first string
		results := 0
		e := engine.MustNew(engine.Config{
			Plan: plan.MustLeftDeep(0, 1),
			Output: func(d engine.Delta) {
				results++
				if kept == nil {
					kept, clone, first = d.Tuple, d.Tuple.Clone(), d.Tuple.Fingerprint()
					return
				}
				if d.Tuple != kept || kept.Fingerprint() != d.Tuple.Fingerprint() || kept.Fingerprint() == first {
					t.Errorf("kept pointer reads %s while the callback holds %s: want the one composite, overwritten", kept.Fingerprint(), d.Tuple.Fingerprint())
				}
				if clone.Fingerprint() != first {
					t.Errorf("clone reads %s, was %s", clone.Fingerprint(), first)
				}
			},
		})
		defer e.Close()
		e.Feed(workload.Event{Stream: 0, Key: 7})
		e.Feed(workload.Event{Stream: 0, Key: 7})
		e.Feed(workload.Event{Stream: 1, Key: 7}) // one probe, two results
		e.Feed(workload.Event{Stream: 0, Key: 7}) // another probe, a third
		if results != 3 || first != "0#1|1#1" {
			t.Fatalf("%d results, the first %q", results, first)
		}
	})

	near := func(a, b *tuple.Tuple) bool { d := a.Key - b.Key; return -1 <= d && d <= 1 }
	for _, tc := range []struct {
		name string
		cfg  engine.Config
	}{
		{"EmitExpiry", engine.Config{Plan: plan.MustLeftDeep(0, 1, 2), EmitExpiry: true}},
		{"set-difference", engine.Config{Plan: plan.MustLeftDeep(0, 1, 2), Kind: engine.SetDiff}},
		{"nested-loops", engine.Config{Plan: plan.MustLeftDeep(0, 1, 2), Kind: engine.NLJoin, Theta: near}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type seen struct {
				t  *tuple.Tuple
				fp string
			}
			var all []seen
			tc.cfg.WindowSize = 6
			tc.cfg.Output = func(d engine.Delta) { all = append(all, seen{d.Tuple, d.Tuple.Fingerprint()}) }
			e := engine.MustNew(tc.cfg)
			defer e.Close()
			src := workload.MustNewSource(workload.Config{Streams: 3, Domain: 4, Seed: 11})
			for i := 0; i < 400; i++ {
				e.Feed(src.Next())
			}
			for _, s := range all {
				if got := s.t.Fingerprint(); got != s.fp {
					t.Fatalf("retained result reads %s after the run, read %s inside the callback", got, s.fp)
				}
			}
			if m := e.Metrics(); len(all) < 40 || uint64(len(all)) < m.Output {
				t.Fatalf("%d deltas seen for %d outputs", len(all), m.Output)
			}
		})
	}
}

// TestHotKeyResultAllocs: on the migrate-hotkey shape a root result is
// built in the engine's one transient composite and costs no heap —
// under one byte per result measured against the same run with no
// Output (which builds nothing), where the arena composite of a stored
// root costs its 80-byte Tuple, three 16-byte Refs and its bucket slot.
// The work the two runs count is the same: a nil Output skips the
// building, never the counting.
func TestHotKeyResultAllocs(t *testing.T) {
	const n = 90_000
	evs := hotKeyEvents(n, 3)
	allocated := func(emitExpiry bool, out engine.Output) (uint64, uint64, [6]uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, _ := runHotKey(t, evs, emitExpiry, out)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, m.Output,
			[6]uint64{m.Output, m.Probes, m.Completions, m.CompletedEntries, m.Inserts, m.Evictions}
	}
	delivered := uint64(0)
	count := func(engine.Delta) { delivered++ }
	silent, _, silentCounts := allocated(false, nil)
	lent, outputs, lentCounts := allocated(false, count)
	stored, _, storedCounts := allocated(true, count)

	if delivered < 2*outputs || outputs < 6*n {
		t.Fatalf("%d results delivered over two runs of %d outputs each; want all of them, ≥ 6 per tuple", delivered, outputs)
	}
	if lentCounts != silentCounts {
		t.Errorf("outputs/probes/completions/entries/inserts/evictions %v with an Output, %v without", lentCounts, silentCounts)
	}
	// The stored root does the same work plus one insertion per result
	// (and an eviction for each that left its window).
	storedCounts[4] -= outputs
	lentCounts[5], storedCounts[5] = 0, 0
	if lentCounts != storedCounts {
		t.Errorf("outputs/probes/completions/entries/inserts %v, under EmitExpiry (less the root's inserts) %v", lentCounts, storedCounts)
	}
	perResult := (float64(lent) - float64(silent)) / float64(outputs)
	storedPerResult := (float64(stored) - float64(lent)) / float64(outputs)
	if perResult >= 1 {
		t.Errorf("%.2f heap bytes allocated per lent root result, want < 1", perResult)
	}
	if storedPerResult < 100 {
		t.Errorf("a stored root result costs only %.1f heap bytes more than a lent one; the yardstick is ≈ 130", storedPerResult)
	}
	t.Logf("heap bytes per root result: lent %.3f, stored +%.1f (%d results, %d B allocated in all without an Output)",
		perResult, storedPerResult, outputs, silent)
}

// BenchmarkRootPush is one probe of a 20 × 20 hot bucket at an unstored
// root: streams 0 and 1 hold 20 tuples of the key each, so the state
// below the root holds their 400 composites and every stream-2 arrival
// emits 400 results. Reported per result: time, and heap bytes (the
// arrival's own base tuple and window slot, spread over its results).
func BenchmarkRootPush(b *testing.B) {
	const side = 20
	var results uint64
	e := engine.MustNew(engine.Config{
		Plan:        plan.MustLeftDeep(0, 1, 2),
		WindowSize:  side,
		WindowSizes: map[tuple.StreamID]int{2: 64},
		Output:      func(d engine.Delta) { results += uint64(len(d.Tuple.Refs)) / 3 },
	})
	defer e.Close()
	for i := 0; i < side; i++ {
		e.Feed(workload.Event{Stream: 0, Key: 7})
		e.Feed(workload.Event{Stream: 1, Key: 7})
	}
	probe := workload.Event{Stream: 2, Key: 7}
	for i := 0; i < 128; i++ { // past stream 2's window: every arrival evicts one
		e.Feed(probe)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	results = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Feed(probe)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if results != uint64(b.N)*side*side {
		b.Fatalf("%d results from %d probes, want %d each", results, b.N, side*side)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(results), "ns/result")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(results), "B/result")
}

// TestForwardedResultsAreSampledAndCounted: the sampled build timing of
// a probe's first match still records at a root that only forwards, the
// probe's results are counted in one step however many there are, and
// without an Output the same counts advance with nothing built or timed.
func TestForwardedResultsAreSampledAndCounted(t *testing.T) {
	run := func(out engine.Output) (uint64, uint64) {
		rec := &obs.Recorder{}
		e := engine.MustNew(engine.Config{Plan: plan.MustLeftDeep(0, 1), WindowSize: 8, Obs: rec, Output: out})
		defer e.Close()
		for i := 0; i < 4000; i++ {
			e.Feed(workload.Event{Stream: tuple.StreamID(i % 2), Key: 7})
		}
		return e.Metrics().Output, rec.Snapshot().Build.Count
	}
	delivered := uint64(0)
	outputs, builds := run(func(engine.Delta) { delivered++ })
	if outputs != delivered || outputs < 8*3900 || builds == 0 {
		t.Errorf("%d outputs counted, %d delivered, %d builds sampled", outputs, delivered, builds)
	}
	if silent, builds := run(nil); silent != outputs || builds != 0 {
		t.Errorf("without an Output: %d outputs counted (want %d), %d builds sampled (want none: nothing is built)", silent, outputs, builds)
	}
}
