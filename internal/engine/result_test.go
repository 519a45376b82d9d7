package engine_test

import (
	"maps"
	"runtime"
	"strings"
	"testing"

	"jisc/internal/engine"
	"jisc/internal/enginetest"
	"jisc/internal/metrics"
	"jisc/internal/obs"
	"jisc/internal/plan"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// TestRootResultIsTransient pins who may retain a result: no one. Every
// root lends Delta.Tuple — a hash-join root without EmitExpiry and the
// roots that store their output (EmitExpiry, set-difference,
// nested-loops) alike: the pointer kept from one callback is the next
// result by the time the next callback runs, and a Clone is not. A
// stored root lends a copy of its row, not the row, so the poisoning
// sink (enginetest.Sink) that scribbles over each result after reading
// it leaves the results unchanged.
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
			// run returns the work counted and the state left: a consumer
			// that reached the state would move evictions and bytes too.
			run := func(out engine.Output) (metrics.Snapshot, int64) {
				cfg := tc.cfg
				cfg.WindowSize, cfg.Output = 6, out
				e := engine.MustNew(cfg)
				defer e.Close()
				src := workload.MustNewSource(workload.Config{Streams: 3, Domain: 4, Seed: 11})
				for i := 0; i < 400; i++ {
					e.Feed(src.Next())
				}
				return e.Metrics(), e.StateBytes()
			}
			var kept, clone *tuple.Tuple
			var first, last string
			deltas, want := 0, map[string]int{}
			work, bytes := run(func(d engine.Delta) {
				deltas++
				last = d.Tuple.Fingerprint()
				if !d.Retraction {
					want[last]++
				}
				if kept == nil {
					kept, clone, first = d.Tuple, d.Tuple.Clone(), last
				} else if d.Tuple != kept {
					t.Fatalf("delta %d lent at %p, the first at %p: want the one composite, overwritten", deltas, d.Tuple, kept)
				}
			})
			if kept.Fingerprint() != last || clone.Fingerprint() != first {
				t.Errorf("kept pointer reads %s, the last result %s; clone reads %s, was %s", kept.Fingerprint(), last, clone.Fingerprint(), first)
			}
			if deltas < 40 || uint64(deltas) < work.Output || work.Evictions == 0 {
				t.Fatalf("%d deltas seen for %d outputs, %d evictions", deltas, work.Output, work.Evictions)
			}
			sink := enginetest.NewSink()
			if w, b := run(sink.Output); w != work || b != bytes || !maps.Equal(sink.Outs, want) {
				t.Fatalf("poisoning each result after reading it: %+v, %d B of state, %d distinct results; untouched %+v, %d B, %d: a stored row was lent, not a copy",
					w, b, len(sink.Outs), work, bytes, len(want))
			}
			if err := sink.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHotKeyResultAllocs: on the migrate-hotkey shape a root result is
// lent in one reusable composite and costs no heap — under one byte per
// result measured against the same run with no Output (which builds
// nothing). A stored root (EmitExpiry) lends its results the same way,
// so all a stored result adds is its row, and the table's free list
// recycles row runs: under 8 B per result more than a lent one. The
// work the two runs count is the same: a nil Output skips the building,
// never the counting.
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
	if storedPerResult >= 8 {
		t.Errorf("a stored root result costs %.1f heap bytes more than a lent one, want < 8: its result is lent, its row recycled", storedPerResult)
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
		Output:      func(d engine.Delta) { results += uint64(len(d.Tuple.Seqs)) / 3 },
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

// TestSinkMatchesOutput: the sink gets, call by call, exactly the
// deltas the Output adapter gets, in the same order and count — a probe
// at a time at an unstored root, one result or retraction with
// tuple.OneRow at a root that stores its output (EmitExpiry).
func TestSinkMatchesOutput(t *testing.T) {
	src := workload.MustNewSource(workload.Config{Streams: 3, Domain: 6, Seed: 5})
	evs := src.Take(3000)
	line := func(retract bool, tp *tuple.Tuple) string {
		if retract {
			return "-" + tp.Fingerprint()
		}
		return tp.Fingerprint()
	}
	run := func(emitExpiry, sink bool) (got []string, calls, oneRow int, outputs uint64) {
		cfg := engine.Config{Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 40, EmitExpiry: emitExpiry}
		if sink {
			cfg.Sink = func(retract bool, tp *tuple.Tuple, rows tuple.Rows) {
				calls++
				if rows.Set == 0 && rows.Len() == 1 {
					oneRow++
				}
				var v tuple.Tuple
				for i := range rows.Len() {
					got = append(got, line(retract, tuple.Join(tp, rows.View(i, &v))))
				}
			}
		} else {
			cfg.Output = func(d engine.Delta) { got = append(got, line(d.Retraction, d.Tuple)) }
		}
		e := engine.MustNew(cfg)
		defer e.Close()
		for _, ev := range evs {
			e.Feed(ev)
		}
		return got, calls, oneRow, e.Metrics().Output
	}
	for _, emitExpiry := range []bool{false, true} {
		want, _, _, outputs := run(emitExpiry, false)
		got, calls, oneRow, n := run(emitExpiry, true)
		if n != outputs || uint64(len(want)) < outputs || strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("EmitExpiry %v: sink %d deltas (%d counted), Output %d deltas (%d counted); same order: %v",
				emitExpiry, len(got), n, len(want), outputs, strings.Join(got, " ") == strings.Join(want, " "))
		}
		// Unstored, a call is a probe and some probes match several rows;
		// stored, every call is one result.
		if stored := oneRow == calls && calls == len(got); stored != emitExpiry || calls == 0 {
			t.Errorf("EmitExpiry %v: %d sink calls, %d of one row, for %d deltas", emitExpiry, calls, oneRow, len(got))
		}
	}
}
