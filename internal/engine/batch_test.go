package engine_test

import (
	"fmt"
	"testing"

	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/enginetest"
	"jisc/internal/obs"
	"jisc/internal/plan"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

type Delta = engine.Delta

func collect(dst *[]Delta) engine.Output {
	return func(d Delta) { d.Tuple = d.Tuple.Clone(); *dst = append(*dst, d) }
}

func feedAll(e *engine.Engine, evs []workload.Event) {
	for _, ev := range evs {
		e.Feed(ev)
	}
}

func ev(s tuple.StreamID, k tuple.Value) workload.Event {
	return workload.Event{Stream: s, Key: k}
}

func fingerprints(out []Delta) map[string]int {
	m := map[string]int{}
	for _, d := range out {
		if !d.Retraction {
			m[d.Tuple.Fingerprint()]++
		}
	}
	return m
}

func batchEvents(t *testing.T, n int) []workload.Event {
	t.Helper()
	src := workload.MustNewSource(workload.Config{Streams: 3, Domain: 5, Seed: 42})
	return src.Take(n)
}

// TestFeedBatchEquivalence pins the tentpole contract at the engine
// layer: FeedBatch in any chunking is observably identical to the same
// events fed one at a time — output multiset, Input/Output/Inserts
// counters, and window eviction points all match.
func TestFeedBatchEquivalence(t *testing.T) {
	evs := batchEvents(t, 500)
	for _, chunk := range []int{1, 2, 7, 64, 500} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			cfg := func(out *[]Delta) engine.Config {
				return engine.Config{
					Plan:       plan.MustLeftDeep(0, 1, 2),
					WindowSize: 8,
					Output:     collect(out),
				}
			}
			var refOut, batOut []Delta
			ref := engine.MustNew(cfg(&refOut))
			bat := engine.MustNew(cfg(&batOut))
			feedAll(ref, evs)
			for i := 0; i < len(evs); i += chunk {
				j := min(i+chunk, len(evs))
				bat.FeedBatch(evs[i:j])
			}
			rm, bm := ref.Metrics(), bat.Metrics()
			if rm.Input != bm.Input || rm.Output != bm.Output || rm.Inserts != bm.Inserts {
				t.Fatalf("counters diverge: ref Input=%d Output=%d Inserts=%d, batch Input=%d Output=%d Inserts=%d",
					rm.Input, rm.Output, rm.Inserts, bm.Input, bm.Output, bm.Inserts)
			}
			if d := enginetest.Diff(fingerprints(refOut), fingerprints(batOut)); d != "" {
				t.Fatalf("outputs differ (per event, batched):\n%s", d)
			}
		})
	}
}

// TestFeedBatchMidBatchMigration checks a Migrate issued from the
// AfterFeed hook in the middle of a batch lands at the same per-tuple
// point as the per-event schedule — the property the sim harness's
// batched comparisons rely on.
func TestFeedBatchMidBatchMigration(t *testing.T) {
	evs := batchEvents(t, 200)
	p0 := plan.MustLeftDeep(0, 1, 2)
	p1 := plan.MustLeftDeep(2, 1, 0)
	const migrateAt = 103 // mid-batch for every chunk size below

	var refOut []Delta
	ref := engine.MustNew(engine.Config{Plan: p0, WindowSize: 8, Strategy: core.New(), Output: collect(&refOut)})
	for i, ev := range evs {
		if i == migrateAt {
			if err := ref.Migrate(p1); err != nil {
				t.Fatal(err)
			}
		}
		ref.Feed(ev)
	}

	for _, chunk := range []int{10, 64, 200} {
		var batOut []Delta
		fed := 0
		var bat *engine.Engine
		var migErr error
		bat = engine.MustNew(engine.Config{
			Plan: p0, WindowSize: 8, Strategy: core.New(),
			Output: collect(&batOut),
			AfterFeed: func(uint64) {
				fed++
				if fed == migrateAt {
					migErr = bat.Migrate(p1)
				}
			},
		})
		for i := 0; i < len(evs); i += chunk {
			bat.FeedBatch(evs[i:min(i+chunk, len(evs))])
		}
		if migErr != nil {
			t.Fatalf("chunk=%d: mid-batch migrate: %v", chunk, migErr)
		}
		if fed != len(evs) {
			t.Fatalf("chunk=%d: AfterFeed fired %d times, want %d", chunk, fed, len(evs))
		}
		rm, bm := ref.Metrics(), bat.Metrics()
		if rm.Output != bm.Output || rm.Transitions != bm.Transitions {
			t.Fatalf("chunk=%d: Output=%d Transitions=%d, want %d and %d", chunk, bm.Output, bm.Transitions, rm.Output, rm.Transitions)
		}
		if d := enginetest.Diff(fingerprints(refOut), fingerprints(batOut)); d != "" {
			t.Fatalf("chunk=%d: outputs differ (per event, batched):\n%s", chunk, d)
		}
	}
}

// TestFeedBatchRecordsFill: the batch-fill histogram counts one
// observation per batch, valued at the batch length — and a lone Feed
// is a batch of one.
func TestFeedBatchRecordsFill(t *testing.T) {
	rec := &obs.Recorder{}
	e := engine.MustNew(engine.Config{Plan: plan.MustLeftDeep(0, 1), Obs: rec})
	evs := []workload.Event{ev(0, 1), ev(1, 1), ev(0, 2), ev(1, 2), ev(0, 3), ev(1, 3)}
	e.FeedBatch(evs[:3])
	e.FeedBatch(evs[3:])
	e.Feed(ev(0, 4))
	s := rec.Snapshot()
	if s.BatchFill.Count != 3 {
		t.Fatalf("BatchFill.Count = %d, want 3", s.BatchFill.Count)
	}
	if s.BatchFill.Sum != 7 {
		t.Fatalf("BatchFill.Sum = %d, want 7", s.BatchFill.Sum)
	}
}
