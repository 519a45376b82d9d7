package runtime

import (
	"fmt"
	"sync"
	"testing"

	"jisc/internal/core"
	"jisc/internal/durable"
	"jisc/internal/engine"
	"jisc/internal/enginetest"
	"jisc/internal/plan"
	"jisc/internal/storage"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

func batchWorkload(n int) []workload.Event {
	src := workload.MustNewSource(workload.Config{Streams: 3, Domain: 6, Seed: 7})
	return src.Take(n)
}

// countOutputs is the equivalence tests' engine: its results go to
// sink — read, cloned and poisoned, as every consumer may assume —
// under mu, which the shards' workers share.
func countOutputs(mu *sync.Mutex, sink *enginetest.Sink) engine.Config {
	return engine.Config{
		Plan:       plan.MustLeftDeep(0, 1, 2),
		WindowSize: 16,
		Strategy:   core.New(),
		Output: func(d engine.Delta) {
			mu.Lock()
			sink.Output(d)
			mu.Unlock()
		},
	}
}

// TestRuntimeFeedBatchEquivalence: FeedBatch over 1 and 4 shards
// produces the same output multiset and counters as per-event Feed.
func TestRuntimeFeedBatchEquivalence(t *testing.T) {
	evs := batchWorkload(600)
	for _, shards := range []int{1, 4} {
		for _, chunk := range []int{1, 8, 64, 600} {
			t.Run(fmt.Sprintf("shards=%d/chunk=%d", shards, chunk), func(t *testing.T) {
				var refMu, batMu sync.Mutex
				refSink, batSink := enginetest.NewSink(), enginetest.NewSink()
				ref := MustNew(Config{Engine: countOutputs(&refMu, refSink), Shards: shards})
				defer ref.Close()
				bat := MustNew(Config{Engine: countOutputs(&batMu, batSink), Shards: shards})
				defer bat.Close()
				for _, ev := range evs {
					if err := ref.Feed(ev); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < len(evs); i += chunk {
					if err := bat.FeedBatch(evs[i:min(i+chunk, len(evs))]); err != nil {
						t.Fatal(err)
					}
				}
				if err := ref.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := bat.Flush(); err != nil {
					t.Fatal(err)
				}
				rm, bm := ref.Snapshot(), bat.Snapshot()
				if rm.Input != bm.Input || rm.Output != bm.Output {
					t.Fatalf("counters diverge: ref Input=%d Output=%d, batch Input=%d Output=%d",
						rm.Input, rm.Output, bm.Input, bm.Output)
				}
				for _, s := range []*enginetest.Sink{refSink, batSink} {
					if err := s.Check(); err != nil {
						t.Fatal(err)
					}
				}
				if d := enginetest.Diff(refSink.Outs, batSink.Outs); d != "" {
					t.Fatalf("outputs differ (per event, batched):\n%s", d)
				}
			})
		}
	}
}

// TestFeedBatchShedAccounting floods a tiny queue with batches:
// FeedBatch never blocks under Shed, whole sub-batches drop, and every
// tuple is accounted as either processed or shed.
func TestFeedBatchShedAccounting(t *testing.T) {
	r := MustNew(Config{
		Engine: engine.Config{
			Plan:   plan.MustLeftDeep(0, 1),
			Output: func(engine.Delta) {},
		},
		QueueSize: 2,
		Overflow:  Shed,
	})
	defer r.Close()
	const batches, per = 5000, 10
	for i := 0; i < batches; i++ {
		evs := make([]workload.Event, per)
		for j := range evs {
			evs[j] = workload.Event{Stream: tuple.StreamID(j % 2), Key: tuple.Value(j % 8)}
		}
		if err := r.FeedBatch(evs); err != nil {
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
	if m.Input+r.Shed() != batches*per {
		t.Fatalf("accounting: processed %d + shed %d != %d", m.Input, r.Shed(), batches*per)
	}
	if m.Input == 0 {
		t.Fatal("everything was shed")
	}
	if r.Shed()%per != 0 {
		t.Fatalf("shed %d tuples; drops must be whole %d-tuple batches", r.Shed(), per)
	}
}

// TestDurableFeedBatchRecovery: a durable runtime fed via FeedBatch
// writes FEEDB frames; killing it (Close is crash-equivalent under
// FsyncAlways) and recovering lands on the same counters, and the new
// process keeps working.
func TestDurableFeedBatchRecovery(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			fs := storage.NewMemFS()
			dopts := durable.Options{Dir: "wal", Fsync: durable.FsyncAlways, CheckpointInterval: -1, FS: fs}
			evs := batchWorkload(300)

			var mu sync.Mutex
			rt, err := New(Config{Engine: countOutputs(&mu, enginetest.NewSink()), Shards: shards, Durability: dopts})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(evs); i += 32 {
				if err := rt.FeedBatch(evs[i:min(i+32, len(evs))]); err != nil {
					t.Fatal(err)
				}
			}
			if err := rt.Flush(); err != nil {
				t.Fatal(err)
			}
			pre := rt.Snapshot()
			rt.Close()

			var mu2 sync.Mutex
			replayed := enginetest.NewSink()
			rt2, err := New(Config{Engine: countOutputs(&mu2, replayed), Shards: shards, Durability: dopts})
			if err != nil {
				t.Fatal(err)
			}
			defer rt2.Close()
			rec := rt2.Snapshot()
			if rec.Input != pre.Input || rec.Output != pre.Output {
				t.Fatalf("recovered Input=%d Output=%d, want %d and %d", rec.Input, rec.Output, pre.Input, pre.Output)
			}
			if got := rt2.DurableStats().RecoveredEvents; got != uint64(len(evs)) {
				t.Fatalf("RecoveredEvents = %d, want %d", got, len(evs))
			}
			if len(replayed.Outs) != 0 {
				t.Fatalf("replay re-emitted %d outputs", len(replayed.Outs))
			}
			// The recovered runtime still ingests batches.
			if err := rt2.FeedBatch(evs[:50]); err != nil {
				t.Fatal(err)
			}
			if err := rt2.Flush(); err != nil {
				t.Fatal(err)
			}
			if post := rt2.Snapshot(); post.Input != pre.Input+50 {
				t.Fatalf("post-recovery Input = %d, want %d", post.Input, pre.Input+50)
			}
		})
	}
}

// TestRuntimeFeedBatchEmpty: a zero-length batch is a no-op, not an
// error or a queue slot.
func TestRuntimeFeedBatchEmpty(t *testing.T) {
	rt := MustNew(Config{Engine: engine.Config{Plan: plan.MustLeftDeep(0, 1)}})
	defer rt.Close()
	if err := rt.FeedBatch(nil); err != nil {
		t.Fatal(err)
	}
	if err := rt.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := rt.Snapshot().Input; got != 0 {
		t.Fatalf("Input = %d after empty batch", got)
	}
}
