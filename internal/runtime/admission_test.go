package runtime

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jisc/internal/admission"
	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// stepClock advances by a fixed stride on every reading — a logical
// clock that makes deadline behaviour a pure function of the call
// sequence.
type stepClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func (c *stepClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.step)
	return c.t
}

// TestFeedShedByRateLimit: under a frozen clock the bucket never
// refills, so exactly the burst is admitted and the rest is shed —
// silently (Feed returns nil) but counted.
func TestFeedShedByRateLimit(t *testing.T) {
	fixed := time.Unix(9000, 0)
	adm := admission.MustNew(admission.Config{
		Rate: 1000, Burst: 8,
		Now: func() time.Time { return fixed },
	})
	rt := MustNew(Config{
		Engine:    engine.Config{Plan: plan.MustLeftDeep(0, 1), WindowSize: 32},
		Admission: adm,
	})
	defer rt.Close()
	for i := 0; i < 20; i++ {
		ev := workload.Event{Stream: tuple.StreamID(i % 2), Key: tuple.Value(i)}
		if err := rt.Feed(ev); err != nil {
			t.Fatalf("Feed %d: %v (shed must be silent)", i, err)
		}
	}
	if err := rt.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := rt.Snapshot().Input; got != 8 {
		t.Fatalf("engine Input = %d, want the 8-token burst", got)
	}
	s := adm.Snapshot()
	if s.ShedTuples != 12 {
		t.Fatalf("ShedTuples = %d, want 12", s.ShedTuples)
	}
	if s.InflightBytes != 0 {
		t.Fatalf("InflightBytes = %d after Flush, want 0", s.InflightBytes)
	}
}

// TestFeedBatchRejectOverBudget: a batch whose cost exceeds the
// in-flight budget draws a retriable BUSY and is counted rejected;
// traffic that fits keeps flowing afterwards.
func TestFeedBatchRejectOverBudget(t *testing.T) {
	adm := admission.MustNew(admission.Config{InflightBytes: EventBytes})
	rt := MustNew(Config{
		Engine:    engine.Config{Plan: plan.MustLeftDeep(0, 1), WindowSize: 32},
		Admission: adm,
	})
	defer rt.Close()

	big := make([]workload.Event, 4)
	for i := range big {
		big[i] = workload.Event{Stream: tuple.StreamID(i % 2), Key: tuple.Value(i)}
	}
	err := rt.FeedBatch(big)
	if !errors.Is(err, admission.ErrBusy) {
		t.Fatalf("over-budget FeedBatch err = %v, want ErrBusy", err)
	}
	if !strings.Contains(err.Error(), "in-flight budget") {
		t.Fatalf("reject reason = %q, want the budget named", err)
	}
	s := adm.Snapshot()
	if s.RejectedTuples != 4 || s.RejectedBatches != 1 {
		t.Fatalf("rejected = %d tuples / %d batches, want 4/1", s.RejectedTuples, s.RejectedBatches)
	}

	// A single tuple fits the one-slot budget; the reservation is
	// released once the worker dequeues it, so repeated feeds succeed.
	for i := 0; i < 5; i++ {
		if err := rt.Feed(workload.Event{Stream: 0, Key: tuple.Value(i)}); err != nil {
			t.Fatalf("within-budget Feed %d: %v", i, err)
		}
		if err := rt.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := rt.Snapshot().Input; got != 5 {
		t.Fatalf("Input = %d, want 5", got)
	}
	if got := adm.Snapshot().InflightBytes; got != 0 {
		t.Fatalf("InflightBytes = %d after Flush, want 0", got)
	}
}

// TestFeedDeadlineShedsAtDequeue: with a clock that strides a full
// second per reading, every admitted batch's 10ms deadline has passed
// by the time the worker dequeues it — the engine sees nothing, the
// deadline-shed counter sees everything, and every byte reservation is
// still released.
func TestFeedDeadlineShedsAtDequeue(t *testing.T) {
	ck := &stepClock{t: time.Unix(9000, 0), step: time.Second}
	adm := admission.MustNew(admission.Config{
		FeedDeadline:  10 * time.Millisecond,
		InflightBytes: 1 << 20,
		Now:           ck.now,
	})
	rt := MustNew(Config{
		Engine:    engine.Config{Plan: plan.MustLeftDeep(0, 1), WindowSize: 32},
		Admission: adm,
	})
	defer rt.Close()
	const n = 10
	for i := 0; i < n; i++ {
		if err := rt.Feed(workload.Event{Stream: tuple.StreamID(i % 2), Key: tuple.Value(i)}); err != nil {
			t.Fatalf("Feed %d: %v", i, err)
		}
	}
	if err := rt.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := rt.Snapshot().Input; got != 0 {
		t.Fatalf("engine Input = %d, want 0 (all past deadline)", got)
	}
	s := adm.Snapshot()
	if s.DeadlineShedTuples != n {
		t.Fatalf("DeadlineShedTuples = %d, want %d", s.DeadlineShedTuples, n)
	}
	if s.InflightBytes != 0 {
		t.Fatalf("InflightBytes = %d after deadline sheds, want 0", s.InflightBytes)
	}
}

// TestDrainingRuntimeRejectsBusy: once the controller drains, Feed and
// FeedBatch draw "BUSY draining" and nothing reaches the engine.
func TestDrainingRuntimeRejectsBusy(t *testing.T) {
	adm := admission.MustNew(admission.Config{Rate: 1e9})
	rt := MustNew(Config{
		Engine:    engine.Config{Plan: plan.MustLeftDeep(0, 1), WindowSize: 32},
		Admission: adm,
	})
	defer rt.Close()
	adm.StartDrain()
	err := rt.Feed(workload.Event{Stream: 0, Key: 1})
	if !errors.Is(err, admission.ErrBusy) || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("Feed while draining: %v, want BUSY draining", err)
	}
	if err := rt.FeedBatch([]workload.Event{{Stream: 0, Key: 1}, {Stream: 1, Key: 1}}); !errors.Is(err, admission.ErrBusy) {
		t.Fatalf("FeedBatch while draining: %v, want ErrBusy", err)
	}
	if err := rt.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := rt.Snapshot().Input; got != 0 {
		t.Fatalf("Input = %d while draining, want 0", got)
	}
	if got := adm.Snapshot().RejectedTuples; got != 3 {
		t.Fatalf("RejectedTuples = %d, want 3", got)
	}
}

// TestAdmissionConservationConcurrent hammers a sharded, rate- and
// budget-limited runtime from several goroutines and checks the books:
// every tuple is exactly one of processed, shed, or rejected, and the
// in-flight gauge returns to zero. Run under -race this is also the
// concurrency proof for the admit/release path.
func TestAdmissionConservationConcurrent(t *testing.T) {
	adm := admission.MustNew(admission.Config{
		Rate:          50_000,
		Burst:         1_000,
		InflightBytes: 64 * EventBytes,
	})
	rt := MustNew(Config{
		Engine:    engine.Config{Plan: plan.MustLeftDeep(0, 1), WindowSize: 64},
		Shards:    3,
		QueueSize: 16,
		Admission: adm,
	})
	defer rt.Close()

	const feeders, batches, per = 4, 300, 5
	var sent, busy atomic.Uint64
	var wg sync.WaitGroup
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				evs := make([]workload.Event, per)
				for j := range evs {
					evs[j] = workload.Event{Stream: tuple.StreamID(j % 2), Key: tuple.Value((f*batches + i + j) % 32)}
				}
				sent.Add(per)
				if err := rt.FeedBatch(evs); err != nil {
					if !errors.Is(err, admission.ErrBusy) {
						t.Errorf("feeder %d: %v", f, err)
						return
					}
					busy.Add(per)
				}
			}
		}(f)
	}
	wg.Wait()
	if err := rt.Flush(); err != nil {
		t.Fatal(err)
	}

	s := adm.Snapshot()
	input := rt.Snapshot().Input
	if got := input + s.ShedTuples + s.RejectedTuples; got != sent.Load() {
		t.Fatalf("conservation: processed %d + shed %d + rejected %d = %d, want %d",
			input, s.ShedTuples, s.RejectedTuples, got, sent.Load())
	}
	if s.RejectedTuples != busy.Load() {
		t.Fatalf("controller rejected %d tuples, feeders saw BUSY for %d", s.RejectedTuples, busy.Load())
	}
	if s.InflightBytes != 0 {
		t.Fatalf("InflightBytes = %d after Flush, want 0", s.InflightBytes)
	}
}
