package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestTracerWraparoundAndDrops(t *testing.T) {
	tr := NewTracer(4)
	now := time.Unix(1000, 0)
	tr.Now = func() time.Time { now = now.Add(time.Second); return now }
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Kind: EvCompletionEnd, Key: int64(i)})
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// The ring keeps the newest 4, oldest first.
	for i, ev := range evs {
		if want := int64(6 + i); ev.Key != want {
			t.Fatalf("event %d key = %d, want %d", i, ev.Key, want)
		}
		if ev.Seq != uint64(6+i) {
			t.Fatalf("event %d seq = %d", i, ev.Seq)
		}
		if ev.KindName != "completion-end" {
			t.Fatalf("event kind name = %q", ev.KindName)
		}
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
	if tr.Emitted() != 10 {
		t.Fatalf("emitted = %d, want 10", tr.Emitted())
	}
	// Events must be in emission order even mid-ring.
	tr.Emit(Event{Kind: EvPlanInstalled})
	evs = tr.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("out of order: %d after %d", evs[i].Seq, evs[i-1].Seq)
		}
	}
}

func TestTracerPartialRing(t *testing.T) {
	tr := NewTracer(8)
	tr.Emit(Event{Kind: EvPlanProposed, Note: "a -> b"})
	tr.Emit(Event{Kind: EvStateIncomplete})
	evs := tr.Events()
	if len(evs) != 2 || tr.Dropped() != 0 {
		t.Fatalf("events=%d dropped=%d", len(evs), tr.Dropped())
	}
	if evs[0].Kind != EvPlanProposed || evs[0].Note != "a -> b" {
		t.Fatalf("first event = %+v", evs[0])
	}
	if evs[0].Time.IsZero() {
		t.Fatal("time not stamped")
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Kind: EvSubscriberDropped})
	if tr.Events() != nil || tr.Dropped() != 0 || tr.Emitted() != 0 {
		t.Fatal("nil tracer not inert")
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Emit(Event{Kind: EvCompletionStart})
				tr.Events()
			}
		}()
	}
	wg.Wait()
	if tr.Emitted() != 4000 {
		t.Fatalf("emitted = %d", tr.Emitted())
	}
	if tr.Dropped() != 4000-64 {
		t.Fatalf("dropped = %d", tr.Dropped())
	}
}

func TestEventJSON(t *testing.T) {
	tr := NewTracer(2)
	tr.Emit(Event{Kind: EvCompletionEnd, Query: "q", Shard: 1, Key: 42, Count: 7, Dur: 3 * time.Millisecond})
	b, err := json.Marshal(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded[0]["kind"] != "completion-end" || decoded[0]["key"].(float64) != 42 {
		t.Fatalf("decoded = %v", decoded[0])
	}
}

func TestSetSnapshotMerge(t *testing.T) {
	s := NewSet("q", 16)
	r0, r1 := s.Recorder(0), s.Recorder(1)
	if s.Recorder(0) != r0 {
		t.Fatal("Recorder not idempotent per shard")
	}
	r0.Feed.Record(time.Millisecond)
	r1.Feed.Record(2 * time.Millisecond)
	r1.Completion.Record(5 * time.Millisecond)
	s.Tracer.Emit(Event{Kind: EvPlanInstalled})
	snap := s.Snapshot()
	if snap.Feed.Count != 2 {
		t.Fatalf("merged feed count = %d", snap.Feed.Count)
	}
	if snap.Completion.Count != 1 {
		t.Fatalf("merged completion count = %d", snap.Completion.Count)
	}
	if snap.TraceEmitted != 1 {
		t.Fatalf("trace emitted = %d", snap.TraceEmitted)
	}
	if got := snap.Feed.Max; got != uint64(2*time.Millisecond) {
		t.Fatalf("merged max = %d", got)
	}
	// Nil set and nil recorder are inert.
	var ns *Set
	if ns.Recorder(0) != nil || ns.Snapshot().Feed.Count != 0 {
		t.Fatal("nil set not inert")
	}
	var nr *Recorder
	if nr.SampleEpisode() {
		t.Fatal("nil recorder samples")
	}
}
