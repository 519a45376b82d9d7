package metrics

import (
	"bytes"
	"encoding/gob"
	"sync"
	"testing"
)

// TestOutputLatency: output latency is a figure instrument (package
// bench measures it), not something a Collector keeps. Transitions and
// outputs are plain counts, so a snapshot — what a checkpoint encodes —
// holds nothing per transition and does not grow with migrations: 130
// and 250 transitions, each followed by an output, encode to the same
// number of bytes.
func TestOutputLatency(t *testing.T) {
	encoded := func(transitions int) (Snapshot, int) {
		var c Collector
		for i := 0; i < transitions; i++ {
			c.Transitions.Add(1)
			c.Output.Add(1)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(c.Snapshot()); err != nil {
			t.Fatal(err)
		}
		return c.Snapshot(), buf.Len()
	}
	few, fewBytes := encoded(130)
	many, manyBytes := encoded(250)
	if few != (Snapshot{Transitions: 130, Output: 130}) || many != (Snapshot{Transitions: 250, Output: 250}) {
		t.Fatalf("snapshots %+v and %+v, want only the transition and output counts", few, many)
	}
	if fewBytes != manyBytes {
		t.Fatalf("snapshot encodes to %d B after 130 transitions, %d B after 250; want equal", fewBytes, manyBytes)
	}
}

// TestMarkOutputsAtCountsAProbeAtOnce: a probe's results count with one
// Output.Add, so a snapshot read concurrently sees whole probes only —
// always a multiple of the probe's result count, never part of one.
func TestMarkOutputsAtCountsAProbeAtOnce(t *testing.T) {
	var c Collector
	const perProbe, probes = 7, 5000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < probes; i++ {
			c.Output.Add(perProbe)
			c.Publish()
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if out := c.Published().Output; out%perProbe != 0 {
			t.Fatalf("snapshot saw output=%d, part of a probe of %d results", out, perProbe)
		}
	}
	if out := c.Snapshot().Output; out != perProbe*probes {
		t.Fatalf("output=%d, want %d", out, perProbe*probes)
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	var c Collector
	c.Input.Store(3)
	c.Transitions.Add(1)
	s := c.Snapshot()
	c.Input.Store(99)
	c.Transitions.Add(1)
	if s.Input != 3 || s.Transitions != 1 {
		t.Fatalf("Snapshot shares counters: %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

// TestConcurrentSnapshot exercises the lock-free contract: the owner
// counts and publishes while other goroutines read what it published.
// Run under -race this is the regression test for the
// control-channel-free metrics path: a reader sees every counter only
// grow, and the last publish in full.
func TestConcurrentSnapshot(t *testing.T) {
	var c Collector
	const readers = 4
	const n = 10000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last Snapshot
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := c.Published()
				if s.Input < last.Input || s.Probes < last.Probes || s.Output < last.Output {
					t.Errorf("published counters went back: %+v after %+v", s, last)
					return
				}
				last = s
			}
		}()
	}
	for i := 0; i < n; i++ {
		c.Input.Add(1)
		c.Probes.Add(1)
		if i%100 == 0 {
			c.Output.Add(1)
		}
		if i%64 == 0 {
			c.Publish()
		}
	}
	c.Publish()
	close(stop)
	wg.Wait()
	if s, want := c.Published(), (Snapshot{Input: n, Probes: n, Output: n / 100}); s != want {
		t.Fatalf("Published = %+v, want %+v", s, want)
	}
	if s := c.Snapshot(); s != c.Published() {
		t.Fatalf("Snapshot %+v differs from the last publish %+v", s, c.Published())
	}
}

func TestSnapshotAdd(t *testing.T) {
	a := Snapshot{Input: 1, Output: 2, Probes: 3, MigrationWork: 4}
	b := Snapshot{Input: 10, Output: 20, Probes: 30, MigrationWork: 40}
	if sum := a.Add(b); sum != (Snapshot{Input: 11, Output: 22, Probes: 33, MigrationWork: 44}) {
		t.Fatalf("Add = %+v", sum)
	}
}

func TestMergeShards(t *testing.T) {
	shards := []Snapshot{
		{Input: 5, Transitions: 2},
		{Input: 7, Transitions: 2},
		{Input: 1, Transitions: 1}, // shard migrated once less (mid-fan-out read)
	}
	m := MergeShards(shards)
	if m.Input != 13 {
		t.Fatalf("Input = %d, want 13", m.Input)
	}
	if m.Transitions != 2 {
		t.Fatalf("Transitions = %d, want 2 (max, not sum)", m.Transitions)
	}
}

func TestSnapshotStringSections(t *testing.T) {
	s := Snapshot{
		Input: 1, Output: 2, Completions: 3, CompletedEntries: 4, Transitions: 7,
	}
	str := s.String()
	for _, want := range []string{"in=1 out=2", "completions=3(+4 entries)", "transitions=7"} {
		if !contains(str, want) {
			t.Errorf("String %q missing %q", str, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
