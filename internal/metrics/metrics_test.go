package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestOutputLatency(t *testing.T) {
	var c Collector
	t0 := time.Unix(0, 0)
	c.MarkTransition(t0)
	if c.Transitions.Load() != 1 {
		t.Fatalf("Transitions = %d", c.Transitions.Load())
	}
	c.MarkOutput(t0.Add(5 * time.Millisecond))
	c.MarkOutput(t0.Add(9 * time.Millisecond)) // second output: no new latency sample
	if lat := c.OutputLatencies(); len(lat) != 1 {
		t.Fatalf("latencies = %v, want one sample", lat)
	} else if lat[0] != 5*time.Millisecond {
		t.Fatalf("latency = %v, want 5ms", lat[0])
	}
	if c.Output.Load() != 2 {
		t.Fatalf("Output = %d, want 2", c.Output.Load())
	}

	c.MarkTransition(t0.Add(20 * time.Millisecond))
	c.MarkOutput(t0.Add(120 * time.Millisecond))
	if got := c.MaxOutputLatency(); got != 100*time.Millisecond {
		t.Fatalf("MaxOutputLatency = %v, want 100ms", got)
	}
}

func TestMaxOutputLatencyEmpty(t *testing.T) {
	var c Collector
	if c.MaxOutputLatency() != 0 {
		t.Fatal("non-zero max latency with no samples")
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	var c Collector
	c.Input.Store(3)
	c.MarkTransition(time.Unix(0, 0))
	c.MarkOutput(time.Unix(1, 0))
	s := c.Snapshot()
	c.Input.Store(99)
	c.MarkTransition(time.Unix(2, 0))
	c.MarkOutput(time.Unix(2, 1))
	if s.Input != 3 {
		t.Fatal("Snapshot shares Input")
	}
	if len(s.OutputLatencies) != 1 || s.OutputLatencies[0] != time.Second {
		t.Fatalf("Snapshot latencies = %v, want [1s]", s.OutputLatencies)
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

// TestConcurrentSnapshot exercises the lock-free contract: counters
// incremented from many goroutines while another snapshots. Run under
// -race this is the regression test for the control-channel-free
// metrics path.
func TestConcurrentSnapshot(t *testing.T) {
	var c Collector
	const workers = 4
	const perWorker = 10000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				_ = c.Snapshot()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Input.Add(1)
				c.Probes.Add(1)
				if i%100 == 0 {
					c.MarkOutput(time.Unix(int64(i), 0))
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	s := c.Snapshot()
	if s.Input != workers*perWorker {
		t.Fatalf("Input = %d, want %d", s.Input, workers*perWorker)
	}
	if s.Probes != workers*perWorker {
		t.Fatalf("Probes = %d, want %d", s.Probes, workers*perWorker)
	}
}

func TestSnapshotAdd(t *testing.T) {
	a := Snapshot{Input: 1, Output: 2, Probes: 3, OutputLatencies: []time.Duration{time.Second}}
	b := Snapshot{Input: 10, Output: 20, Probes: 30, OutputLatencies: []time.Duration{2 * time.Second}}
	sum := a.Add(b)
	if sum.Input != 11 || sum.Output != 22 || sum.Probes != 33 {
		t.Fatalf("Add = %+v", sum)
	}
	if len(sum.OutputLatencies) != 2 {
		t.Fatalf("latencies = %v", sum.OutputLatencies)
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
		Input: 1, Output: 2, Completions: 3, CompletedEntries: 4,
		DupDropped: 5, EddyVisits: 6, Transitions: 7,
	}
	str := s.String()
	for _, want := range []string{"completions=3", "dup-dropped=5", "eddy-visits=6", "transitions=7"} {
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

func TestThroughput(t *testing.T) {
	if got := Throughput(1000, time.Second); got != 1000 {
		t.Fatalf("Throughput = %f", got)
	}
	if got := Throughput(1000, 0); got != 0 {
		t.Fatalf("Throughput with zero duration = %f", got)
	}
	if got := Throughput(500, 250*time.Millisecond); got != 2000 {
		t.Fatalf("Throughput = %f, want 2000", got)
	}
}

// TestMarkOutputsAtCountsAProbeAtOnce: one call counts all of a probe's
// results and reads the clock only to close the latency a transition
// left open — once, whatever the count.
func TestMarkOutputsAtCountsAProbeAtOnce(t *testing.T) {
	var c Collector
	t0 := time.Unix(100, 0)
	reads := 0
	clock := func() time.Time { reads++; return t0.Add(time.Duration(reads) * time.Millisecond) }
	c.MarkOutputsAt(7, clock)
	if c.Output.Load() != 7 || reads != 0 {
		t.Fatalf("output=%d after 7 results, clock read %d times with no transition pending", c.Output.Load(), reads)
	}
	c.MarkTransition(t0)
	c.MarkOutputsAt(400, clock)
	c.MarkOutputsAt(3, clock)
	if c.Output.Load() != 410 || reads != 1 {
		t.Fatalf("output=%d, clock read %d times; want 410 and 1", c.Output.Load(), reads)
	}
	if lat := c.OutputLatencies(); len(lat) != 1 || lat[0] != time.Millisecond {
		t.Fatalf("latencies = %v, want one of 1ms", lat)
	}
}
