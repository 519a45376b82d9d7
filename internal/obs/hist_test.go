package obs

import (
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"jisc/internal/testseed"
)

// Every nanosecond value must land in a bucket whose bound brackets
// it, and bounds must be strictly increasing.
func TestBucketIndexBounds(t *testing.T) {
	prev := uint64(0)
	for i := 0; i < NumBuckets; i++ {
		b := BucketBound(i)
		if i > 0 && b <= prev {
			t.Fatalf("bucket %d bound %d not above previous %d", i, b, prev)
		}
		prev = b
	}
	vals := []uint64{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 100, 999, 1 << 20, 1<<40 + 12345, 1 << 62}
	r := rand.New(rand.NewSource(testseed.Seed(t, 1)))
	for i := 0; i < 10000; i++ {
		vals = append(vals, uint64(r.Int63()))
	}
	for _, v := range vals {
		i := bucketIndex(v)
		if v > BucketBound(i) && i < NumBuckets-1 {
			t.Fatalf("value %d above bucket %d bound %d", v, i, BucketBound(i))
		}
		if i > 0 && v <= BucketBound(i-1) {
			t.Fatalf("value %d not above bucket %d's lower fence %d", v, i, BucketBound(i-1))
		}
	}
}

// Histogram merging must be associative and commutative — the property
// the per-shard aggregation relies on.
func TestSnapshotMergeAssociative(t *testing.T) {
	mk := func(seed int64, n int) HistSnapshot {
		var h Histogram
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			h.Observe(uint64(r.Int63n(1_000_000_000)))
		}
		return h.Snapshot()
	}
	base := testseed.Seed(t, 0)
	a, b, c := mk(base+1, 500), mk(base+2, 300), mk(base+3, 700)
	ab_c := a.Add(b).Add(c)
	a_bc := a.Add(b.Add(c))
	ba_c := b.Add(a).Add(c)
	for _, o := range []HistSnapshot{a_bc, ba_c} {
		if o != ab_c {
			t.Fatalf("merge not associative/commutative:\n%+v\nvs\n%+v", ab_c, o)
		}
	}
	if ab_c.Count != 1500 {
		t.Fatalf("merged count = %d", ab_c.Count)
	}
	// Merged quantiles equal quantiles of a single histogram fed the
	// union of the samples.
	var union Histogram
	for off, n := range map[int64]int{1: 500, 2: 300, 3: 700} {
		r := rand.New(rand.NewSource(base + off))
		for i := 0; i < n; i++ {
			union.Observe(uint64(r.Int63n(1_000_000_000)))
		}
	}
	if u := union.Snapshot(); u != ab_c {
		t.Fatalf("merged snapshot differs from union histogram")
	}
}

// Concurrent Record from many goroutines with concurrent Snapshot must
// lose nothing (run under -race).
func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				h.Snapshot() // concurrent reader
			}
		}
	}()
	base := testseed.Seed(t, 0)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(base + int64(g)))
			for i := 0; i < per; i++ {
				h.Observe(uint64(r.Int63n(1 << 30)))
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
	var sum uint64
	for _, c := range s.Counts {
		sum += c
	}
	if sum != s.Count {
		t.Fatalf("bucket sum %d != count %d", sum, s.Count)
	}
}

func TestQuantiles(t *testing.T) {
	var h Histogram
	if q := h.Snapshot().Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram p50 = %v", q)
	}
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	checks := []struct {
		q    float64
		want time.Duration
	}{
		{0.5, 500 * time.Microsecond},
		{0.95, 950 * time.Microsecond},
		{0.99, 990 * time.Microsecond},
		{1.0, 1000 * time.Microsecond},
	}
	for _, c := range checks {
		got := s.Quantile(c.q)
		// Log-linear buckets bound the relative error by 1/subCount.
		if got < c.want || float64(got) > float64(c.want)*(1+1.0/subCount)+1 {
			t.Errorf("p%v = %v, want within 25%% above %v", c.q*100, got, c.want)
		}
	}
	if s.Max != uint64(1000*time.Microsecond) {
		t.Fatalf("max = %d", s.Max)
	}
	if m := time.Duration(s.Sum / s.Count); m < 400*time.Microsecond || m > 600*time.Microsecond {
		t.Fatalf("mean = %v", m)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestRecordNegativeAndZero(t *testing.T) {
	var h Histogram
	h.Record(-time.Second)
	h.Record(0)
	s := h.Snapshot()
	if s.Count != 2 || s.Counts[0] != 2 || s.Sum != 0 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestWritePromHistogram(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	var b strings.Builder
	WritePromType(&b, "jisc_feed_seconds", "histogram")
	WritePromHistogramSeries(&b, "jisc_feed_seconds", PromLabels("default"), h.Snapshot(), true)
	out := b.String()
	for _, want := range []string{
		"# TYPE jisc_feed_seconds histogram",
		`jisc_feed_seconds_bucket{query="default",le="+Inf"} 100`,
		`jisc_feed_seconds_count{query="default"} 100`,
		`jisc_feed_seconds_sum{query="default"} `,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Cumulative bucket counts must be non-decreasing and end at Count.
	var last uint64
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "_bucket") {
			continue
		}
		fields := strings.Fields(line)
		n, err := strconv.ParseUint(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		if n < last {
			t.Fatalf("cumulative count decreased: %q after %d", line, last)
		}
		last = n
	}
	if last != 100 {
		t.Fatalf("final cumulative = %d", last)
	}
}
