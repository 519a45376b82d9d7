package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Log-linear bucketing (the HDR-histogram discipline): each power-of-
// two octave of the nanosecond range is split into subCount linear
// sub-buckets, giving a bounded relative error of 1/subCount (25%)
// across the whole range with a small fixed table — no allocation, no
// configuration, and bucket boundaries that are identical in every
// histogram, which is what makes snapshots mergeable by element-wise
// addition.
const (
	subBits  = 2
	subCount = 1 << subBits
	// NumBuckets covers every uint64 nanosecond value exactly: the
	// highest index bucketIndex produces (for v near 2^64) is 251,
	// whose bound is the maximal uint64.
	NumBuckets = 252
)

// bucketIndex maps a nanosecond value to its bucket.
func bucketIndex(v uint64) int {
	if v < subCount {
		return int(v)
	}
	msb := bits.Len64(v) - 1
	idx := subCount*(msb-subBits) + int(v>>(msb-subBits))
	if idx >= NumBuckets {
		return NumBuckets - 1
	}
	return idx
}

// BucketBound returns the inclusive upper bound, in nanoseconds, of
// bucket i — the boundary reported as the Prometheus "le" label.
func BucketBound(i int) uint64 {
	if i < subCount {
		return uint64(i)
	}
	shift := i/subCount - 1
	sub := uint64(i%subCount) + subCount
	return (sub+1)<<shift - 1
}

// Histogram is a lock-free latency histogram: fixed log-bucketed
// counters updated with sync/atomic only, so the executor hot path
// records without locks and any goroutine snapshots concurrently.
// The zero value is ready to use; a Histogram must not be copied
// after first use.
type Histogram struct {
	counts [NumBuckets]atomic.Uint64
	sum    atomic.Uint64 // nanoseconds
	max    atomic.Uint64 // nanoseconds
}

// Record adds one duration sample. Negative durations count as zero.
func (h *Histogram) Record(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	h.Observe(ns)
}

// Observe adds one sample of ns nanoseconds. The total sample count is
// not tracked separately — it is the sum of the bucket counters, paid
// once at snapshot time instead of one more atomic add per sample.
func (h *Histogram) Observe(ns uint64) {
	h.counts[bucketIndex(ns)].Add(1)
	h.sum.Add(ns)
	for {
		m := h.max.Load()
		if ns <= m || h.max.CompareAndSwap(m, ns) {
			return
		}
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Snapshot copies the histogram for reporting. Safe to call from any
// goroutine, concurrently with Record; the copy is weakly consistent
// (counters are read one by one), which is the same contract as
// engine.View's counters.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Sum: h.sum.Load(),
		Max: h.max.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}

// HistSnapshot is an immutable copy of a Histogram. The zero value is
// an empty snapshot.
type HistSnapshot struct {
	Counts [NumBuckets]uint64
	Count  uint64
	Sum    uint64 // nanoseconds
	Max    uint64 // nanoseconds
}

// Add returns the element-wise sum of s and o — the merge used to
// aggregate per-shard histograms. Merging is associative and
// commutative because every histogram shares the same fixed bucket
// boundaries.
func (s HistSnapshot) Add(o HistSnapshot) HistSnapshot {
	out := HistSnapshot{
		Count: s.Count + o.Count,
		Sum:   s.Sum + o.Sum,
		Max:   s.Max,
	}
	if o.Max > out.Max {
		out.Max = o.Max
	}
	for i := range s.Counts {
		out.Counts[i] = s.Counts[i] + o.Counts[i]
	}
	return out
}

// Sub returns the element-wise difference s − o, the interval view of
// a cumulative histogram: with o an earlier snapshot of the same
// histogram, the result holds exactly the samples recorded between the
// two snapshot points. Buckets subtract saturating at zero (weakly
// consistent snapshots can transiently disagree per bucket), Count is
// recomputed from the resulting buckets, and Max is inherited from s —
// the per-interval maximum is not recoverable from cumulative state, so
// the lifetime maximum stands in as an upper bound.
func (s HistSnapshot) Sub(o HistSnapshot) HistSnapshot {
	out := HistSnapshot{Max: s.Max}
	for i := range s.Counts {
		if s.Counts[i] > o.Counts[i] {
			out.Counts[i] = s.Counts[i] - o.Counts[i]
		}
		out.Count += out.Counts[i]
	}
	if s.Sum > o.Sum {
		out.Sum = s.Sum - o.Sum
	}
	return out
}

// Quantile returns an upper bound on the q-quantile (0 ≤ q ≤ 1) of the
// recorded samples: the bound of the first bucket whose cumulative
// count reaches q·Count, clamped to the recorded maximum. Returns 0
// when the histogram is empty.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			b := BucketBound(i)
			if b > s.Max {
				b = s.Max
			}
			return time.Duration(b)
		}
	}
	return time.Duration(s.Max)
}
