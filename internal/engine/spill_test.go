package engine

import (
	"hash/fnv"
	"testing"

	"jisc/internal/plan"
	"jisc/internal/storage"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// spillWorkload builds a deterministic two-stream workload whose join
// state is several times larger than any budget we'll grant: keys are
// drawn from a small range so buckets hold multiple tuples and matches
// multiply into the root state.
func spillWorkload(n int) []workload.Event {
	evs := make([]workload.Event, 0, n)
	rng := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < n; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		key := tuple.Value(rng >> 33 % 200)
		evs = append(evs, workload.Event{Stream: tuple.StreamID(i % 2), Key: key})
	}
	return evs
}

// TestSpillBoundedMemoryEquivalence is the tentpole demo: a join whose
// working set is ≥ 4× the state budget runs with resident bytes
// governed to the budget (plus a one-bucket fault transient) and emits
// exactly the same output sequence as the unbounded run.
func TestSpillBoundedMemoryEquivalence(t *testing.T) {
	const n = 6000
	evs := spillWorkload(n)
	cfg := Config{
		Plan:       plan.MustLeftDeep(0, 1),
		WindowSize: 1500,
		EmitExpiry: true, // exercise the eviction/retraction path through spilled buckets
	}

	// Reference run: unbounded, tracking the peak working set.
	var want []string
	ref := cfg
	ref.Output = func(d Delta) { want = append(want, deltaKey(d)) }
	re := MustNew(ref)
	var working int64
	for _, e := range evs {
		re.Feed(e)
		if b := re.StateBytes(); b > working {
			working = b
		}
	}
	re.Close()
	if working == 0 {
		t.Fatal("reference run accumulated no state")
	}
	if h := deltaStreamHash(want); h != spillDeltaStreamGolden {
		t.Errorf("revision stream hash %#x over %d deltas, recorded %#x", h, len(want), uint64(spillDeltaStreamGolden))
	}

	budget := working / 4
	var got []string
	bounded := cfg
	bounded.StateBudget = budget
	bounded.SpillFS = storage.NewMemFS()
	// Small segments, so the run rotates as well as compacts.
	bounded.SpillSegmentBytes = 64 << 10
	bounded.Output = func(d Delta) { got = append(got, deltaKey(d)) }
	be := MustNew(bounded)
	defer be.Close()
	for _, e := range evs {
		be.Feed(e)
	}

	if len(got) != len(want) {
		t.Fatalf("bounded run emitted %d deltas, unbounded %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delta %d diverged: bounded %q, unbounded %q", i, got[i], want[i])
		}
	}

	stats, ok := be.SpillStats()
	if !ok {
		t.Fatal("SpillStats reports spilling off")
	}
	if stats.Spills == 0 || stats.Faults == 0 {
		t.Fatalf("workload never exercised the spill tier: %+v", stats)
	}
	// The budget is a governor, not a hard wall: a fault makes the
	// bucket resident before the following spill pass re-evicts, so
	// the peak may transiently exceed the budget by about one bucket.
	slack := budget / 10
	if stats.PeakResidentBytes > budget+slack {
		t.Fatalf("peak resident %d exceeds budget %d + slack %d (working set %d)",
			stats.PeakResidentBytes, budget, slack, working)
	}
	if working < 4*budget {
		t.Fatalf("working set %d is not ≥ 4× budget %d", working, budget)
	}
}

// spillDeltaStreamGolden and emitExpiryDeltaStreamGolden are the
// revision streams (results and retractions, in order) these tests
// produced at commit 382bfb7, before the root state became conditional
// on EmitExpiry: with the flag on, the stream must stay byte-identical.
const (
	spillDeltaStreamGolden      = 0x6b02e44c339bfa87
	emitExpiryDeltaStreamGolden = 0xdb0245ed6185eae7
)

// deltaStreamHash is FNV-1a over the deltaKey lines of a revision
// stream.
func deltaStreamHash(keys []string) uint64 {
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

func deltaKey(d Delta) string {
	s := d.Tuple.Fingerprint()
	if d.Retraction {
		return "-" + s
	}
	return "+" + s
}

// TestSpillStatsOffByDefault pins that engines without a budget report
// spilling off and keep byte accounting available.
func TestSpillStatsOffByDefault(t *testing.T) {
	e := MustNew(Config{Plan: plan.MustLeftDeep(0, 1)})
	defer e.Close()
	if _, ok := e.SpillStats(); ok {
		t.Fatal("SpillStats reports spilling on without a budget")
	}
	e.Feed(ev(0, 1))
	if e.StateBytes() == 0 {
		t.Fatal("StateBytes is zero after an insert")
	}
}

// BenchmarkSpillAccountingOverhead measures the never-binding cost of
// an attached store: identical 3-way join (≈1 match per probe per
// level, the spill sweep's shape), budget far above the working set,
// so the difference to the no-store run is pure accounting plus the
// residency bookkeeping on the insert/probe/evict hot path.
func BenchmarkSpillAccountingOverhead(b *testing.B) {
	const n = 1 << 16
	evs := make([]workload.Event, n)
	rng := uint64(0x9E3779B97F4A7C15)
	for i := range evs {
		rng = rng*6364136223846793005 + 1442695040888963407
		evs[i] = workload.Event{Stream: tuple.StreamID(i % 3), Key: tuple.Value(rng >> 33 % 1000)}
	}
	for _, budget := range []int64{0, 1 << 30} {
		name := "no-store"
		if budget > 0 {
			name = "store-2x"
		}
		b.Run(name, func(b *testing.B) {
			cfg := Config{Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 1000, StateBudget: budget}
			if budget > 0 {
				cfg.SpillFS = storage.NewMemFS()
			}
			e := MustNew(cfg)
			defer e.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Feed(evs[i&(n-1)])
			}
		})
	}
}
