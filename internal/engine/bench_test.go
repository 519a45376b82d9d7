package engine

import (
	"testing"

	"jisc/internal/obs"
	"jisc/internal/plan"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// BenchmarkFeedSteadyState measures the steady-state hot path — window
// slide, scan insert, probe, composite construction, state insert,
// output — on a 3-way left-deep join with window-sized key domain
// (≈1 match per probe per level, the paper's §6 setting), windows
// turning over so eviction propagation is exercised too.
func BenchmarkFeedSteadyState(b *testing.B) {
	const window = 1024
	src := workload.MustNewSource(workload.Config{Streams: 3, Domain: window, Seed: 1})
	var outputs uint64
	e := MustNew(Config{
		Plan:       plan.MustLeftDeep(0, 1, 2),
		WindowSize: window,
		Output:     func(Delta) { outputs++ },
	})
	// Warm up past the window-fill phase so b.N tuples measure steady
	// state (full windows, every slide evicts).
	for i := 0; i < 4*window; i++ {
		e.Feed(src.Next())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Feed(src.Next())
	}
	_ = outputs
}

// BenchmarkFeedSteadyStateObserved is BenchmarkFeedSteadyState with
// latency instrumentation on (one call in 4 timed into the feed-latency
// histogram, one batch-fill observation per call): the difference
// between the two is the observability overhead, budgeted at ≤10%.
func BenchmarkFeedSteadyStateObserved(b *testing.B) {
	const window = 1024
	src := workload.MustNewSource(workload.Config{Streams: 3, Domain: window, Seed: 1})
	rec := obs.NewSet("bench", 0).Recorder(0)
	var outputs uint64
	e := MustNew(Config{
		Plan:       plan.MustLeftDeep(0, 1, 2),
		WindowSize: window,
		Output:     func(Delta) { outputs++ },
		Obs:        rec,
	})
	for i := 0; i < 4*window; i++ {
		e.Feed(src.Next())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Feed(src.Next())
	}
	_ = outputs
	if rec.Feed.Count() == 0 {
		b.Fatal("no feed latency recorded")
	}
}

// BenchmarkFeedTwoWay is the minimal join pipeline — one symmetric
// hash join — isolating per-tuple overhead from multi-level fan-out.
func BenchmarkFeedTwoWay(b *testing.B) {
	const window = 1024
	src := workload.MustNewSource(workload.Config{Streams: 2, Domain: window, Seed: 1})
	e := MustNew(Config{
		Plan:       plan.MustLeftDeep(0, 1),
		WindowSize: window,
	})
	for i := 0; i < 4*window; i++ {
		e.Feed(src.Next())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Feed(src.Next())
	}
}

// BenchmarkCompositeJoin measures composite-tuple construction (the
// tuple.Join path) through a probe that always matches.
func BenchmarkCompositeJoin(b *testing.B) {
	a := tuple.NewBase(0, 1, 7, 1)
	c := tuple.NewBase(1, 1, 7, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tuple.Join(a, c)
	}
}
