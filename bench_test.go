package jisc

// One testing.B benchmark per table/figure of the paper's evaluation
// (§6), exercising the same scenario shapes as the jiscbench figure
// drivers but under the standard Go benchmark harness. Run with:
//
//	go test -bench=. -benchmem
//
// Sub-benchmarks compare the strategies the corresponding figure
// compares; ns/op ratios between siblings reproduce the figure's
// shape (see EXPERIMENTS.md).

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"jisc/internal/analysis"
	"jisc/internal/bench"
	"jisc/internal/core"
	"jisc/internal/eddy"
	"jisc/internal/engine"
	"jisc/internal/migrate"
	"jisc/internal/plan"
	"jisc/internal/runtime"
	"jisc/internal/testseed"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

const (
	benchJoins  = 8
	benchWindow = 500
)

func benchSource(streams int) *workload.Source {
	return workload.MustNewSource(workload.Config{
		Streams: streams, Domain: benchWindow, Seed: 1,
	})
}

func benchPlan(streams int) *plan.Plan {
	order := make([]tuple.StreamID, streams)
	for i := range order {
		order[i] = tuple.StreamID(i)
	}
	return plan.MustLeftDeep(order...)
}

type benchFeeder interface {
	Feed(ev workload.Event)
	Migrate(p *plan.Plan) error
}

// warmAndMigrate fills every window, applies the swap transition, and
// returns the executor ready for migration-stage feeding.
func warmAndMigrate(b *testing.B, f benchFeeder, src *workload.Source, streams int, p, target *plan.Plan) {
	b.Helper()
	for i := 0; i < streams*benchWindow; i++ {
		f.Feed(src.Next())
	}
	if err := f.Migrate(target); err != nil {
		b.Fatal(err)
	}
}

// migrationStageBench measures per-tuple cost right after a transition
// of the given shape — Figures 7 (best) and 8 (worst).
func migrationStageBench(b *testing.B, worst bool) {
	streams := benchJoins + 1
	p := benchPlan(streams)
	var target *plan.Plan
	var err error
	if worst {
		target, err = p.Swap(1, streams-1)
	} else {
		target, err = p.Swap(streams-2, streams-1)
	}
	if err != nil {
		b.Fatal(err)
	}

	b.Run("jisc", func(b *testing.B) {
		src := benchSource(streams)
		e := engine.MustNew(engine.Config{Plan: p, WindowSize: benchWindow, Strategy: core.New()})
		warmAndMigrate(b, e, src, streams, p, target)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Feed(src.Next())
		}
	})
	b.Run("paralleltrack", func(b *testing.B) {
		src := benchSource(streams)
		pt := migrate.MustNewParallelTrack(migrate.PTConfig{
			Plan: p, WindowSize: benchWindow, CheckEvery: benchWindow / 10,
		})
		warmAndMigrate(b, pt, src, streams, p, target)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pt.Feed(src.Next())
		}
	})
	b.Run("cacq", func(b *testing.B) {
		src := benchSource(streams)
		c := eddy.MustNewCACQ(eddy.CACQConfig{Plan: p, WindowSize: benchWindow})
		warmAndMigrate(b, c, src, streams, p, target)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Feed(src.Next())
		}
	})
}

// BenchmarkFig7MigrationBestCase reproduces Figure 7's comparison: one
// incomplete state after the transition.
func BenchmarkFig7MigrationBestCase(b *testing.B) { migrationStageBench(b, false) }

// BenchmarkFig8MigrationWorstCase reproduces Figure 8's comparison:
// every intermediate state incomplete.
func BenchmarkFig8MigrationWorstCase(b *testing.B) { migrationStageBench(b, true) }

// BenchmarkFig9NormalOperation reproduces Figure 9: steady-state
// per-tuple cost with no transition — JISC vs a pure symmetric hash
// join plan vs CACQ.
func BenchmarkFig9NormalOperation(b *testing.B) {
	streams := benchJoins + 1
	p := benchPlan(streams)
	run := func(b *testing.B, f benchFeeder) {
		src := benchSource(streams)
		for i := 0; i < streams*benchWindow; i++ {
			f.Feed(src.Next())
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Feed(src.Next())
		}
	}
	b.Run("jisc", func(b *testing.B) {
		run(b, engine.MustNew(engine.Config{Plan: p, WindowSize: benchWindow, Strategy: core.New()}))
	})
	b.Run("pure-shj", func(b *testing.B) {
		run(b, engine.MustNew(engine.Config{Plan: p, WindowSize: benchWindow, Strategy: engine.Static{}}))
	})
	b.Run("cacq", func(b *testing.B) {
		run(b, eddy.MustNewCACQ(eddy.CACQConfig{Plan: p, WindowSize: benchWindow}))
	})
}

// BenchmarkFig10TransitionLatency reproduces Figure 10: the cost of
// the transition itself (which the query pays as output latency). One
// warmed engine alternates between two worst-case plans, so every
// iteration measures a real transition on full windows: JISC's is
// O(operators), Moving State's recomputes every incomplete state.
func BenchmarkFig10TransitionLatency(b *testing.B) {
	streams := 5
	p := benchPlan(streams)
	target, err := p.Swap(1, streams-1)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, strat engine.Strategy) {
		src := benchSource(streams)
		e := engine.MustNew(engine.Config{Plan: p, WindowSize: benchWindow, Strategy: strat})
		for j := 0; j < streams*benchWindow; j++ {
			e.Feed(src.Next())
		}
		plans := [2]*plan.Plan{target, p}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := e.Migrate(plans[i%2]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("jisc", func(b *testing.B) { run(b, core.New()) })
	b.Run("movingstate", func(b *testing.B) { run(b, migrate.MovingState{}) })
}

// BenchmarkFig10NLTransitionLatency is Figure 10b's variant: the same
// alternating transition over nested-loops joins, where eager
// recomputation is quadratic in the window.
func BenchmarkFig10NLTransitionLatency(b *testing.B) {
	const win = 128
	streams := 4
	p := benchPlan(streams)
	target, err := p.Swap(1, streams-1)
	if err != nil {
		b.Fatal(err)
	}
	band := func(x, y *tuple.Tuple) bool { return x.Key%16 == y.Key%16 }
	run := func(b *testing.B, strat engine.Strategy) {
		src := benchSource(streams)
		e := engine.MustNew(engine.Config{
			Plan: p, WindowSize: win, Kind: engine.NLJoin, Theta: band, Strategy: strat,
		})
		for j := 0; j < streams*win; j++ {
			e.Feed(src.Next())
		}
		plans := [2]*plan.Plan{target, p}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := e.Migrate(plans[i%2]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("jisc", func(b *testing.B) { run(b, core.New()) })
	b.Run("movingstate", func(b *testing.B) { run(b, migrate.MovingState{}) })
}

// frequencyBench reproduces Figures 11 and 12: per-tuple cost under
// periodic transitions (every `period` tuples).
func frequencyBench(b *testing.B, worst bool) {
	const period = 2000
	streams := benchJoins + 1
	p := benchPlan(streams)
	swap := func(cur *plan.Plan) *plan.Plan {
		order, _ := cur.Order()
		var q *plan.Plan
		var err error
		if worst {
			q, err = cur.Swap(1, len(order)-1)
		} else {
			q, err = cur.Swap(len(order)-2, len(order)-1)
		}
		if err != nil {
			b.Fatal(err)
		}
		return q
	}
	run := func(b *testing.B, f benchFeeder) {
		src := benchSource(streams)
		cur := p
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%period == 0 {
				cur = swap(cur)
				if err := f.Migrate(cur); err != nil {
					b.Fatal(err)
				}
			}
			f.Feed(src.Next())
		}
	}
	b.Run("jisc", func(b *testing.B) {
		run(b, engine.MustNew(engine.Config{Plan: p, WindowSize: benchWindow, Strategy: core.New()}))
	})
	b.Run("paralleltrack", func(b *testing.B) {
		run(b, migrate.MustNewParallelTrack(migrate.PTConfig{
			Plan: p, WindowSize: benchWindow, CheckEvery: benchWindow / 10,
		}))
	})
	b.Run("cacq", func(b *testing.B) {
		run(b, eddy.MustNewCACQ(eddy.CACQConfig{Plan: p, WindowSize: benchWindow}))
	})
}

// BenchmarkFig11FrequentTransitionsWorstCase reproduces Figure 11.
func BenchmarkFig11FrequentTransitionsWorstCase(b *testing.B) { frequencyBench(b, true) }

// BenchmarkFig12FrequentTransitionsBestCase reproduces Figure 12.
func BenchmarkFig12FrequentTransitionsBestCase(b *testing.B) { frequencyBench(b, false) }

// BenchmarkPropositionsMonteCarlo covers the §5 analysis table: the
// cost of sampling the pairwise-exchange distribution.
func BenchmarkPropositionsMonteCarlo(b *testing.B) {
	rng := rand.New(rand.NewSource(testseed.Seed(b, 1)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		analysis.SampleSwap(rng, 1024)
	}
}

// BenchmarkStairsEddy covers the §4.6 ablation: steady-state eddy
// execution with STAIR states, eager vs lazy after a worst-case
// routing change.
func BenchmarkStairsEddy(b *testing.B) {
	streams := 6
	p := benchPlan(streams)
	target, err := p.Swap(1, streams-1)
	if err != nil {
		b.Fatal(err)
	}
	for _, lazy := range []bool{false, true} {
		name := "eager"
		if lazy {
			name = "jisc-lazy"
		}
		b.Run(name, func(b *testing.B) {
			src := benchSource(streams)
			s := eddy.MustNewStairs(eddy.StairsConfig{Plan: p, WindowSize: benchWindow, Lazy: lazy})
			warmAndMigrate(b, s, src, streams, p, target)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Feed(src.Next())
			}
		})
	}
}

// BenchmarkProcedure2vs3 covers the Procedure 2 vs Procedure 3
// ablation: completion cost on left-deep plans right after a
// worst-case transition.
func BenchmarkProcedure2vs3(b *testing.B) {
	streams := benchJoins + 1
	p := benchPlan(streams)
	target, err := p.Swap(1, streams-1)
	if err != nil {
		b.Fatal(err)
	}
	for _, generic := range []bool{false, true} {
		name := "proc3-leftdeep"
		if generic {
			name = "proc2-generic"
		}
		b.Run(name, func(b *testing.B) {
			src := benchSource(streams)
			e := engine.MustNew(engine.Config{
				Plan: p, WindowSize: benchWindow,
				Strategy: &core.JISC{DisableLeftDeepFastPath: generic},
			})
			warmAndMigrate(b, e, src, streams, p, target)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Feed(src.Next())
			}
		})
	}
}

// BenchmarkSetDiffPipeline covers §4.7: steady-state set-difference
// throughput under JISC after an inner reorder.
func BenchmarkSetDiffPipeline(b *testing.B) {
	p := plan.MustLeftDeep(0, 1, 2, 3)
	e := engine.MustNew(engine.Config{
		Plan: p, WindowSize: benchWindow, Kind: engine.SetDiff, Strategy: core.New(),
	})
	src := workload.MustNewSource(workload.Config{Streams: 4, Domain: benchWindow, Seed: 1})
	for i := 0; i < 4*benchWindow; i++ {
		e.Feed(src.Next())
	}
	if err := e.Migrate(plan.MustLeftDeep(0, 3, 1, 2)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Feed(src.Next())
	}
}

// BenchmarkEndToEndFigureDrivers smoke-runs the jiscbench figure
// drivers at a small scale, covering the harness itself.
func BenchmarkEndToEndFigureDrivers(b *testing.B) {
	cfg := bench.Config{Window: 100, Domain: 100, Tuples: 2000, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure7(cfg, []int{3}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScalingJoins measures steady-state per-tuple cost as the
// plan deepens — the substrate behind every figure's x-axis.
func BenchmarkScalingJoins(b *testing.B) {
	for _, joins := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("joins-%d", joins), func(b *testing.B) {
			streams := joins + 1
			e := engine.MustNew(engine.Config{
				Plan: benchPlan(streams), WindowSize: benchWindow, Strategy: core.New(),
			})
			src := benchSource(streams)
			for i := 0; i < streams*benchWindow; i++ {
				e.Feed(src.Next())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Feed(src.Next())
			}
		})
	}
}

// BenchmarkScalingWindow measures steady-state per-tuple cost as the
// windows widen (state sizes grow, match rates stay ≈1).
func BenchmarkScalingWindow(b *testing.B) {
	for _, win := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("window-%d", win), func(b *testing.B) {
			e := engine.MustNew(engine.Config{
				Plan: benchPlan(4), WindowSize: win, Strategy: core.New(),
			})
			src := workload.MustNewSource(workload.Config{Streams: 4, Domain: int64(win), Seed: 1})
			for i := 0; i < 4*win; i++ {
				e.Feed(src.Next())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Feed(src.Next())
			}
		})
	}
}

// BenchmarkCheckpoint measures checkpoint serialization throughput.
func BenchmarkCheckpoint(b *testing.B) {
	e := engine.MustNew(engine.Config{
		Plan: benchPlan(4), WindowSize: 1000, Strategy: core.New(),
	})
	src := benchSource(4)
	for i := 0; i < 8000; i++ {
		e.Feed(src.Next())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := e.Checkpoint(&buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

// BenchmarkPartitionedThroughput compares one-shard and four-shard
// feeding through the concurrent harness.
func BenchmarkPartitionedThroughput(b *testing.B) {
	for _, parts := range []int{1, 4} {
		b.Run(fmt.Sprintf("partitions-%d", parts), func(b *testing.B) {
			pp := runtime.MustNew(runtime.Config{
				Engine: engine.Config{
					Plan: benchPlan(4), WindowSize: benchWindow, Strategy: core.New(),
				},
				QueueSize: 4096,
				Shards:    parts,
			})
			defer pp.Close()
			src := benchSource(4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := pp.Feed(src.Next()); err != nil {
					b.Fatal(err)
				}
			}
			if err := pp.Flush(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
