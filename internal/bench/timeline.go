package bench

import (
	"io"
	"time"

	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/metrics"
	"jisc/internal/migrate"
)

// TimelineRow is one bucket of the steady-output timeline (§5.1.1):
// the time each strategy spent processing one bucket of input tuples
// around a forced worst-case transition. Moving State shows a stall
// spike in the transition bucket (the halt); JISC's buckets stay flat
// — the steady-query-output property the paper is built around.
type TimelineRow struct {
	// Bucket index; the transition fires at the start of bucket
	// TransitionBucket.
	Bucket int
	JISC   time.Duration
	MS     time.Duration
	PT     time.Duration

	// jisc, ms and pt are each strategy's work in the bucket: the
	// seed-deterministic counterpart of its time.
	jisc, ms, pt laneWork
}

// laneWork is what one strategy did in one bucket: the MigrationWork
// and CompletedEntries it added.
type laneWork struct{ migration, completed uint64 }

// Timeline runs the per-bucket processing-time series. The transition
// fires at the start of the middle bucket.
func Timeline(cfg Config, joins, buckets, bucketSize int, w io.Writer) ([]TimelineRow, int, error) {
	if err := cfg.validate(); err != nil {
		return nil, 0, err
	}
	if buckets < 3 {
		buckets = 3
	}
	streams := joins + 1
	transitionAt := buckets / 2

	type lane struct {
		feed    func(int) time.Duration // process bucket i, return time
		metrics func() metrics.Snapshot
	}
	run := func(l *lane, bucket int) (time.Duration, laneWork) {
		before := l.metrics()
		d := l.feed(bucket)
		after := l.metrics()
		return d, laneWork{after.MigrationWork - before.MigrationWork, after.CompletedEntries - before.CompletedEntries}
	}
	mkEngine := func(strat engine.Strategy) *lane {
		p := initialPlan(streams)
		e := engine.MustNew(engine.Config{Plan: p, WindowSize: cfg.Window, Strategy: strat})
		src := cfg.source(streams)
		for i := 0; i < streams*cfg.Window; i++ {
			e.Feed(src.Next())
		}
		return &lane{
			metrics: e.Metrics,
			feed: func(bucket int) time.Duration {
				start := time.Now()
				if bucket == transitionAt {
					if err := e.Migrate(worstCaseSwap(p)); err != nil {
						panic(err)
					}
				}
				for i := 0; i < bucketSize; i++ {
					e.Feed(src.Next())
				}
				return time.Since(start)
			},
		}
	}
	mkPT := func() *lane {
		p := initialPlan(streams)
		pt := migrate.MustNewParallelTrack(migrate.PTConfig{
			Plan: p, WindowSize: cfg.Window, CheckEvery: ptCheckEvery(cfg),
		})
		src := cfg.source(streams)
		for i := 0; i < streams*cfg.Window; i++ {
			pt.Feed(src.Next())
		}
		return &lane{
			metrics: pt.Metrics,
			feed: func(bucket int) time.Duration {
				start := time.Now()
				if bucket == transitionAt {
					if err := pt.Migrate(worstCaseSwap(p)); err != nil {
						panic(err)
					}
				}
				for i := 0; i < bucketSize; i++ {
					pt.Feed(src.Next())
				}
				return time.Since(start)
			},
		}
	}

	jl := mkEngine(core.New())
	ml := mkEngine(migrate.MovingState{})
	pl := mkPT()

	fprintf(w, "Steady output timeline (§5.1.1) — per-bucket processing time, %d joins, bucket=%d tuples, transition at bucket %d\n",
		joins, bucketSize, transitionAt)
	fprintf(w, "%7s %12s %12s %12s\n", "bucket", "JISC", "MovingState", "ParTrack")
	var rows []TimelineRow
	for b := 0; b < buckets; b++ {
		row := TimelineRow{Bucket: b}
		row.JISC, row.jisc = run(jl, b)
		row.MS, row.ms = run(ml, b)
		row.PT, row.pt = run(pl, b)
		rows = append(rows, row)
		marker := ""
		if b == transitionAt {
			marker = "  <- transition"
		}
		fprintf(w, "%7d %12v %12v %12v%s\n", b,
			row.JISC.Round(time.Microsecond), row.MS.Round(time.Microsecond),
			row.PT.Round(time.Microsecond), marker)
	}
	return rows, transitionAt, nil
}

// OverlapRow summarizes the overlapped-transition stress (§3.3,
// §5.1.2): transitions arrive faster than window turnover, so the
// Parallel Track Strategy stacks more than two simultaneous plans.
type OverlapRow struct {
	// Period between transitions, in tuples (well below the
	// streams×window turnover horizon).
	Period int
	// PeakTracks is the largest number of simultaneously running
	// Parallel Track plans observed.
	PeakTracks int
	JISC       time.Duration
	PT         time.Duration
}

// OverlapAblation measures overlapped transitions.
func OverlapAblation(cfg Config, joins int, periods []int, w io.Writer) ([]OverlapRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	streams := joins + 1
	fprintf(w, "Overlapped transitions (§3.3) — %d joins, window=%d (turnover ≈ %d tuples)\n",
		joins, cfg.Window, streams*cfg.Window)
	fprintf(w, "%10s %12s %12s %12s %9s\n", "period", "peak-tracks", "JISC", "ParTrack", "PT/JISC")
	var rows []OverlapRow
	for _, period := range periods {
		// JISC lane.
		p := initialPlan(streams)
		je := engine.MustNew(engine.Config{Plan: p, WindowSize: cfg.Window, Strategy: core.New()})
		src := cfg.source(streams)
		cur := p
		start := time.Now()
		for i := 0; i < cfg.Tuples; i++ {
			if i > 0 && i%period == 0 {
				cur = worstCaseSwap(cur)
				if err := je.Migrate(cur); err != nil {
					return nil, err
				}
			}
			je.Feed(src.Next())
		}
		jiscTime := time.Since(start)

		// Parallel Track lane.
		pt := migrate.MustNewParallelTrack(migrate.PTConfig{
			Plan: p, WindowSize: cfg.Window, CheckEvery: ptCheckEvery(cfg),
		})
		src = cfg.source(streams)
		cur = p
		peak := 1
		start = time.Now()
		for i := 0; i < cfg.Tuples; i++ {
			if i > 0 && i%period == 0 {
				cur = worstCaseSwap(cur)
				if err := pt.Migrate(cur); err != nil {
					return nil, err
				}
				if tr := pt.Tracks(); tr > peak {
					peak = tr
				}
			}
			pt.Feed(src.Next())
		}
		ptTime := time.Since(start)

		row := OverlapRow{Period: period, PeakTracks: peak, JISC: jiscTime, PT: ptTime}
		rows = append(rows, row)
		fprintf(w, "%10d %12d %12v %12v %9.2f\n",
			row.Period, row.PeakTracks, row.JISC.Round(time.Microsecond),
			row.PT.Round(time.Microsecond), ratio(row.PT, row.JISC))
	}
	return rows, nil
}
