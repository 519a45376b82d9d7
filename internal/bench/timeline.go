package bench

import (
	"errors"
	"io"
	"time"

	"jisc/internal/core"
	"jisc/internal/engine"
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
	if err := positive("bucket", bucketSize); err != nil {
		return nil, 0, err
	}
	if buckets < 3 {
		buckets = 3
	}
	streams := joins + 1
	transitionAt := buckets / 2
	p := initialPlan(streams)
	target := worstCaseSwap(p)

	// lane fills x's windows and returns the function that processes one
	// bucket, migrating at the start of the transition bucket.
	lane := func(x engine.Executor) func(bucket int) (time.Duration, laneWork, error) {
		src := cfg.source(streams)
		for i := 0; i < streams*cfg.Window; i++ {
			x.Feed(src.Next())
		}
		return func(bucket int) (time.Duration, laneWork, error) {
			before := x.Metrics()
			start := time.Now()
			if bucket == transitionAt {
				if err := x.Migrate(target); err != nil {
					return 0, laneWork{}, err
				}
			}
			for i := 0; i < bucketSize; i++ {
				x.Feed(src.Next())
			}
			d := time.Since(start)
			after := x.Metrics()
			return d, laneWork{after.MigrationWork - before.MigrationWork, after.CompletedEntries - before.CompletedEntries}, nil
		}
	}
	jl := lane(engine.MustNew(engine.Config{Plan: p, WindowSize: cfg.Window, Strategy: core.New()}))
	ml := lane(engine.MustNew(engine.Config{Plan: p, WindowSize: cfg.Window, Strategy: migrate.MovingState{}}))
	pl := lane(migrate.MustNewParallelTrack(migrate.PTConfig{
		Plan: p, WindowSize: cfg.Window, CheckEvery: ptCheckEvery(cfg),
	}))

	fprintf(w, "Steady output timeline (§5.1.1) — per-bucket processing time, %d joins, bucket=%d tuples, transition at bucket %d\n",
		joins, bucketSize, transitionAt)
	fprintf(w, "%7s %12s %12s %12s\n", "bucket", "JISC", "MovingState", "ParTrack")
	var rows []TimelineRow
	for b := 0; b < buckets; b++ {
		row := TimelineRow{Bucket: b}
		var errs [3]error
		row.JISC, row.jisc, errs[0] = jl(b)
		row.MS, row.ms, errs[1] = ml(b)
		row.PT, row.pt, errs[2] = pl(b)
		if err := errors.Join(errs[:]...); err != nil {
			return nil, 0, err
		}
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
	if err := positive("period", periods...); err != nil {
		return nil, err
	}
	streams := joins + 1
	fprintf(w, "Overlapped transitions (§3.3) — %d joins, window=%d (turnover ≈ %d tuples)\n",
		joins, cfg.Window, streams*cfg.Window)
	fprintf(w, "%10s %12s %12s %12s %9s\n", "period", "peak-tracks", "JISC", "ParTrack", "PT/JISC")
	var rows []OverlapRow
	for _, period := range periods {
		p := initialPlan(streams)
		je := engine.MustNew(engine.Config{Plan: p, WindowSize: cfg.Window, Strategy: core.New()})
		jiscTime, _, err := cfg.periodic(je, streams, cfg.Tuples, period, worstCaseSwap, nil)
		if err != nil {
			return nil, err
		}
		pt := migrate.MustNewParallelTrack(migrate.PTConfig{
			Plan: p, WindowSize: cfg.Window, CheckEvery: ptCheckEvery(cfg),
		})
		peak := 1
		ptTime, _, err := cfg.periodic(pt, streams, cfg.Tuples, period, worstCaseSwap, func() {
			peak = max(peak, pt.Tracks())
		})
		if err != nil {
			return nil, err
		}

		row := OverlapRow{Period: period, PeakTracks: peak, JISC: jiscTime, PT: ptTime}
		rows = append(rows, row)
		fprintf(w, "%10d %12d %12v %12v %9.2f\n",
			row.Period, row.PeakTracks, row.JISC.Round(time.Microsecond),
			row.PT.Round(time.Microsecond), ratio(row.PT, row.JISC))
	}
	return rows, nil
}
