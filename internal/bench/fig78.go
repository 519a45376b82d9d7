package bench

import (
	"io"
	"math"
	"time"

	"jisc/internal/core"
	"jisc/internal/eddy"
	"jisc/internal/engine"
	"jisc/internal/metrics"
	"jisc/internal/migrate"
	"jisc/internal/plan"
	"jisc/internal/workload"
)

// MigrationRow is one row of Figures 7 and 8: the execution time each
// strategy needs to process the migration-stage tuples (from the
// forced transition until the Parallel Track Strategy discards its old
// plan), and JISC's speedup over the others.
type MigrationRow struct {
	Joins int
	// MigTuples is how many tuples the migration stage lasted (set by
	// Parallel Track's discard point, as in §6.1).
	MigTuples int
	JISC      time.Duration
	PT        time.Duration
	CACQ      time.Duration

	// ptWork is Parallel Track's MigrationWork over the stage and
	// jiscEntries JISC's CompletedEntries over the same tuples: the
	// work the timings stand for, seed-deterministic.
	ptWork, jiscEntries uint64
}

// SpeedupPT returns PT time / JISC time.
func (r MigrationRow) SpeedupPT() float64 { return ratio(r.PT, r.JISC) }

// SpeedupCACQ returns CACQ time / JISC time.
func (r MigrationRow) SpeedupCACQ() float64 { return ratio(r.CACQ, r.JISC) }

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Figure7 reproduces the best-case migration-stage experiment (§6.1,
// Figure 7): one incomplete state after the transition.
func Figure7(cfg Config, joinCounts []int, w io.Writer) ([]MigrationRow, error) {
	return migrationStage(cfg, joinCounts, bestCaseSwap, "Figure 7 (best case)", w)
}

// Figure8 reproduces the worst-case migration-stage experiment (§6.1,
// Figure 8): every intermediate state incomplete.
func Figure8(cfg Config, joinCounts []int, w io.Writer) ([]MigrationRow, error) {
	return migrationStage(cfg, joinCounts, worstCaseSwap, "Figure 8 (worst case)", w)
}

func migrationStage(cfg Config, joinCounts []int, swap func(*plan.Plan) *plan.Plan, title string, w io.Writer) ([]MigrationRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	fprintf(w, "%s — migration-stage execution time, window=%d\n", title, cfg.Window)
	fprintf(w, "%6s %10s %12s %12s %12s %9s %9s\n",
		"joins", "mig-tuples", "JISC", "ParTrack", "CACQ", "PT/JISC", "CACQ/JISC")
	var rows []MigrationRow
	for _, joins := range joinCounts {
		row, err := migrationStageOne(cfg, joins, swap)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		fprintf(w, "%6d %10d %12v %12v %12v %9.2f %9.2f\n",
			row.Joins, row.MigTuples, row.JISC.Round(time.Microsecond),
			row.PT.Round(time.Microsecond), row.CACQ.Round(time.Microsecond),
			row.SpeedupPT(), row.SpeedupCACQ())
	}
	return rows, nil
}

func migrationStageOne(cfg Config, joins int, swap func(*plan.Plan) *plan.Plan) (MigrationRow, error) {
	streams := joins + 1
	p := initialPlan(streams)
	target := swap(p)
	src := cfg.source(streams)
	warm := src.Take(cfg.Tuples)

	// start feeds x the warm-up and applies the transition.
	start := func(x engine.Executor) error {
		for _, ev := range warm {
			x.Feed(ev)
		}
		return x.Migrate(target)
	}
	newPT := func() *migrate.ParallelTrack {
		return migrate.MustNewParallelTrack(migrate.PTConfig{
			Plan: p, WindowSize: cfg.Window, CheckEvery: ptCheckEvery(cfg),
		})
	}

	// --- Parallel Track first: warm up, transition, then run until
	// the old plan is discarded. The tuples consumed define the
	// migration stage (§6.1: "we process tuples until the old plan of
	// the Parallel Track Strategy is discarded").
	pt := newPT()
	if err := start(pt); err != nil {
		return MigrationRow{}, err
	}
	var stage []workload.Event
	began := time.Now()
	// Window turnover needs ~streams*window tuples; cap generously.
	maxStage := 4 * streams * cfg.Window
	for i := 0; i < maxStage; i++ {
		ev := src.Next()
		stage = append(stage, ev)
		pt.Feed(ev)
		if !pt.MigrationActive() {
			break
		}
	}
	ptTime := time.Since(began)

	// replay runs the identical warm-up, transition and stage on `runs`
	// fresh executors and returns the fastest stage (best if none beats
	// it) — the minimum damps scheduler noise — and the last run's
	// counters.
	replay := func(mk func() engine.Executor, runs int, best time.Duration) (time.Duration, metrics.Snapshot, error) {
		var m metrics.Snapshot
		for r := 0; r < runs; r++ {
			x := mk()
			if err := start(x); err != nil {
				return 0, m, err
			}
			if d := timeFeed(x, stage); d < best {
				best = d
			}
			m = x.Metrics()
		}
		return best, m, nil
	}
	const unmeasured = time.Duration(math.MaxInt64)
	ptTime, _, err := replay(func() engine.Executor { return newPT() }, cfg.reps()-1, ptTime)
	if err != nil {
		return MigrationRow{}, err
	}
	jiscTime, jm, err := replay(func() engine.Executor {
		return engine.MustNew(engine.Config{Plan: p, WindowSize: cfg.Window, Strategy: core.New()})
	}, cfg.reps(), unmeasured)
	if err != nil {
		return MigrationRow{}, err
	}
	cacqTime, _, err := replay(func() engine.Executor {
		return eddy.MustNewCACQ(eddy.CACQConfig{Plan: p, WindowSize: cfg.Window})
	}, cfg.reps(), unmeasured)
	if err != nil {
		return MigrationRow{}, err
	}

	return MigrationRow{
		Joins: joins, MigTuples: len(stage),
		JISC: jiscTime, PT: ptTime, CACQ: cacqTime,
		ptWork: pt.Metrics().MigrationWork, jiscEntries: jm.CompletedEntries,
	}, nil
}
