package bench

import (
	"io"
	"time"

	"jisc/internal/core"
	"jisc/internal/eddy"
	"jisc/internal/engine"
	"jisc/internal/migrate"
	"jisc/internal/plan"
	"jisc/internal/runtime"
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
	if cfg.Shards > 1 {
		fprintf(w, "(JISC column runs the sharded runtime with %d shards; PT/CACQ single-threaded)\n", cfg.Shards)
	}
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

	// --- Parallel Track first: warm up, transition, then run until
	// the old plan is discarded. The tuples consumed define the
	// migration stage (§6.1: "we process tuples until the old plan of
	// the Parallel Track Strategy is discarded").
	newPT := func() (*migrate.ParallelTrack, error) {
		pt := migrate.MustNewParallelTrack(migrate.PTConfig{
			Plan: p, WindowSize: cfg.Window, CheckEvery: ptCheckEvery(cfg),
		})
		for _, ev := range warm {
			pt.Feed(ev)
		}
		return pt, pt.Migrate(target)
	}
	pt, err := newPT()
	if err != nil {
		return MigrationRow{}, err
	}
	var stage []workload.Event
	start := time.Now()
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
	ptTime := time.Since(start)
	ptWork := pt.Metrics().MigrationWork

	// Repetitions replay the identical stage on fresh executors; the
	// minimum damps scheduler noise.
	minDur := func(cur time.Duration, measure func() (time.Duration, error)) (time.Duration, error) {
		best := cur
		for r := 1; r < cfg.reps(); r++ {
			d, err := measure()
			if err != nil {
				return 0, err
			}
			if d < best {
				best = d
			}
		}
		return best, nil
	}

	ptTime, err = minDur(ptTime, func() (time.Duration, error) {
		pt, err := newPT()
		if err != nil {
			return 0, err
		}
		return timeFeed(pt, stage), nil
	})
	if err != nil {
		return MigrationRow{}, err
	}

	// --- JISC: identical warmup and transition, then replay the same
	// migration-stage tuples. With cfg.Shards > 1 the measurement
	// exercises the sharded runtime entry point: warmup and stage are
	// hash-partitioned across the shards and the transition fans out.
	var jiscEntries uint64
	runJISC := func() (time.Duration, error) {
		if cfg.Shards > 1 {
			// Windows are per shard, and each shard sees ~1/N of the
			// key domain. Splitting the window budget keeps the
			// tuples-per-key density — and hence the join fan-out per
			// level — the same as the single-engine run; giving every
			// shard the full window would multiply the density by N
			// and blow up intermediate states exponentially in the
			// join count.
			shardWin := cfg.Window / cfg.Shards
			if shardWin < 1 {
				shardWin = 1
			}
			rt := runtime.MustNew(runtime.Config{
				Engine: engine.Config{Plan: p, WindowSize: shardWin, Strategy: core.New()},
				Shards: cfg.Shards,
			})
			defer rt.Close()
			for _, ev := range warm {
				if err := rt.Feed(ev); err != nil {
					return 0, err
				}
			}
			if err := rt.Flush(); err != nil {
				return 0, err
			}
			if err := rt.Migrate(target); err != nil {
				return 0, err
			}
			start := time.Now()
			for _, ev := range stage {
				if err := rt.Feed(ev); err != nil {
					return 0, err
				}
			}
			if err := rt.Flush(); err != nil {
				return 0, err
			}
			d := time.Since(start)
			jiscEntries = rt.Snapshot().CompletedEntries
			return d, nil
		}
		je := engine.MustNew(engine.Config{Plan: p, WindowSize: cfg.Window, Strategy: core.New()})
		for _, ev := range warm {
			je.Feed(ev)
		}
		if err := je.Migrate(target); err != nil {
			return 0, err
		}
		d := timeFeed(je, stage)
		jiscEntries = je.Metrics().CompletedEntries
		return d, nil
	}
	jiscTime, err := runJISC()
	if err != nil {
		return MigrationRow{}, err
	}
	if jiscTime, err = minDur(jiscTime, runJISC); err != nil {
		return MigrationRow{}, err
	}

	// --- CACQ: same protocol.
	runCACQ := func() (time.Duration, error) {
		cq := eddy.MustNewCACQ(eddy.CACQConfig{Plan: p, WindowSize: cfg.Window})
		for _, ev := range warm {
			cq.Feed(ev)
		}
		if err := cq.Migrate(target); err != nil {
			return 0, err
		}
		return timeFeed(cq, stage), nil
	}
	cacqTime, err := runCACQ()
	if err != nil {
		return MigrationRow{}, err
	}
	if cacqTime, err = minDur(cacqTime, runCACQ); err != nil {
		return MigrationRow{}, err
	}

	return MigrationRow{
		Joins: joins, MigTuples: len(stage),
		JISC: jiscTime, PT: ptTime, CACQ: cacqTime,
		ptWork: ptWork, jiscEntries: jiscEntries,
	}, nil
}
