package bench

import (
	"io"
	"time"

	"jisc/internal/core"
	"jisc/internal/eddy"
	"jisc/internal/engine"
	"jisc/internal/migrate"
	"jisc/internal/plan"
)

// FrequencyRow is one point of Figures 11 and 12: total execution
// time for a fixed input when a plan transition is forced every
// Period tuples.
type FrequencyRow struct {
	// Period is the number of tuples between forced transitions.
	Period int
	// Transitions actually performed.
	Transitions int
	JISC        time.Duration
	PT          time.Duration
	CACQ        time.Duration

	// ptWork is Parallel Track's MigrationWork over the run and
	// jiscEntries JISC's CompletedEntries: the migration work the
	// timings stand for, seed-deterministic.
	ptWork, jiscEntries uint64
}

// Figure11 reproduces §6.4's worst-case transition-frequency
// experiment: every transition leaves all intermediate states
// incomplete.
func Figure11(cfg Config, joins int, periods []int, w io.Writer) ([]FrequencyRow, error) {
	return frequency(cfg, joins, periods, worstCaseSwap, "Figure 11 (worst case)", w)
}

// Figure12 reproduces §6.4's best-case experiment: each transition
// leaves a single incomplete state just below the root.
func Figure12(cfg Config, joins int, periods []int, w io.Writer) ([]FrequencyRow, error) {
	return frequency(cfg, joins, periods, bestCaseSwap, "Figure 12 (best case)", w)
}

func frequency(cfg Config, joins int, periods []int, swap func(*plan.Plan) *plan.Plan, title string, w io.Writer) ([]FrequencyRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := positive("period", periods...); err != nil {
		return nil, err
	}
	fprintf(w, "%s — total time vs transition frequency, %d joins, %d tuples\n", title, joins, 2*cfg.Tuples)
	fprintf(w, "%10s %6s %12s %12s %12s %9s %9s\n",
		"period", "trans", "JISC", "ParTrack", "CACQ", "PT/JISC", "CACQ/JISC")
	var rows []FrequencyRow
	for _, period := range periods {
		row, err := frequencyOne(cfg, joins, period, swap)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		fprintf(w, "%10d %6d %12v %12v %12v %9.2f %9.2f\n",
			row.Period, row.Transitions, row.JISC.Round(time.Microsecond),
			row.PT.Round(time.Microsecond), row.CACQ.Round(time.Microsecond),
			ratio(row.PT, row.JISC), ratio(row.CACQ, row.JISC))
	}
	return rows, nil
}

func frequencyOne(cfg Config, joins, period int, swap func(*plan.Plan) *plan.Plan) (FrequencyRow, error) {
	streams := joins + 1
	total := 2 * cfg.Tuples // as in §6.4: at least two transitions at every frequency
	run := func(x engine.Executor) (time.Duration, int, error) {
		return cfg.periodic(x, streams, total, period, swap, nil)
	}

	p := initialPlan(streams)
	je := engine.MustNew(engine.Config{Plan: p, WindowSize: cfg.Window, Strategy: core.New()})
	jiscTime, trans, err := run(je)
	if err != nil {
		return FrequencyRow{}, err
	}
	pt := migrate.MustNewParallelTrack(migrate.PTConfig{
		Plan: p, WindowSize: cfg.Window, CheckEvery: ptCheckEvery(cfg),
	})
	ptTime, _, err := run(pt)
	if err != nil {
		return FrequencyRow{}, err
	}
	cacqTime, _, err := run(eddy.MustNewCACQ(eddy.CACQConfig{Plan: p, WindowSize: cfg.Window}))
	if err != nil {
		return FrequencyRow{}, err
	}
	return FrequencyRow{
		Period: period, Transitions: trans,
		JISC: jiscTime, PT: ptTime, CACQ: cacqTime,
		ptWork: pt.Metrics().MigrationWork, jiscEntries: je.Metrics().CompletedEntries,
	}, nil
}
