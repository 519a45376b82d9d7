package bench

import (
	"io"
	"time"

	"jisc/internal/core"
	"jisc/internal/eddy"
	"jisc/internal/engine"
	"jisc/internal/metrics"
	"jisc/internal/tuple"
)

// StairsRow is one point of the §4.6 ablation: eager STAIRs
// (Promote/Demote at transition time) vs lazy JISC-on-STAIRs, under
// periodic worst-case routing changes inside the eddy framework.
type StairsRow struct {
	Period       int
	Eager        time.Duration
	Lazy         time.Duration
	EagerLatency time.Duration // max transition-to-first-output
	LazyLatency  time.Duration

	// transitions is the routing changes the row made; a row with none
	// has no latency to show.
	transitions int
	// eagerWork is eager STAIRs' MigrationWork (entries promoted at
	// transition time) and lazyWork JISC-on-STAIRs' CompletedEntries
	// (entries promoted on demand): the promotion work, seed-deterministic.
	eagerWork, lazyWork uint64
}

// StairsAblation compares eager STAIRs with JISC-on-STAIRs (§4.6).
func StairsAblation(cfg Config, joins int, periods []int, w io.Writer) ([]StairsRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := positive("period", periods...); err != nil {
		return nil, err
	}
	streams := joins + 1
	fprintf(w, "STAIRs ablation (§4.6) — eager Promote/Demote vs JISC-on-STAIRs, %d joins\n", joins)
	fprintf(w, "%10s %12s %12s %9s %14s %14s\n",
		"period", "eager", "lazy", "eager/lazy", "eager-latency", "lazy-latency")
	var rows []StairsRow
	for _, period := range periods {
		run := func(lazy bool) (time.Duration, time.Duration, int, metrics.Snapshot, error) {
			win := &outputWindow{now: time.Now}
			s := eddy.MustNewStairs(eddy.StairsConfig{
				Plan: initialPlan(streams), WindowSize: cfg.Window, Lazy: lazy,
				Output: func(*tuple.Tuple) { win.output() },
			})
			win.Executor = s
			elapsed, transitions, err := cfg.periodic(win, streams, cfg.Tuples, period, worstCaseSwap, nil)
			return elapsed, win.max, transitions, s.Metrics(), err
		}
		eager, eagerLat, transitions, em, err := run(false)
		if err != nil {
			return nil, err
		}
		lazy, lazyLat, _, lm, err := run(true)
		if err != nil {
			return nil, err
		}
		row := StairsRow{Period: period, Eager: eager, Lazy: lazy, EagerLatency: eagerLat, LazyLatency: lazyLat,
			transitions: transitions, eagerWork: em.MigrationWork, lazyWork: lm.CompletedEntries}
		rows = append(rows, row)
		fprintf(w, "%10d %12v %12v %9.2f %14s %14s\n",
			row.Period, row.Eager.Round(time.Microsecond), row.Lazy.Round(time.Microsecond),
			ratio(row.Eager, row.Lazy), row.latency(row.EagerLatency), row.latency(row.LazyLatency))
	}
	return rows, nil
}

// latency formats one of the row's latencies, "-" when the row made
// no transition to measure one after.
func (r StairsRow) latency(d time.Duration) string {
	if r.transitions == 0 {
		return "-"
	}
	return d.Round(time.Microsecond).String()
}

// ProcRow is one point of the Procedure 2 vs Procedure 3 ablation: on
// left-deep plans, the iterative spine completion (Procedure 3) vs
// the generic recursive completion (Procedure 2) during worst-case
// migrations.
type ProcRow struct {
	Joins int
	Proc3 time.Duration // left-deep fast path
	Proc2 time.Duration // generic recursion forced

	// proc3 and proc2 are the two engines' counters after the stage:
	// both procedures compute identical entries.
	proc3, proc2 metrics.Snapshot
}

// ProcedureAblation compares Procedures 2 and 3 on left-deep plans.
func ProcedureAblation(cfg Config, joinCounts []int, w io.Writer) ([]ProcRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	fprintf(w, "Procedure 2 vs 3 ablation — worst-case migration on left-deep plans\n")
	fprintf(w, "%6s %12s %12s %9s\n", "joins", "Proc3", "Proc2", "P2/P3")
	var rows []ProcRow
	for _, joins := range joinCounts {
		streams := joins + 1
		run := func(strategy engine.Strategy) (time.Duration, metrics.Snapshot, error) {
			p := initialPlan(streams)
			e := engine.MustNew(engine.Config{Plan: p, WindowSize: cfg.Window, Strategy: strategy})
			src := cfg.source(streams)
			for i := 0; i < streams*cfg.Window; i++ {
				e.Feed(src.Next())
			}
			if err := e.Migrate(worstCaseSwap(p)); err != nil {
				return 0, metrics.Snapshot{}, err
			}
			return timeFeed(e, src.Take(cfg.Tuples)), e.Metrics(), nil
		}
		p3, m3, err := run(core.New())
		if err != nil {
			return nil, err
		}
		p2, m2, err := run(&core.JISC{DisableLeftDeepFastPath: true})
		if err != nil {
			return nil, err
		}
		row := ProcRow{Joins: joins, Proc3: p3, Proc2: p2, proc3: m3, proc2: m2}
		rows = append(rows, row)
		fprintf(w, "%6d %12v %12v %9.2f\n",
			row.Joins, row.Proc3.Round(time.Microsecond), row.Proc2.Round(time.Microsecond),
			ratio(row.Proc2, row.Proc3))
	}
	return rows, nil
}
