package bench

import (
	"io"

	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/migrate"
)

// MemoryRow is one row of the §5 memory experiment: peak state size
// (stored tuples across all operator states) during a migration
// stage, per strategy. The paper's claim: JISC adds no memory beyond
// the single plan's states plus one counter per operator, while the
// Parallel Track Strategy holds two plans' states at once.
type MemoryRow struct {
	Strategy string
	// Steady is the total stored tuples right before the transition.
	Steady int
	// Peak is the maximum total stored tuples observed during the
	// migration stage.
	Peak int
}

// Overhead returns Peak/Steady.
func (r MemoryRow) Overhead() float64 {
	if r.Steady == 0 {
		return 0
	}
	return float64(r.Peak) / float64(r.Steady)
}

// MemoryAblation measures peak state during a worst-case migration
// for JISC, Moving State, and Parallel Track.
func MemoryAblation(cfg Config, joins int, w io.Writer) ([]MemoryRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	streams := joins + 1
	fprintf(w, "Memory during migration (§5) — peak stored tuples, %d joins, window=%d\n", joins, cfg.Window)
	fprintf(w, "%-14s %12s %12s %10s\n", "strategy", "steady", "peak", "peak/steady")

	var rows []MemoryRow
	p := initialPlan(streams)
	// measure warms x up, migrates it and samples size every 256 of the
	// next stage tuples, for as long as active holds.
	measure := func(name string, x engine.Executor, size func() int, stage int, active func() bool) error {
		src := cfg.source(streams)
		for i := 0; i < cfg.Tuples; i++ {
			x.Feed(src.Next())
		}
		steady := size()
		if err := x.Migrate(worstCaseSwap(p)); err != nil {
			return err
		}
		peak := size()
		for i := 0; i < stage && active(); i++ {
			x.Feed(src.Next())
			if i%256 == 0 {
				peak = max(peak, size())
			}
		}
		row := MemoryRow{Strategy: name, Steady: steady, Peak: peak}
		rows = append(rows, row)
		fprintf(w, "%-14s %12d %12d %10.2f\n", row.Strategy, row.Steady, row.Peak, row.Overhead())
		return nil
	}

	for _, strat := range []engine.Strategy{core.New(), migrate.MovingState{}} {
		e := engine.MustNew(engine.Config{Plan: p, WindowSize: cfg.Window, Strategy: strat})
		if err := measure(strat.Name(), e, e.TotalStateSize, streams*cfg.Window, func() bool { return true }); err != nil {
			return nil, err
		}
	}
	// Parallel Track's stage ends when it discards the old plan.
	pt := migrate.MustNewParallelTrack(migrate.PTConfig{
		Plan: p, WindowSize: cfg.Window, CheckEvery: ptCheckEvery(cfg),
	})
	ptSize := func() int {
		total := 0
		for _, size := range pt.StateSizes() {
			total += size
		}
		return total
	}
	if err := measure(pt.Name(), pt, ptSize, 2*streams*cfg.Window, pt.MigrationActive); err != nil {
		return nil, err
	}
	return rows, nil
}
