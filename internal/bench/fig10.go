package bench

import (
	"io"
	"sort"
	"time"

	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/migrate"
	"jisc/internal/plan"
	"jisc/internal/tuple"
)

// outputWindow wraps an executor to measure the figures' output
// latency: the time from the moment a plan transition is triggered
// until the first root result after it. Migrate stamps the clock just
// before the executor's own, because an eager strategy halts inside
// it; output, which the executor's output callback calls for every
// root result, closes the open window.
type outputWindow struct {
	engine.Executor
	now    func() time.Time
	at     time.Time
	open   bool
	closed int           // windows closed so far
	max    time.Duration // the longest of them
}

func (w *outputWindow) Migrate(p *plan.Plan) error {
	w.at, w.open = w.now(), true
	return w.Executor.Migrate(p)
}

func (w *outputWindow) output() {
	if !w.open {
		return
	}
	w.open = false
	w.closed++
	w.max = max(w.max, w.now().Sub(w.at))
}

// LatencyRow is one point of Figure 10: the time from the moment a
// plan transition is triggered until the first output tuple, for JISC
// and the Moving State Strategy, at one window size.
type LatencyRow struct {
	Window      int
	JISC        time.Duration
	MovingState time.Duration

	// jiscWork and msWork are each strategy's MigrationWork up to that
	// first output: the eager recomputation the latency stands for.
	jiscWork, msWork uint64
}

// Figure10Hash reproduces Figure 10a: output latency after a
// worst-case transition in a QEP of symmetric hash joins, across
// window sizes.
func Figure10Hash(cfg Config, joins int, windows []int, w io.Writer) ([]LatencyRow, error) {
	return figure10(cfg, joins, windows, engine.HashJoin, nil, "Figure 10a (hash joins)", w)
}

// Figure10NL reproduces Figure 10b: the same experiment over
// nested-loops joins (general theta joins), where the Moving State
// Strategy's eager recomputation is quadratic in the window size per
// operator and its latency explodes.
func Figure10NL(cfg Config, joins int, windows []int, w io.Writer) ([]LatencyRow, error) {
	// Band predicate: a real (non-equi) theta join with ~1/16 selectivity.
	band := func(a, b *tuple.Tuple) bool {
		d := a.Key%16 - b.Key%16
		return d == 0
	}
	return figure10(cfg, joins, windows, engine.NLJoin, band, "Figure 10b (nested-loops joins)", w)
}

func figure10(cfg Config, joins int, windows []int, kind engine.Kind, theta func(a, b *tuple.Tuple) bool, title string, w io.Writer) ([]LatencyRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := positive("window", windows...); err != nil {
		return nil, err
	}
	fprintf(w, "%s — output latency after a transition, %d joins\n", title, joins)
	fprintf(w, "%10s %14s %14s %10s\n", "window", "JISC", "MovingState", "MS/JISC")
	var rows []LatencyRow
	for _, win := range windows {
		row, err := latencyOne(cfg, joins, win, kind, theta)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		fprintf(w, "%10d %14v %14v %10.1f\n",
			row.Window, row.JISC, row.MovingState,
			ratio(row.MovingState, row.JISC))
	}
	return rows, nil
}

func latencyOne(cfg Config, joins, win int, kind engine.Kind, theta func(a, b *tuple.Tuple) bool) (LatencyRow, error) {
	streams := joins + 1
	measureOnce := func(strategy engine.Strategy) (time.Duration, uint64, error) {
		p := initialPlan(streams)
		w := &outputWindow{now: time.Now}
		e := engine.MustNew(engine.Config{
			Plan: p, WindowSize: win, Kind: kind, Theta: theta, Strategy: strategy,
			Output: func(engine.Delta) { w.output() },
		})
		w.Executor = e
		// Scale the key domain with the window so the match rate per
		// probe stays ≈1 across the sweep; with a fixed domain, small
		// windows starve of outputs and the measurement degenerates
		// into waiting for a lucky tuple.
		wcfg := cfg
		wcfg.Domain = int64(win)
		src := wcfg.source(streams)
		// Fill every window completely so the transition has full
		// states to migrate.
		for i := 0; i < streams*win; i++ {
			e.Feed(src.Next())
		}
		if err := w.Migrate(worstCaseSwap(p)); err != nil {
			return 0, 0, err
		}
		// Feed until the first post-transition output closes the window.
		for i := 0; i < 4*streams*win; i++ {
			e.Feed(src.Next())
			if w.closed > 0 {
				return w.max, e.Metrics().MigrationWork, nil
			}
		}
		return 0, e.Metrics().MigrationWork, nil
	}
	// Latency is a single short event; repeat and take the median to
	// damp scheduler noise. The work is the same on every repetition.
	measure := func(strategy func() engine.Strategy) (time.Duration, uint64, error) {
		samples := make([]time.Duration, 0, cfg.reps())
		var work uint64
		for r := 0; r < cfg.reps(); r++ {
			d, w, err := measureOnce(strategy())
			if err != nil {
				return 0, 0, err
			}
			samples = append(samples, d)
			work = w
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		return samples[len(samples)/2], work, nil
	}
	jisc, jiscWork, err := measure(func() engine.Strategy { return core.New() })
	if err != nil {
		return LatencyRow{}, err
	}
	ms, msWork, err := measure(func() engine.Strategy { return migrate.MovingState{} })
	if err != nil {
		return LatencyRow{}, err
	}
	return LatencyRow{Window: win, JISC: jisc, MovingState: ms, jiscWork: jiscWork, msWork: msWork}, nil
}
