package bench

import (
	"io"
	"time"

	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/workload"
)

// SkewRow is one row of the key-distribution ablation: JISC's
// migration-stage behavior under uniform vs Zipf-distributed join
// keys. Skew shrinks and heats the live key space: the windows hold
// few distinct keys, each probed almost immediately after the
// transition, so lazy migration performs fewer completions in
// absolute terms and the completion counters drain (states finish
// completing) much sooner than under uniform keys.
type SkewRow struct {
	Dist        string
	StageTime   time.Duration
	Completions uint64
	// CompletedKeysFrac is completions per incomplete state divided by
	// the distinct keys in the windows at transition time — the
	// fraction of the key space lazy migration actually touched.
	CompletedKeysFrac float64
	// CompleteStates counts how many of the transition's incomplete
	// states finished completing during the stage.
	CompleteStates int
	IncompleteLeft int
}

// SkewAblation measures a worst-case JISC migration under both key
// distributions. The experiment bounds its own scale: Zipf's hottest
// key occupies ~8% of every window, an n-way equi-join's output on
// that key grows with bucket^n, and every hot-key eviction scans the
// root state's hot bucket — so the plan is capped at 3 joins, the
// window at 100, and the key domain widened to 10× the window (most
// keys cold — the contrast under study).
func SkewAblation(cfg Config, joins int, w io.Writer) ([]SkewRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if joins > 3 {
		joins = 3
	}
	if cfg.Window > 100 {
		cfg.Window = 100
	}
	cfg.Domain = int64(cfg.Window) * 10
	if cfg.Tuples > 10*cfg.Window {
		cfg.Tuples = 10 * cfg.Window
	}
	fprintf(w, "Key-skew ablation — JISC worst-case migration, %d joins, window=%d, domain=%d\n", joins, cfg.Window, cfg.Domain)
	fprintf(w, "%-8s %12s %12s %10s %10s %10s\n",
		"dist", "stage-time", "completions", "keys-frac", "completed", "left")
	var rows []SkewRow
	for _, dist := range []workload.KeyDist{workload.Uniform, workload.Zipf} {
		row, err := skewOne(cfg, joins, dist)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		fprintf(w, "%-8s %12v %12d %10.3f %10d %10d\n",
			row.Dist, row.StageTime.Round(time.Microsecond), row.Completions,
			row.CompletedKeysFrac, row.CompleteStates, row.IncompleteLeft)
	}
	return rows, nil
}

func skewOne(cfg Config, joins int, dist workload.KeyDist) (SkewRow, error) {
	streams := joins + 1
	p := initialPlan(streams)
	src := workload.MustNewSource(workload.Config{
		Streams: streams, Domain: cfg.Domain, Dist: dist, Seed: cfg.Seed,
	})
	e := engine.MustNew(engine.Config{Plan: p, WindowSize: cfg.Window, Strategy: core.New()})
	for i := 0; i < cfg.Tuples; i++ {
		e.Feed(src.Next())
	}
	// Distinct keys across the scan windows at transition time.
	distinct := map[int64]struct{}{}
	for _, n := range e.Nodes() {
		if n.IsLeaf() {
			for _, k := range n.St.Keys(nil) {
				distinct[int64(k)] = struct{}{}
			}
		}
	}
	if err := e.Migrate(worstCaseSwap(p)); err != nil {
		return SkewRow{}, err
	}
	incompleteAtStart := 0
	for _, n := range e.Nodes() {
		if !n.IsLeaf() && !n.St.Complete() {
			incompleteAtStart++
		}
	}
	start := time.Now()
	for i := 0; i < cfg.Tuples; i++ {
		e.Feed(src.Next())
	}
	elapsed := time.Since(start)

	m := e.Metrics()
	complete, incomplete := 0, 0
	for _, n := range e.Nodes() {
		if n.IsLeaf() {
			continue
		}
		if n.St.Complete() {
			complete++
		} else {
			incomplete++
		}
	}
	name := "uniform"
	if dist == workload.Zipf {
		name = "zipf"
	}
	frac := 0.0
	if len(distinct) > 0 && incompleteAtStart > 0 {
		frac = float64(m.Completions) / float64(incompleteAtStart) / float64(len(distinct))
	}
	return SkewRow{
		Dist: name, StageTime: elapsed, Completions: m.Completions,
		CompletedKeysFrac: frac, CompleteStates: complete, IncompleteLeft: incomplete,
	}, nil
}
