package bench

import (
	"io"
	"time"

	"jisc/internal/core"
	"jisc/internal/eddy"
	"jisc/internal/engine"
	"jisc/internal/metrics"
)

// NormalOpRow is one point of Figure 9: cumulative execution time
// after processing Tuples inputs during normal operation (no
// transition), for JISC, a pure symmetric-hash-join plan (≡ Parallel
// Track in steady state), and CACQ.
type NormalOpRow struct {
	Tuples int
	JISC   time.Duration
	SHJ    time.Duration
	CACQ   time.Duration

	// jisc and shj are the two engines' counters at this point: the
	// same input under either strategy does the same work.
	jisc, shj metrics.Snapshot
}

// OverheadVsSHJ returns JISC time / pure-SHJ time (≈1 expected: JISC
// adds almost no overhead during normal operation).
func (r NormalOpRow) OverheadVsSHJ() float64 { return ratio(r.JISC, r.SHJ) }

// SpeedupVsCACQ returns CACQ time / JISC time (≈2 expected: every
// CACQ tuple passes through the eddy once per operator).
func (r NormalOpRow) SpeedupVsCACQ() float64 { return ratio(r.CACQ, r.JISC) }

// Figure9 reproduces the normal-operation overhead experiment (§6.2):
// a plan with `joins` joins processes cfg.Tuples tuples in `points`
// checkpoints with no plan transition.
func Figure9(cfg Config, joins, points int, w io.Writer) ([]NormalOpRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if points <= 0 {
		points = 10
	}
	streams := joins + 1
	p := initialPlan(streams)

	je := engine.MustNew(engine.Config{Plan: p, WindowSize: cfg.Window, Strategy: core.New()})
	shj := engine.MustNew(engine.Config{Plan: p, WindowSize: cfg.Window, Strategy: engine.Static{}})
	cq := eddy.MustNewCACQ(eddy.CACQConfig{Plan: p, WindowSize: cfg.Window})

	srcA, srcB, srcC := cfg.source(streams), cfg.source(streams), cfg.source(streams)
	chunk := cfg.Tuples / points

	fprintf(w, "Figure 9 — normal operation, %d joins, window=%d\n", joins, cfg.Window)
	fprintf(w, "%10s %12s %12s %12s %11s %11s\n",
		"tuples", "JISC", "pure-SHJ", "CACQ", "JISC/SHJ", "CACQ/JISC")

	var rows []NormalOpRow
	var tJISC, tSHJ, tCACQ time.Duration
	for i := 1; i <= points; i++ {
		tJISC += timeFeed(je, srcA.Take(chunk))
		tSHJ += timeFeed(shj, srcB.Take(chunk))
		tCACQ += timeFeed(cq, srcC.Take(chunk))
		row := NormalOpRow{Tuples: i * chunk, JISC: tJISC, SHJ: tSHJ, CACQ: tCACQ, jisc: je.Metrics(), shj: shj.Metrics()}
		rows = append(rows, row)
		fprintf(w, "%10d %12v %12v %12v %11.2f %11.2f\n",
			row.Tuples, row.JISC.Round(time.Microsecond), row.SHJ.Round(time.Microsecond),
			row.CACQ.Round(time.Microsecond), row.OverheadVsSHJ(), row.SpeedupVsCACQ())
	}
	return rows, nil
}
