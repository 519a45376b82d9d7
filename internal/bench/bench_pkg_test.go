package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"jisc/internal/metrics"
)

// tiny returns a configuration small enough for unit tests. Three
// repetitions (min/median) damp scheduler outliers, which dominate at
// this scale.
func tiny() Config {
	return Config{Window: 60, Domain: 60, Tuples: 1500, Seed: 1, Reps: 3}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{{}, {Window: 1}, {Window: 1, Domain: 1}, {Window: -1, Domain: 1, Tuples: 1}}
	for _, c := range bad {
		if err := c.validate(); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
	if err := DefaultConfig().validate(); err != nil {
		t.Fatal(err)
	}
	if err := PaperConfig().validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSwapHelpers(t *testing.T) {
	p := initialPlan(6)
	best := bestCaseSwap(p)
	worst := worstCaseSwap(p)
	if best.Equal(p) || worst.Equal(p) {
		t.Fatal("swap returned the same plan")
	}
	bo, _ := best.Order()
	if bo[4] != 5 || bo[5] != 4 {
		t.Fatalf("best-case order = %v", bo)
	}
	wo, _ := worst.Order()
	if wo[1] != 5 || wo[5] != 1 {
		t.Fatalf("worst-case order = %v", wo)
	}
}

func TestFigure7RunsAndJISCWins(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Figure7(tiny(), []int{3, 5}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MigTuples == 0 {
			t.Errorf("joins=%d: empty migration stage", r.Joins)
		}
		if r.JISC <= 0 || r.PT <= 0 || r.CACQ <= 0 {
			t.Errorf("joins=%d: non-positive timing %+v", r.Joins, r)
		}
	}
	// Best case, in work rather than time: over the same migration
	// stage Parallel Track double-processes every tuple and scans for
	// the discard check, while JISC completes one state key by key.
	// Seed-deterministic, so the counts are exact.
	want := []struct{ ptWork, jiscEntries uint64 }{{13985, 3}, {34530, 53}}
	for i, r := range rows {
		if r.ptWork != want[i].ptWork || r.jiscEntries != want[i].jiscEntries {
			t.Errorf("joins=%d: Parallel Track migration work %d, JISC completed entries %d; want %d and %d",
				r.Joins, r.ptWork, r.jiscEntries, want[i].ptWork, want[i].jiscEntries)
		}
	}
	if !strings.Contains(buf.String(), "Figure 7") {
		t.Error("missing table header")
	}
}

func TestFigure8Runs(t *testing.T) {
	rows, err := Figure8(tiny(), []int{4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].MigTuples == 0 {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestFigure9ShapesHold(t *testing.T) {
	cfg := tiny()
	cfg.Tuples = 4000
	rows, err := Figure9(cfg, 8, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// JISC adds no work during normal operation: over the same input it
	// probes, stores and emits exactly what the static symmetric hash
	// join plan does (the timing ratios are jiscbench's to print).
	last := rows[len(rows)-1]
	for _, m := range []metrics.Snapshot{last.jisc, last.shj} {
		if m.Probes != 22586 || m.Inserts != 22586 || m.Output != 7734 {
			t.Errorf("probes %d, inserts %d, outputs %d; want 22586, 22586 and 7734 for both engines",
				m.Probes, m.Inserts, m.Output)
		}
	}
}

func TestFigure10HashRuns(t *testing.T) {
	rows, err := Figure10Hash(tiny(), 4, []int{40, 80}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestFigure10NLMovingStateLatencyExplodes(t *testing.T) {
	cfg := tiny()
	rows, err := Figure10NL(cfg, 3, []int{24, 48}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// What Moving State's latency is made of: its eager recomputation of
	// nested-loops states grows superlinearly with the window (doubling
	// it multiplies the work by 6.4), while JISC does none before its
	// first output.
	small, large := rows[0], rows[1]
	if small.msWork != 1512 || large.msWork != 9696 {
		t.Errorf("Moving State migration work %d -> %d, want 1512 -> 9696", small.msWork, large.msWork)
	}
	if small.jiscWork != 0 || large.jiscWork != 0 {
		t.Errorf("JISC migration work %d, %d; want 0", small.jiscWork, large.jiscWork)
	}
}

func TestFigure11And12Run(t *testing.T) {
	cfg := tiny()
	cfg.Tuples = 2000
	rows, err := Figure11(cfg, 4, []int{500, 1000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Transitions < 2 {
			t.Errorf("period %d: only %d transitions", r.Period, r.Transitions)
		}
	}
	rows12, err := Figure12(cfg, 4, []int{1000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows12) != 1 {
		t.Fatalf("rows12 = %d", len(rows12))
	}
}

func TestPropositionTable(t *testing.T) {
	var buf bytes.Buffer
	rows := PropositionTable([]int{8, 64, 512}, 20000, 1, &buf)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if rel := abs(r.MeanMC-r.MeanExact) / r.MeanExact; rel > 0.05 {
			t.Errorf("n=%d: MC mean off by %.3f", r.N, rel)
		}
		if r.TailMC > r.TailBound+0.05 {
			t.Errorf("n=%d: tail %v above bound %v", r.N, r.TailMC, r.TailBound)
		}
	}
	// E[C_n]/n must increase toward 1.
	if !(rows[0].FracOfN < rows[2].FracOfN) {
		t.Errorf("concentration not improving: %+v", rows)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestStairsAblationLazyWins(t *testing.T) {
	cfg := tiny()
	cfg.Tuples = 3000
	rows, err := StairsAblation(cfg, 4, []int{600}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Eager <= 0 || r.Lazy <= 0 {
		t.Fatalf("timings: %+v", r)
	}
}

func TestProcedureAblationRuns(t *testing.T) {
	cfg := tiny()
	cfg.Tuples = 2000
	rows, err := ProcedureAblation(cfg, []int{4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Proc2 <= 0 || rows[0].Proc3 <= 0 {
		t.Fatalf("timings: %+v", rows[0])
	}
}

func TestBadConfigRejectedEverywhere(t *testing.T) {
	bad := Config{}
	if _, err := Figure7(bad, []int{3}, nil); err == nil {
		t.Error("Figure7 accepted bad config")
	}
	if _, err := Figure9(bad, 3, 2, nil); err == nil {
		t.Error("Figure9 accepted bad config")
	}
	if _, err := Figure10Hash(bad, 3, []int{10}, nil); err == nil {
		t.Error("Figure10 accepted bad config")
	}
	if _, err := Figure11(bad, 3, []int{10}, nil); err == nil {
		t.Error("Figure11 accepted bad config")
	}
	if _, err := StairsAblation(bad, 3, []int{10}, nil); err == nil {
		t.Error("StairsAblation accepted bad config")
	}
	if _, err := ProcedureAblation(bad, []int{3}, nil); err == nil {
		t.Error("ProcedureAblation accepted bad config")
	}
}

func TestSkewAblation(t *testing.T) {
	var buf bytes.Buffer
	// A domain much larger than the window keeps most keys cold, so
	// the uniform/zipf contrast in touched keys is visible; Zipf's
	// hot-key join blowup stays bounded at 3 joins.
	cfg := Config{Window: 60, Domain: 600, Tuples: 800, Seed: 1}
	rows, err := SkewAblation(cfg, 3, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Dist != "uniform" || rows[1].Dist != "zipf" {
		t.Fatalf("rows = %+v", rows)
	}
	// Skew shrinks the live key space, so lazy migration performs
	// fewer completions in absolute terms.
	if rows[1].Completions >= rows[0].Completions {
		t.Errorf("zipf completions %d not below uniform %d",
			rows[1].Completions, rows[0].Completions)
	}
	if _, err := SkewAblation(Config{}, 3, nil); err == nil {
		t.Error("bad config accepted")
	}
}

func TestMemoryAblation(t *testing.T) {
	var buf bytes.Buffer
	rows, err := MemoryAblation(tiny(), 4, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	byName := map[string]MemoryRow{}
	for _, r := range rows {
		byName[r.Strategy] = r
		if r.Steady == 0 || r.Peak == 0 {
			t.Fatalf("empty measurement: %+v", r)
		}
	}
	// §5: Parallel Track holds two plans' states; its peak overhead
	// must clearly exceed JISC's.
	if byName["parallel-track"].Overhead() <= byName["jisc"].Overhead() {
		t.Errorf("PT overhead %.2f not above JISC %.2f",
			byName["parallel-track"].Overhead(), byName["jisc"].Overhead())
	}
	if _, err := MemoryAblation(Config{}, 3, nil); err == nil {
		t.Error("bad config accepted")
	}
}

func TestTimeline(t *testing.T) {
	var buf bytes.Buffer
	// The Moving State stall is visible when the eager recomputation
	// (∝ joins × window) dwarfs a bucket's steady processing cost, so
	// use a large window and small buckets.
	cfg := Config{Window: 1000, Domain: 1000, Tuples: 2000, Seed: 1}
	rows, at, err := Timeline(cfg, 4, 7, 50, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Moving State's transition bucket must spike above its own
	// steady buckets (the halt).
	var steady time.Duration
	for i, r := range rows {
		if i != at {
			steady += r.MS
		}
	}
	steady /= time.Duration(len(rows) - 1)
	if rows[at].MS < steady {
		t.Errorf("Moving State transition bucket %v below steady %v", rows[at].MS, steady)
	}
	if _, _, err := Timeline(Config{}, 3, 5, 10, nil); err == nil {
		t.Error("bad config accepted")
	}
}

func TestOverlapAblation(t *testing.T) {
	cfg := tiny()
	cfg.Tuples = 3000
	// Period far below turnover (5 streams * 60 = 300) forces
	// overlapped migrations.
	rows, err := OverlapAblation(cfg, 4, []int{40}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].PeakTracks <= 2 {
		t.Errorf("peak tracks = %d, want > 2 (overlapped stacking)", rows[0].PeakTracks)
	}
	if _, err := OverlapAblation(Config{}, 3, []int{10}, nil); err == nil {
		t.Error("bad config accepted")
	}
}
