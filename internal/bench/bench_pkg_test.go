package bench

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/metrics"
	"jisc/internal/migrate"
	"jisc/internal/plan"
	"jisc/internal/tuple"
	"jisc/internal/workload"
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
	rows, err := Figure8(tiny(), []int{3, 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].MigTuples == 0 {
		t.Fatalf("rows = %+v", rows)
	}
	// Worst case, in work: Parallel Track's double processing is what it
	// was in the best case (Figure 7), while JISC completes every
	// intermediate state and so materializes more entries than there.
	want := []struct{ ptWork, jiscEntries uint64 }{{13985, 24}, {34530, 165}}
	for i, r := range rows {
		if r.ptWork != want[i].ptWork || r.jiscEntries != want[i].jiscEntries {
			t.Errorf("joins=%d: Parallel Track migration work %d, JISC completed entries %d; want %d and %d",
				r.Joins, r.ptWork, r.jiscEntries, want[i].ptWork, want[i].jiscEntries)
		}
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
	// Moving State recomputes its incomplete states before the first
	// output, JISC recomputes nothing.
	for i, want := range []uint64{106, 189} {
		if r := rows[i]; r.msWork != want || r.jiscWork != 0 {
			t.Errorf("window %d: Moving State migration work %d, JISC %d; want %d and 0", r.Window, r.msWork, r.jiscWork, want)
		}
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

// haltClock wraps a strategy so that its OnTransition advances a fake
// clock by one second per unit of migration work done in it: the halt
// an eager strategy pays, in numbers a test can assert.
type haltClock struct {
	engine.Strategy
	clock *time.Time
}

func (h haltClock) OnTransition(e *engine.Engine) error {
	before := e.Metrics().MigrationWork
	err := h.Strategy.OnTransition(e)
	*h.clock = h.clock.Add(time.Duration(e.Metrics().MigrationWork-before) * time.Second)
	return err
}

// TestOutputLatencyWindow drives the figures' output-latency window on
// a fake clock. Moving State's latency is its Migrate halt (three
// entries of {1,2} recomputed: 3 s) plus the 2 ms of feeding until the
// first result; JISC's is the 2 ms alone, because its first result
// needs no recomputation — it completes the one key it probes on
// demand. Results after the first leave the window closed.
func TestOutputLatencyWindow(t *testing.T) {
	for _, c := range []struct {
		strategy engine.Strategy
		want     time.Duration
		work     uint64
	}{
		{migrate.MovingState{}, 3*time.Second + 2*time.Millisecond, 3},
		{core.New(), 2 * time.Millisecond, 0},
	} {
		var clock time.Time
		w := &outputWindow{now: func() time.Time { return clock }}
		e := engine.MustNew(engine.Config{
			Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 10,
			Strategy: haltClock{c.strategy, &clock},
			Output:   func(engine.Delta) { w.output() },
		})
		feed := func(s tuple.StreamID, k tuple.Value) { e.Feed(workload.Event{Stream: s, Key: k}) }
		for k := tuple.Value(1); k <= 3; k++ {
			feed(1, k)
			feed(2, k)
		}
		w.Executor = e
		if err := w.Migrate(plan.MustLeftDeep(1, 2, 0)); err != nil {
			t.Fatal(err)
		}
		clock = clock.Add(time.Millisecond)
		feed(0, 9) // no match: the window stays open
		clock = clock.Add(time.Millisecond)
		feed(0, 1) // the first result closes it
		clock = clock.Add(time.Second)
		feed(0, 2)
		name := c.strategy.Name()
		if w.closed != 1 || w.max != c.want {
			t.Errorf("%s: %d windows closed, latency %v; want 1 and %v", name, w.closed, w.max, c.want)
		}
		if m := e.Metrics(); m.Output != 2 || m.MigrationWork != c.work {
			t.Errorf("%s: %d results, migration work %d; want 2 and %d", name, m.Output, m.MigrationWork, c.work)
		}
	}
}

func TestFigure11And12Run(t *testing.T) {
	cfg := tiny()
	cfg.Tuples = 2000
	// Per period: transitions, Parallel Track's migration work and JISC's
	// completed entries. Parallel Track pays about the same for either
	// transition shape; JISC completes far fewer entries in the best case.
	type work struct {
		transitions         int
		ptWork, jiscEntries uint64
	}
	for _, c := range []struct {
		name string
		fig  func(Config, int, []int, io.Writer) ([]FrequencyRow, error)
		want []work
	}{
		{"Figure 11", Figure11, []work{{7, 177580, 459}, {3, 78775, 146}}},
		{"Figure 12", Figure12, []work{{7, 182799, 68}, {3, 78717, 41}}},
	} {
		rows, err := c.fig(cfg, 4, []int{500, 1000}, nil)
		if err != nil || len(rows) != len(c.want) {
			t.Fatalf("%s: %d rows, %v", c.name, len(rows), err)
		}
		for i, r := range rows {
			if got := (work{r.Transitions, r.ptWork, r.jiscEntries}); got != c.want[i] {
				t.Errorf("%s period %d: transitions, Parallel Track work, JISC entries = %+v, want %+v",
					c.name, r.Period, got, c.want[i])
			}
		}
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

// One worst-case routing change after 30,000 tuples over six streams:
// eager STAIRs promotes every entry at the transition, JISC-on-STAIRs
// only the entries later probes need.
func TestStairsAblationPromotionWork(t *testing.T) {
	cfg := Config{Window: 800, Domain: 800, Tuples: 60000, Seed: 99}
	rows, err := StairsAblation(cfg, 5, []int{30000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := rows[0]; r.eagerWork != 2892 || r.lazyWork != 1132 {
		t.Errorf("eager promotion work %d, lazy %d; want 2892 and 1132", r.eagerWork, r.lazyWork)
	}
}

// A row whose period is the whole input makes no transition, so it
// prints "-" for both latencies instead of a measured-looking 0s; a row
// with transitions prints a duration for each.
func TestStairsAblationPrintsNoLatencyWithoutTransition(t *testing.T) {
	cfg := tiny()
	var buf bytes.Buffer
	rows, err := StairsAblation(cfg, 3, []int{cfg.Tuples / 2, cfg.Tuples}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].transitions != 1 || rows[1].transitions != 0 {
		t.Fatalf("transitions %d and %d, want 1 and 0", rows[0].transitions, rows[1].transitions)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	latencies := func(i int) (string, string) {
		f := strings.Fields(lines[len(lines)-len(rows)+i])
		return f[4], f[5]
	}
	if eager, lazy := latencies(0); !isDuration(eager) || !isDuration(lazy) {
		t.Errorf("period %d prints latencies %q and %q, want two durations", rows[0].Period, eager, lazy)
	}
	if eager, lazy := latencies(1); eager != "-" || lazy != "-" {
		t.Errorf("period %d prints latencies %q and %q, want - and -", rows[1].Period, eager, lazy)
	}
}

// Procedure 3 is Procedure 2's left-deep fast path: the same stage
// completes, probes and emits exactly the same under either.
func TestProcedureAblationSameWork(t *testing.T) {
	cfg := tiny()
	cfg.Tuples = 2000
	rows, err := ProcedureAblation(cfg, []int{4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []metrics.Snapshot{rows[0].proc3, rows[0].proc2} {
		if m.Completions != 169 || m.CompletedEntries != 76 || m.Probes != 6098 || m.Output != 2215 {
			t.Errorf("completions %d, completed entries %d, probes %d, outputs %d; want 169, 76, 6098 and 2215 for both procedures",
				m.Completions, m.CompletedEntries, m.Probes, m.Output)
		}
	}
}

func isDuration(s string) bool {
	_, err := time.ParseDuration(s)
	return err == nil
}

func errOf[T any](_ T, err error) error { return err }

func TestBadConfigRejectedEverywhere(t *testing.T) {
	bad, good := Config{}, tiny()
	_, _, timelineErr := Timeline(good, 3, 5, 0, nil)
	for _, c := range []struct {
		name string
		err  error
	}{
		{"Figure7 config", errOf(Figure7(bad, []int{3}, nil))},
		{"Figure9 config", errOf(Figure9(bad, 3, 2, nil))},
		{"Figure10Hash config", errOf(Figure10Hash(bad, 3, []int{10}, nil))},
		{"Figure11 config", errOf(Figure11(bad, 3, []int{10}, nil))},
		{"StairsAblation config", errOf(StairsAblation(bad, 3, []int{10}, nil))},
		{"ProcedureAblation config", errOf(ProcedureAblation(bad, []int{3}, nil))},
		{"Figure10Hash window", errOf(Figure10Hash(good, 3, []int{10, 0}, nil))},
		{"Figure10NL window", errOf(Figure10NL(good, 3, []int{-1}, nil))},
		{"Figure11 period", errOf(Figure11(good, 3, []int{0}, nil))},
		{"Figure12 period", errOf(Figure12(good, 3, []int{0}, nil))},
		{"StairsAblation period", errOf(StairsAblation(good, 3, []int{0}, nil))},
		{"OverlapAblation period", errOf(OverlapAblation(good, 3, []int{0}, nil))},
		{"Timeline bucket", timelineErr},
	} {
		if c.err == nil {
			t.Errorf("%s: accepted", c.name)
		}
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
	// §5: Parallel Track holds two plans' states at once, while JISC and
	// Moving State never hold more than one plan's.
	want := []MemoryRow{{"jisc", 500, 476}, {"moving-state", 500, 476}, {"parallel-track", 500, 853}}
	if len(rows) != len(want) {
		t.Fatalf("rows = %+v", rows)
	}
	for i, r := range rows {
		if r != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, r, want[i])
		}
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
	if len(rows) != 7 || at != 3 {
		t.Fatalf("rows = %d, transition at %d", len(rows), at)
	}
	// The stall in work rather than time: Moving State recomputes its
	// new states eagerly in the transition bucket and does nothing after,
	// JISC does no eager work at all and completes entries key by key
	// from the transition on, and Parallel Track pays for its discard
	// checks bucket after bucket. Seed-deterministic, so exact.
	want := []struct{ jisc, ms, pt laneWork }{
		{}, {}, {},
		{laneWork{0, 54}, laneWork{3195, 0}, laneWork{8065, 0}},
		{laneWork{0, 29}, laneWork{}, laneWork{50, 0}},
		{laneWork{0, 90}, laneWork{}, laneWork{8026, 0}},
		{laneWork{0, 58}, laneWork{}, laneWork{50, 0}},
	}
	for i, r := range rows {
		if w := want[i]; r.jisc != w.jisc || r.ms != w.ms || r.pt != w.pt {
			t.Errorf("bucket %d: JISC %+v, Moving State %+v, Parallel Track %+v; want %+v, %+v and %+v",
				i, r.jisc, r.ms, r.pt, w.jisc, w.ms, w.pt)
		}
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
	if rows[0].PeakTracks != 9 {
		t.Errorf("peak tracks = %d, want 9 (overlapped stacking)", rows[0].PeakTracks)
	}
	if _, err := OverlapAblation(Config{}, 3, []int{10}, nil); err == nil {
		t.Error("bad config accepted")
	}
}
