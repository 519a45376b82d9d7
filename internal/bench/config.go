// Package bench reproduces the paper's experimental study (§6): one
// driver per figure, each printing the same rows/series the paper
// reports. Absolute numbers differ from the paper's 2014 Java/Core2
// testbed; the shapes — who wins, by roughly what factor, where the
// crossovers fall — are the reproduction target (see EXPERIMENTS.md).
//
// The paper processes 10M tuples over windows of 10,000; the default
// Config scales this down so the full suite runs in seconds. Pass
// paper-scale values through cmd/jiscbench for full-size runs.
package bench

import (
	"fmt"
	"io"
	"time"

	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// Config scales the experiments.
type Config struct {
	// Window is the per-stream sliding window size (paper: 10_000).
	Window int
	// Domain is the number of distinct join keys. Window == Domain
	// yields ≈1 expected match per probe per level, keeping
	// intermediate state sizes near the window size.
	Domain int64
	// Tuples is the per-measurement input size (paper: 10M).
	Tuples int
	// Seed fixes the workload.
	Seed int64
	// PTCheckEvery overrides the Parallel Track discard-scan period
	// (tuples between scans). Zero means Window/10, the paper-scale
	// ratio. The PT-vs-JISC gap is sensitive to this knob — see
	// EXPERIMENTS.md.
	PTCheckEvery int
	// Reps repeats each timing-sensitive measurement and reports the
	// median (latency) or minimum (throughput), damping scheduler
	// noise. Zero means 1.
	Reps int
}

// reps returns the repetition count, at least 1.
func (c Config) reps() int {
	if c.Reps > 0 {
		return c.Reps
	}
	return 1
}

// DefaultConfig returns the scaled-down defaults used by the test
// suite and the benchmarks.
func DefaultConfig() Config {
	return Config{Window: 500, Domain: 500, Tuples: 30000, Seed: 1}
}

// PaperConfig returns the paper's experiment scale. Full runs take
// hours, as they did in the paper.
func PaperConfig() Config {
	return Config{Window: 10000, Domain: 10000, Tuples: 10000000, Seed: 1}
}

func (c Config) validate() error {
	if c.Window <= 0 || c.Domain <= 0 || c.Tuples <= 0 {
		return fmt.Errorf("bench: Window, Domain, Tuples must be positive: %+v", c)
	}
	return nil
}

// positive rejects a driver argument — a transition period, a window
// or a bucket size — that is not positive.
func positive(what string, vs ...int) error {
	for _, v := range vs {
		if v <= 0 {
			return fmt.Errorf("bench: %s must be positive, got %d", what, v)
		}
	}
	return nil
}

// orderOf returns the identity order 0..streams-1.
func orderOf(streams int) []tuple.StreamID {
	order := make([]tuple.StreamID, streams)
	for i := range order {
		order[i] = tuple.StreamID(i)
	}
	return order
}

// initialPlan builds the left-deep plan over streams streams.
func initialPlan(streams int) *plan.Plan {
	return plan.MustLeftDeep(orderOf(streams)...)
}

// bestCaseSwap returns the transition target with exactly one
// incomplete state (the Figure 5 shape: the two streams just below
// the root exchange positions).
func bestCaseSwap(p *plan.Plan) *plan.Plan {
	order, err := p.Order()
	if err != nil {
		panic(err)
	}
	n := len(order) - 1
	q, err := p.Swap(n-1, n)
	if err != nil {
		panic(err)
	}
	return q
}

// worstCaseSwap returns the transition target where every
// intermediate state of the new plan is incomplete (the bottom inner
// stream exchanges with the top stream).
func worstCaseSwap(p *plan.Plan) *plan.Plan {
	order, err := p.Order()
	if err != nil {
		panic(err)
	}
	q, err := p.Swap(1, len(order)-1)
	if err != nil {
		panic(err)
	}
	return q
}

// source builds the uniform round-robin workload of §6.
func (c Config) source(streams int) *workload.Source {
	return workload.MustNewSource(workload.Config{
		Streams: streams, Domain: c.Domain, Seed: c.Seed,
	})
}

// timeFeed feeds evs into x and returns the wall-clock duration.
func timeFeed(x engine.Executor, evs []workload.Event) time.Duration {
	start := time.Now()
	for _, ev := range evs {
		x.Feed(ev)
	}
	return time.Since(start)
}

// periodic feeds n tuples of a fresh source into x, which starts on
// the identity plan, and moves it to swap(running plan) every period
// tuples. after, if set, runs after each transition. It returns the
// wall-clock time and the transitions made.
func (c Config) periodic(x engine.Executor, streams, n, period int, swap func(*plan.Plan) *plan.Plan, after func()) (time.Duration, int, error) {
	src := c.source(streams)
	cur := initialPlan(streams)
	transitions := 0
	start := time.Now()
	for i := 0; i < n; i++ {
		if i > 0 && i%period == 0 {
			cur = swap(cur)
			if err := x.Migrate(cur); err != nil {
				return 0, 0, err
			}
			transitions++
			if after != nil {
				after()
			}
		}
		x.Feed(src.Next())
	}
	return time.Since(start), transitions, nil
}

// fprintf writes to w when non-nil.
func fprintf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}

// ptCheckEvery returns the Parallel Track discard-scan period used by
// the experiments: Config.PTCheckEvery if set, else one scan per tenth
// of a window (the paper-scale ratio: 10k windows, ~1k-tuple period).
func ptCheckEvery(c Config) int {
	if c.PTCheckEvery > 0 {
		return c.PTCheckEvery
	}
	if p := c.Window / 10; p > 0 {
		return p
	}
	return 1
}
