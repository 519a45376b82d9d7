// Package jisc is the public facade of the JISC reproduction: an
// adaptive stream-processing library implementing Just-In-Time State
// Completion (Aly, Aref, Ouzzani, Mahmoud — EDBT 2014) together with
// the plan-migration baselines the paper compares against.
//
// A continuous multi-way windowed join is declared as a plan over
// numbered streams and executed by an Engine; when the plan becomes
// suboptimal, Migrate transitions the running query to a new plan
// without halting it:
//
//	q, _ := jisc.NewQuery(jisc.QueryConfig{
//		Plan:       jisc.LeftDeep(0, 1, 2),
//		WindowSize: 10000,
//		Output:     func(d jisc.Delta) { fmt.Println(d.Tuple) },
//	})
//	q.Feed(jisc.Event{Stream: 0, Key: 42})
//	...
//	q.Migrate(jisc.LeftDeep(1, 2, 0)) // no halt, steady output
//
// The facade re-exports the pieces most applications need; advanced
// use (custom strategies, the eddy framework, the benchmark harness)
// imports the internal packages directly from examples and cmd/.
package jisc

import (
	"io"

	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/metrics"
	"jisc/internal/migrate"
	"jisc/internal/plan"
	"jisc/internal/runtime"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// Re-exported core types.
type (
	// Event is one input tuple: a stream number and a join key.
	Event = workload.Event
	// Delta is one output: a result tuple, possibly a retraction
	// (set-difference queries, or join queries with EmitExpiry). A join
	// query without EmitExpiry only lends Delta.Tuple to the Output
	// callback: it is valid until the callback returns and is then
	// overwritten by the next result, so a callback that keeps results
	// keeps d.Tuple.Clone().
	Delta = engine.Delta
	// Tuple is a base or composite result tuple.
	Tuple = tuple.Tuple
	// StreamID numbers the input streams from zero.
	StreamID = tuple.StreamID
	// Value is the join-attribute domain.
	Value = tuple.Value
	// Plan is a validated query execution plan.
	Plan = plan.Plan
	// Snapshot is an immutable metrics view.
	Snapshot = metrics.Snapshot
)

// Strategy selects how a running query migrates between plans.
type Strategy int

const (
	// JISC performs lazy just-in-time state completion (the paper's
	// contribution): no halt, steady output, work on demand.
	JISC Strategy = iota
	// MovingState halts the query at each transition and recomputes
	// every missing state eagerly (§3.2).
	MovingState
	// Static forbids migration: a plain symmetric-hash-join pipeline.
	Static
)

// LeftDeep builds the left-deep plan ((s0⋈s1)⋈s2)… and panics on
// invalid input; use plan.LeftDeep for error returns.
func LeftDeep(order ...StreamID) *Plan { return plan.MustLeftDeep(order...) }

// QueryConfig configures a Query.
type QueryConfig struct {
	// Plan is the initial execution plan (see LeftDeep).
	Plan *Plan
	// WindowSize is the per-stream sliding window in tuples
	// (default 10_000).
	WindowSize int
	// Strategy selects the migration behavior (default JISC).
	Strategy Strategy
	// EmitExpiry emits a retraction Delta when a window slide removes
	// a previously emitted join result, turning the output into a
	// revision stream (always on for set-difference queries).
	EmitExpiry bool
	// Output receives root results; may be nil. It must not retain
	// Delta.Tuple past its return (see Delta).
	Output func(Delta)
}

// Query is a running continuous query. It is not safe for concurrent
// use; wrap it in an AsyncQuery for goroutine-safe feeding.
type Query struct {
	eng *engine.Engine
}

// NewQuery builds and starts a query.
func NewQuery(cfg QueryConfig) (*Query, error) {
	eng, err := engine.New(engine.Config{
		Plan:       cfg.Plan,
		WindowSize: cfg.WindowSize,
		Strategy:   strategyOf(cfg.Strategy),
		EmitExpiry: cfg.EmitExpiry,
		Output:     engine.Output(cfg.Output),
	})
	if err != nil {
		return nil, err
	}
	return &Query{eng: eng}, nil
}

func strategyOf(s Strategy) engine.Strategy {
	switch s {
	case MovingState:
		return migrate.MovingState{}
	case Static:
		return engine.Static{}
	default:
		return core.New()
	}
}

// NewSetDiffQuery builds a streaming set-difference query (§4.7): the
// plan must be a left-deep chain whose first stream is the outer; the
// query emits the outer tuples matching nothing in any inner stream,
// with retraction Deltas when a new inner tuple suppresses previously
// emitted results.
func NewSetDiffQuery(cfg QueryConfig) (*Query, error) {
	eng, err := engine.New(engine.Config{
		Plan:       cfg.Plan,
		WindowSize: cfg.WindowSize,
		Kind:       engine.SetDiff,
		Strategy:   strategyOf(cfg.Strategy),
		Output:     engine.Output(cfg.Output),
	})
	if err != nil {
		return nil, err
	}
	return &Query{eng: eng}, nil
}

// Feed processes one input tuple to completion.
func (q *Query) Feed(ev Event) { q.eng.Feed(ev) }

// Migrate transitions the query to a new plan over the same streams.
func (q *Query) Migrate(p *Plan) error { return q.eng.Migrate(p) }

// Metrics returns a snapshot of the query's counters.
func (q *Query) Metrics() Snapshot { return q.eng.Metrics() }

// Plan returns the currently executing plan.
func (q *Query) Plan() *Plan { return q.eng.Plan() }

// Checkpoint serializes the query's full execution state — plan,
// windows, operator states, and any in-flight lazy-migration metadata
// — so it can resume later via RestoreQuery.
func (q *Query) Checkpoint(w io.Writer) error { return q.eng.Checkpoint(w) }

// RestoreQuery resumes a query from a Checkpoint. cfg supplies the
// non-serializable parts (Strategy, Output) and EmitExpiry; its Plan is
// ignored. A checkpoint holds the results a window slide would retract
// only when it was taken with EmitExpiry: restoring one taken without
// it into an EmitExpiry query is an error, the other direction drops
// them.
func RestoreQuery(r io.Reader, cfg QueryConfig) (*Query, error) {
	eng, err := engine.Restore(r, engine.Config{
		WindowSize: cfg.WindowSize,
		Strategy:   strategyOf(cfg.Strategy),
		EmitExpiry: cfg.EmitExpiry,
		Output:     engine.Output(cfg.Output),
	})
	if err != nil {
		return nil, err
	}
	return &Query{eng: eng}, nil
}

// AsyncQuery runs a query on a dedicated goroutine with a buffered
// input queue (a one-shard runtime); all methods are safe for
// concurrent use.
type AsyncQuery struct {
	r *runtime.Runtime
}

// NewAsyncQuery builds and starts an asynchronous query. queueSize
// bounds the input buffer (0 = default 1024).
func NewAsyncQuery(cfg QueryConfig, queueSize int) (*AsyncQuery, error) {
	r, err := runtime.New(runtime.Config{
		Engine: engine.Config{
			Plan:       cfg.Plan,
			WindowSize: cfg.WindowSize,
			Strategy:   strategyOf(cfg.Strategy),
			Output:     engine.Output(cfg.Output),
		},
		QueueSize: queueSize,
	})
	if err != nil {
		return nil, err
	}
	return &AsyncQuery{r: r}, nil
}

// Feed enqueues one tuple; it blocks while the input queue is full.
func (q *AsyncQuery) Feed(ev Event) error { return q.r.Feed(ev) }

// Migrate submits a transition in-band and waits for it to apply.
func (q *AsyncQuery) Migrate(p *Plan) error { return q.r.Migrate(p) }

// Flush waits until everything enqueued so far has been processed.
func (q *AsyncQuery) Flush() error { return q.r.Flush() }

// Metrics snapshots the counters after all enqueued work.
func (q *AsyncQuery) Metrics() (Snapshot, error) { return q.r.Metrics() }

// Close drains and stops the query.
func (q *AsyncQuery) Close() { q.r.Close() }
