// Package engine implements the paper's execution model (§2.1): a
// push-based pipeline of binary tree-structured operators — stream
// scans at the leaves, symmetric hash joins (or nested-loops joins for
// theta queries, or set-differences) at internal nodes — with sliding
// windows over tuple counts or arrival ticks, bottom-up eviction
// propagation, and a pluggable migration strategy that decides what
// happens to operator states when the plan changes at runtime.
//
// The engine is deterministic and single-threaded: Feed processes one
// input tuple to completion before returning and nothing depends on map
// order, which makes the equivalence tests and the work-counter gates
// exact. The §4.1 input buffer is package runtime's shard queue, which
// is also the concurrent sharded harness around it.
//
// File layout (the runtime layer, see DESIGN.md):
//
//	engine.go     Engine struct, construction, the feed hot path
//	config.go     Config
//	operator.go   Kind, Node, the Operator interface, Executor
//	hashjoin.go   symmetric hash join operator
//	nljoin.go     nested-loops theta join operator
//	setdiff.go    streaming set-difference operator
//	install.go    plan → operator tree construction, state store
//	transition.go Migrate
//	evict.go      bottom-up eviction propagation, §4.3 counters
//	static.go     the no-migration baseline strategy
//	view.go       the view the engine publishes for other goroutines
package engine

import (
	"fmt"
	"os"
	"slices"
	"time"

	"jisc/internal/metrics"
	"jisc/internal/obs"
	"jisc/internal/plan"
	"jisc/internal/state"
	"jisc/internal/statestore"
	"jisc/internal/tuple"
	"jisc/internal/window"
	"jisc/internal/workload"
)

// Strategy customizes how the engine behaves around plan transitions.
// Implementations: Static (no transitions), migrate.MovingState
// (eager), core.JISC (lazy, the paper's contribution).
//
// OnTransition runs after the engine has switched to the new plan; an
// error from it leaves the engine on the new plan with unfilled
// states, so strategies that refuse transitions outright should also
// implement TransitionRejector to be rejected before any state
// changes.
type Strategy interface {
	Name() string
	// OnTransition runs with the new operator tree built and surviving
	// states re-attached. The engine has already marked states absent
	// from the old plan incomplete; the strategy decides how/when they
	// get filled.
	OnTransition(e *Engine) error
	// BeforeProbe runs when t, pushed up from child `from`, is about
	// to probe the state of the opposite child `opp` at join j. JISC
	// completes missing entries here; eager strategies do nothing.
	BeforeProbe(e *Engine, j, opp *Node, t *tuple.Tuple)
	// EvictContinue reports whether eviction propagation must proceed
	// past join j although no stored entry matched (§4.2: removals
	// continue through incomplete states).
	EvictContinue(e *Engine, j *Node, key tuple.Value) bool
}

// Engine executes one continuous query.
type Engine struct {
	cfg  Config
	plan *plan.Plan
	root *Node
	// streams is the per-stream feed state, indexed by StreamID (dense
	// from zero, fixed across migrations); a slot whose stream the plan
	// does not scan is zero.
	streams []streamState
	// states is the state store: one table per live stream set.
	// Surviving a transition means staying in this map.
	states map[tuple.StreamSet]*state.Table
	// store is the spill tier of the states, nil unless Config.StateBudget
	// is positive. Every table attaches to it on creation; a
	// nested-loops state only accounts (its scan has no bucket
	// granularity to spill at).
	store *statestore.Store

	strategy Strategy
	// sink is where every root result goes: Config.Sink, or the
	// Config.Output adapter, or nil when there is neither.
	sink Sink
	met  metrics.Snapshot
	pub  View // what publish last wrote
	obs  *obs.Recorder
	now  func() time.Time
	// sysClock is set when now is time.Now, so a span closes on one
	// monotonic read (Since).
	sysClock bool
	// base is the arriving tuple, lent up the tree while it is
	// processed, and baseSeq its one seq (a set-difference's expired
	// outer tuple borrows both while the window slides); retracted
	// holds the rows a storing root just removed and view is the
	// scratch a stored row travels up in (each retracted row, a
	// set-difference's moved and requalified rows); keys is the
	// scratch a nested-loops state's keys are listed into on eviction,
	// armKeys the one a completion counter's side is listed into when
	// it is armed, and have the refs a set-difference state holds under
	// a requalifying key.
	base      tuple.Tuple
	baseSeq   [1]uint64
	retracted tuple.Rows
	view      tuple.Tuple
	keys      []tuple.Value
	armKeys   []tuple.Value
	have      map[tuple.Ref]struct{}

	// tick is the global arrival counter.
	tick uint64
}

// streamState is what the engine keeps per input stream.
type streamState struct {
	scan   *Node // the stream's leaf in the current operator tree
	window *window.Window
	seq    uint64 // of the stream's newest tuple
}

// stream returns id's feed state; a stream outside the plan is a
// caller bug (the network boundary checks membership first).
func (e *Engine) stream(id tuple.StreamID) *streamState {
	if int(id) >= len(e.streams) || e.streams[id].scan == nil {
		panic(fmt.Sprintf("engine: tuple for unknown stream %d", id))
	}
	return &e.streams[id]
}

// New builds an engine for cfg.
func New(cfg Config) (*Engine, error) {
	if cfg.Plan == nil {
		return nil, fmt.Errorf("engine: nil plan")
	}
	if cfg.WindowSize == 0 {
		cfg.WindowSize = 10000
	}
	if cfg.WindowSize < 0 {
		return nil, fmt.Errorf("engine: negative window size %d", cfg.WindowSize)
	}
	needsTheta := cfg.Kind == NLJoin || cfg.ThetaNodes != nil
	if needsTheta && cfg.Theta == nil {
		return nil, fmt.Errorf("engine: nested-loops nodes require a Theta predicate")
	}
	if !needsTheta && cfg.Theta != nil {
		return nil, fmt.Errorf("engine: Theta predicate given for %v without ThetaNodes", cfg.Kind)
	}
	if cfg.ThetaNodes != nil && cfg.Kind != HashJoin {
		return nil, fmt.Errorf("engine: ThetaNodes hybrid plans require Kind == HashJoin, got %v", cfg.Kind)
	}
	if cfg.Kind == SetDiff && !cfg.Plan.Root.IsLeftDeep() {
		return nil, fmt.Errorf("engine: set-difference pipelines must be left-deep, got %s", cfg.Plan)
	}
	if cfg.Output != nil && cfg.Sink != nil {
		return nil, fmt.Errorf("engine: Output adapts the one Sink; set one of them, not both")
	}
	if cfg.Strategy == nil {
		cfg.Strategy = Static{}
	}
	sysClock := cfg.Now == nil
	if sysClock {
		cfg.Now = time.Now
	}
	e := &Engine{
		cfg:      cfg,
		strategy: cfg.Strategy,
		obs:      cfg.Obs,
		now:      cfg.Now,
		sysClock: sysClock,
		states:   make(map[tuple.StreamSet]*state.Table),
		have:     make(map[tuple.Ref]struct{}),
		sink:     cfg.Sink,
	}
	if cfg.Output != nil {
		e.sink = cfg.Output.Sink()
	}
	if err := e.validateKinds(cfg.Plan); err != nil {
		return nil, err
	}
	ids := cfg.Plan.Streams.Streams()
	e.streams = make([]streamState, int(ids[len(ids)-1])+1)
	e.pub.scans = make([]scanView, len(e.streams))
	for _, id := range ids {
		span := cfg.TimeSpan
		if span == 0 {
			size := cfg.WindowSize
			if s, ok := cfg.WindowSizes[id]; ok {
				size = s
			}
			if size <= 0 {
				return nil, fmt.Errorf("engine: non-positive window size %d for stream %d", size, id)
			}
			span = uint64(size)
		}
		e.streams[id].window = window.New(id, span)
	}
	if cfg.StateBudget > 0 {
		opts := statestore.Options{
			Budget:       cfg.StateBudget,
			Dir:          cfg.SpillDir,
			FS:           cfg.SpillFS,
			SegmentBytes: cfg.SpillSegmentBytes,
		}
		if opts.Dir == "" {
			if opts.FS == nil {
				dir, err := os.MkdirTemp("", "jisc-spill-")
				if err != nil {
					return nil, fmt.Errorf("engine: spill dir: %w", err)
				}
				opts.Dir = dir
			} else {
				opts.Dir = "jisc-spill"
			}
		}
		if cfg.Obs != nil {
			opts.FaultLatency = &cfg.Obs.SpillFault
		}
		store, err := statestore.Open(opts)
		if err != nil {
			return nil, err
		}
		e.store = store
	}
	e.install(cfg.Plan, true)
	e.publish()
	return e, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Engine {
	e, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Name implements Executor.
func (e *Engine) Name() string { return "engine/" + e.strategy.Name() }

// Plan returns the currently executing plan.
func (e *Engine) Plan() *plan.Plan { return e.plan }

// Root returns the root operator.
func (e *Engine) Root() *Node { return e.root }

// Scan returns the scan node of stream id, nil when the plan has none.
func (e *Engine) Scan(id tuple.StreamID) *Node {
	if int(id) >= len(e.streams) {
		return nil
	}
	return e.streams[id].scan
}

// Tick returns the global arrival counter.
func (e *Engine) Tick() uint64 { return e.tick }

// Metrics implements Executor: the live counters, for the goroutine
// that feeds the engine. Another goroutine reads View().Metrics().
func (e *Engine) Metrics() metrics.Snapshot { return e.met }

// Collector exposes the live counters to strategies, which add to them
// with plain adds on the goroutine feeding the engine.
func (e *Engine) Collector() *metrics.Snapshot { return &e.met }

// Obs returns the engine's latency recorder, nil when instrumentation
// is off.
func (e *Engine) Obs() *obs.Recorder { return e.obs }

// Now reads the engine's clock (Config.Now, default time.Now) — the
// clock instrumentation and strategies must share so injected test
// clocks govern every recorded duration.
func (e *Engine) Now() time.Time { return e.now() }

// Since closes a span opened by Now: the time elapsed since start. On
// the default clock that is one monotonic read (time.Since) where a
// Now would read the wall clock too; an injected clock is read as Now
// reads it, so a test clock sees every read it saw before. A caller
// that needs the closing instant takes start.Add of the result.
func (e *Engine) Since(start time.Time) time.Duration {
	if e.sysClock {
		return time.Since(start)
	}
	return e.now().Sub(start)
}

// Kind returns the physical operator kind of internal nodes.
func (e *Engine) Kind() Kind { return e.cfg.Kind }

// Theta returns the theta predicate (NLJoin engines).
func (e *Engine) Theta() func(probe, stored *tuple.Tuple) bool { return e.cfg.Theta }

// SetSink replaces the engine's result sink (an Output's adapter
// included) and returns the one it replaced. The engine must be
// quiescent (no Feed in progress). The durability layer silences the
// sink while replaying the write-ahead log — those results were
// already emitted before the crash — and puts it back afterwards.
func (e *Engine) SetSink(s Sink) Sink {
	prev := e.sink
	e.sink = s
	return prev
}

// Close releases, when spilling is enabled, the spill tier's segment
// directory. The engine must not be fed afterwards.
func (e *Engine) Close() {
	if e.store != nil {
		e.store.Close()
	}
}

// SpillStats snapshots the tiered state store's counters; ok is false
// when spilling is off (Config.StateBudget ≤ 0). The counters are
// atomic: safe from any goroutine, concurrently with Feed.
func (e *Engine) SpillStats() (statestore.Stats, bool) {
	if e.store == nil {
		return statestore.Stats{}, false
	}
	return e.store.Stats(), true
}

// StateBytes returns the resident byte footprint of the engine's state
// (row and slot bytes, state.TupleBytes), summed over the plan's tables:
// with a state budget, the store's resident count. For the goroutine
// that feeds the engine; another goroutine reads View().StateBytes().
func (e *Engine) StateBytes() int64 { return treeBytes(e.root) }

// treeBytes sums the state bytes of n's subtree: a walk of a plan's few
// nodes costs publish less, every batch, than a range over e.states.
func treeBytes(n *Node) int64 {
	if n == nil {
		return 0
	}
	return n.St.Bytes() + treeBytes(n.Left) + treeBytes(n.Right)
}

// Feed implements Executor: a batch of one.
func (e *Engine) Feed(ev workload.Event) {
	evs := [1]workload.Event{ev}
	e.FeedBatch(evs[:])
}

// FeedBatch processes evs in arrival order, each tuple to completion
// before the next — same window slides, same eviction points, same
// counters as feeding them one call at a time — with the entry
// overhead paid once per call: a single obs sampling decision and at
// most one clock pair (recording the mean per-tuple latency), plus one
// batch-fill observation. Config.AfterFeed fires after every tuple, so
// a deterministic harness can interleave Migrate calls mid-batch.
func (e *Engine) FeedBatch(evs []workload.Event) {
	if len(evs) == 0 {
		return
	}
	var start time.Time
	timed := e.obs.SampleFeed()
	if timed {
		start = e.now()
	}
	for i := range evs {
		ev := evs[i]
		st := e.stream(ev.Stream)
		e.processCore(st, ev, st.seq+1, e.tick+1)
		if e.cfg.AfterFeed != nil {
			e.cfg.AfterFeed(e.tick)
		}
	}
	if timed {
		e.obs.Feed.Record(e.Since(start) / time.Duration(len(evs)))
	}
	e.obs.ObserveBatchFill(len(evs))
	e.publish()
}

// FeedStamped processes ev using caller-assigned identity: seq is the
// per-stream sequence number and tick the global arrival tick, both
// strictly increasing. It lets several plan instances agree on tuple
// identity (Parallel Track runs the same input through old and new
// plans and deduplicates by provenance). Latency sampling and
// Config.AfterFeed are FeedBatch's.
func (e *Engine) FeedStamped(ev workload.Event, seq, tick uint64) {
	e.processCore(e.stream(ev.Stream), ev, seq, tick)
}

// processCore is the per-tuple pipeline: window slide, eviction, scan
// insert, probe/build push-up.
func (e *Engine) processCore(st *streamState, ev workload.Event, seq, tick uint64) {
	scan := st.scan
	e.tick = tick
	e.met.Input++
	st.seq = seq

	// Slide the window first so the new tuple never joins expired ones.
	// A time window's clock is the global tick, so the arrival expires
	// every stream's window, not only its own: a quiet stream's tuples
	// leave on time (DESIGN.md §9).
	if e.cfg.TimeSpan > 0 {
		for i := range e.streams {
			if o := &e.streams[i]; o.window != nil {
				for _, expired := range o.window.Expire(tick) {
					e.evict(o.scan, expired)
				}
			}
		}
	}
	for _, expired := range st.window.Slide(tuple.Ref{Stream: ev.Stream, Seq: seq}, ev.Key, e.clock(seq)) {
		e.evict(scan, expired)
	}

	e.baseSeq[0] = seq
	e.base = tuple.Tuple{Key: ev.Key, Set: scan.Set, Seqs: e.baseSeq[:], Arrival: e.tick}
	scan.St.Insert(&e.base)
	e.met.Inserts++
	e.pushUp(scan, &e.base)
}

// clock is the windows' reading for a tuple with per-stream seq
// arriving now: the arrival tick under time windows, otherwise seq, so
// a count window of W keeps its stream's last W tuples.
func (e *Engine) clock(seq uint64) uint64 {
	if e.cfg.TimeSpan > 0 {
		return e.tick
	}
	return seq
}

// IterKeys returns st's distinct keys in ascending order for a
// strategy's eager fill or full completion pass, so insertion orders —
// and with them spill victims and fault counts — never depend on map
// order. The per-key completion path does not come through here.
func (e *Engine) IterKeys(st *state.Table) []tuple.Value {
	keys := st.Keys(nil)
	slices.Sort(keys)
	return keys
}

// pushUp delivers t (the freshly produced output of child) to child's
// parent operator, recursing upward; at the root it emits.
func (e *Engine) pushUp(child *Node, t *tuple.Tuple) {
	j := child.Parent
	if j == nil {
		e.emit(false, t)
		return
	}
	j.Op.Push(e, j, child, t)
}

// emit delivers a result or retraction of a root that stores its
// output (forward delivers the others'): t, a view of a stored row or
// the arriving tuple, with tuple.OneRow, lent to the sink for the call.
func (e *Engine) emit(retract bool, t *tuple.Tuple) {
	if !retract {
		e.met.Output++
	}
	if e.sink != nil {
		e.sink(retract, t, tuple.OneRow)
	}
}
