// Package eddy implements CACQ, the eddy-based execution framework
// the paper discusses as related work: stateless SteMs (§3.1) with
// lottery or fixed-order routing. STAIRs (§3.2, §4.6) need no eddy of
// their own: a STAIR is a prefix state of a left-deep plan, which the
// engine promotes eagerly under Moving State and lazily under JISC.
// An eddy routes every tuple through the remaining operators
// according to the current routing order; each hop is an eddy visit
// (the per-tuple overhead CACQ pays, Figure 9b).
package eddy

import (
	"fmt"

	"jisc/internal/engine"
	"jisc/internal/metrics"
	"jisc/internal/plan"
	"jisc/internal/state"
	"jisc/internal/tuple"
	"jisc/internal/window"
	"jisc/internal/workload"
)

// CACQ executes a multi-way equi-join with one SteM (State Module)
// per stream and no intermediate state (§3.1). An arriving tuple is
// inserted into its stream's SteM and then joined across the SteMs of
// all other streams in routing order, re-entering the eddy after each
// hop; a tuple's progress is tracked by its stream-set bitvector.
// Plan transitions cost nothing — the routing order just changes —
// but every input recomputes all intermediate results from scratch.
//
// The equivalence tests hold CACQ, like every strategy, to
// enginetest.Reference: it shares the window code with the engine, so
// it cannot referee it.
type CACQ struct {
	order   []tuple.StreamID
	stems   map[tuple.StreamID]*state.Table
	windows map[tuple.StreamID]*window.Window
	seqs    map[tuple.StreamID]uint64
	tick    uint64
	streams tuple.StreamSet

	out func(*tuple.Tuple)
	met metrics.Snapshot
	// visits counts tuple passes through the eddy router: one per
	// dispatch-queue pop, the per-tuple overhead of Figure 9b.
	visits uint64

	// queue is the eddy's dispatch queue, reused across inputs.
	queue []*tuple.Tuple
	// lot holds the adaptive routing state under the Lottery policy.
	lot *lottery
}

// CACQConfig parameterizes a CACQ executor.
type CACQConfig struct {
	// Plan supplies the streams and the initial routing order (the
	// bottom-up order of a left-deep plan).
	Plan *plan.Plan
	// WindowSize is the per-stream window size (default 10_000).
	WindowSize int
	// Routing selects the policy: plan-derived FixedOrder (default)
	// or the adaptive Lottery.
	Routing Routing
	// Output receives result tuples; may be nil.
	Output func(*tuple.Tuple)
}

// NewCACQ builds the executor.
func NewCACQ(cfg CACQConfig) (*CACQ, error) {
	if cfg.Plan == nil {
		return nil, fmt.Errorf("cacq: nil plan")
	}
	order, err := cfg.Plan.Order()
	if err != nil {
		return nil, fmt.Errorf("cacq: routing requires a left-deep plan: %w", err)
	}
	if cfg.WindowSize == 0 {
		cfg.WindowSize = 10000
	}
	if cfg.WindowSize < 0 {
		return nil, fmt.Errorf("cacq: negative window size %d", cfg.WindowSize)
	}
	c := &CACQ{
		order:   order,
		stems:   make(map[tuple.StreamID]*state.Table),
		windows: make(map[tuple.StreamID]*window.Window),
		seqs:    make(map[tuple.StreamID]uint64),
		streams: cfg.Plan.Streams,
		out:     cfg.Output,
	}
	if cfg.Routing == Lottery {
		c.lot = newLottery(order)
	}
	for _, id := range order {
		c.stems[id] = state.NewTable(tuple.NewStreamSet(id))
		c.windows[id] = window.New(id, uint64(cfg.WindowSize))
	}
	return c, nil
}

// MustNewCACQ is NewCACQ but panics on error.
func MustNewCACQ(cfg CACQConfig) *CACQ {
	c, err := NewCACQ(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements engine.Executor.
func (c *CACQ) Name() string { return "cacq" }

// Metrics implements engine.Executor.
func (c *CACQ) Metrics() metrics.Snapshot { return c.met }

// EddyVisits returns how many tuple passes the eddy router has made.
func (c *CACQ) EddyVisits() uint64 { return c.visits }

// Feed implements engine.Executor. Tuple identity (per-stream
// sequence, global tick) follows the engine's, so outputs are
// comparable across executors.
func (c *CACQ) Feed(ev workload.Event) {
	c.tick++
	tick, seq := c.tick, c.seqs[ev.Stream]+1
	c.seqs[ev.Stream] = seq
	c.met.Input++

	// Slide the window: expired tuples leave only the SteM — CACQ has
	// no intermediate state to clean, its advantage on eviction.
	ref := tuple.Ref{Stream: ev.Stream, Seq: seq}
	for _, exp := range c.windows[ev.Stream].Slide(ref, ev.Key, seq) {
		c.stems[ev.Stream].RemoveRef(exp.Key, exp.Ref, nil)
		c.met.Evictions++
	}

	t := tuple.NewBase(ev.Stream, seq, ev.Key, tick)
	c.stems[ev.Stream].Insert(t)
	c.met.Inserts++

	// The eddy's dispatch loop: tuples (base and intermediate) queue
	// up at the eddy, which pops each one, consults the routing policy
	// against the tuple's done-bitvector (its stream set), and sends
	// it to the next SteM; join results re-enter the eddy. This
	// re-dispatch per hop is CACQ's per-tuple overhead (§3.1,
	// Figure 9b).
	c.queue = append(c.queue[:0], t)
	for len(c.queue) > 0 {
		u := c.queue[len(c.queue)-1]
		c.queue = c.queue[:len(c.queue)-1]
		c.visits++
		// Routing decision: the next unvisited SteM — first in routing
		// order, or the best filter under the lottery policy.
		var next tuple.StreamID
		done := true
		if c.lot != nil {
			if id, ok := c.lot.next(c.order, u.Set); ok {
				next, done = id, false
			}
		} else {
			for _, s := range c.order {
				if !u.Set.Has(s) {
					next, done = s, false
					break
				}
			}
		}
		if done {
			c.met.Output++
			if c.out != nil {
				c.out(u)
			}
			continue
		}
		c.met.Probes++
		matches := c.stems[next].Probe(u.Key)
		if c.lot != nil {
			c.lot.observe(next, matches.Len())
		}
		var m tuple.Tuple
		for i := range matches.Len() {
			c.queue = append(c.queue, tuple.Join(u, matches.View(i, &m)))
		}
	}
}

// Migrate implements engine.Executor: swap the routing order. No
// state moves, no halt (§3.1).
func (c *CACQ) Migrate(p *plan.Plan) error {
	if p.Streams != c.streams {
		return fmt.Errorf("cacq: new plan covers %v, old covers %v", p.Streams, c.streams)
	}
	order, err := p.Order()
	if err != nil {
		return fmt.Errorf("cacq: routing requires a left-deep plan: %w", err)
	}
	c.met.Transitions++
	c.order = order
	return nil
}

var _ engine.Executor = (*CACQ)(nil)
