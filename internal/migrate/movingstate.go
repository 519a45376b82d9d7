// Package migrate implements the two baseline plan-migration
// strategies the paper compares JISC against: the Moving State
// Strategy (§3.2 — halt the query and compute every missing state
// eagerly at transition time) and the Parallel Track Strategy (§3.3 —
// run the old and new plans simultaneously until the old plan's
// states contain only post-transition entries, with duplicate
// elimination at the root).
package migrate

import (
	"jisc/internal/engine"
	"jisc/internal/tuple"
)

// MovingState is the eager migration strategy of §3.2: when a
// transition is triggered, execution halts and every state of the new
// plan that did not exist in the old plan is recomputed bottom-up from
// its children before processing resumes. Output latency during the
// halt is the strategy's weakness (Figure 10); total work is close to
// JISC's (§5.1.1).
type MovingState struct{}

// Name implements engine.Strategy.
func (MovingState) Name() string { return "moving-state" }

// OnTransition implements engine.Strategy: fill every incomplete state
// bottom-up and mark it complete. The engine is single-threaded, so
// the time this call takes is exactly the halt the paper describes —
// Figure 10's output-latency window opens before Migrate and so
// contains it.
func (MovingState) OnTransition(e *engine.Engine) error {
	for _, n := range e.Nodes() {
		if n.St.Complete() { // as every scan state is
			continue
		}
		switch n.Kind {
		case engine.SetDiff:
			fillDiff(e, n)
		case engine.NLJoin:
			fillNL(e, n)
		default:
			fillJoin(e, n)
		}
		n.St.MarkComplete()
	}
	return nil
}

// fillJoin recomputes a hash-join state in full as the cross join of
// its children's states per key. Children precede parents in
// e.Nodes(), so child states are already complete here.
func fillJoin(e *engine.Engine, n *engine.Node) {
	met := e.Collector()
	// Iterate the side with fewer distinct keys; Join output is
	// orientation-independent (provenance is canonicalized).
	small, big := n.Left.St, n.Right.St
	if big.DistinctKeys() < small.DistinctKeys() {
		small, big = big, small
	}
	var l, r tuple.Tuple
	for _, key := range e.IterKeys(small) {
		ls, rs := small.Probe(key), big.Probe(key)
		for i := range ls.Len() {
			for j := range rs.Len() {
				n.St.InsertJoin(ls.View(i, &l), rs.View(j, &r))
				met.MigrationWork++
			}
		}
	}
}

// fillNL recomputes a nested-loops state in full. In hybrid plans the
// children may be hash-join nodes; either is scanned whole.
func fillNL(e *engine.Engine, n *engine.Node) {
	met := e.Collector()
	pred := e.Theta()
	n.Left.St.Each(func(l *tuple.Tuple) bool {
		n.Right.St.Each(func(r *tuple.Tuple) bool {
			met.MigrationWork++
			if pred(l, r) {
				n.InsertTheta(l, r)
			}
			return true
		})
		return true
	})
}

// fillDiff recomputes a set-difference state in full: the left child's
// passing tuples whose keys have no live inner match.
func fillDiff(e *engine.Engine, n *engine.Node) {
	met := e.Collector()
	for _, key := range e.IterKeys(n.Left.St) {
		met.MigrationWork++
		if n.Right.St.ContainsKey(key) {
			continue
		}
		rows := n.Left.St.Probe(key)
		var t tuple.Tuple
		for i := range rows.Len() {
			n.St.Insert(rows.View(i, &t))
			met.MigrationWork++
		}
	}
}

// BeforeProbe implements engine.Strategy (no-op: every state is
// complete after OnTransition).
func (MovingState) BeforeProbe(*engine.Engine, *engine.Node, *engine.Node, *tuple.Tuple) {}

// EvictContinue implements engine.Strategy (standard rule).
func (MovingState) EvictContinue(*engine.Engine, *engine.Node, tuple.Value) bool { return false }
