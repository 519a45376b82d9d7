package engine

import (
	"time"

	"jisc/internal/tuple"
)

// nlJoinOp processes tuples under nested-loops semantics: the opposite
// child's state is scanned whole and the configured theta predicate
// decides matches (§2.1). The strategy hook runs first so lazy
// migration can complete the opposite state before the scan.
type nlJoinOp struct{}

// Kind implements Operator.
func (nlJoinOp) Kind() Kind { return NLJoin }

// Push implements Operator: scan the opposite child's state, store each
// match's composite in j's state (InsertTheta) and recurse upward with
// the row's view.
func (nlJoinOp) Push(e *Engine, j, from *Node, t *tuple.Tuple) {
	opp := j.Opposite(from)
	e.strategy.BeforeProbe(e, j, opp, t)
	e.met.Probes++
	// The whole opposite-state scan is one probe for timing purposes:
	// that is the unit of work an arriving tuple pays at this operator.
	timed := e.obs.SampleProbe()
	var t0 time.Time
	if timed {
		t0 = e.now()
	}
	pred := e.cfg.Theta
	// The probe orientation matters to theta predicates: pred is
	// defined as pred(left-side tuple, right-side tuple) in plan
	// order, so flip the arguments when the probing tuple came from
	// the right child.
	fromLeft := j.Left == from
	opp.St.Each(func(m *tuple.Tuple) bool {
		e.met.Probes++
		var hit bool
		if fromLeft {
			hit = pred(t, m)
		} else {
			hit = pred(m, t)
		}
		if hit {
			out := j.InsertTheta(t, m)
			e.met.Inserts++
			e.pushUp(j, out)
		}
		return true
	})
	if timed {
		// Includes the matches' downstream processing — for a
		// nested-loops scan the two are inseparable without a clock
		// read per stored entry.
		e.obs.Probe.Record(e.Since(t0))
	}
}

// InsertTheta stores the theta composite of x and y in n's state and
// lends a view of it (state.Table.InsertJoin). The composite takes the
// key of its lowest stream's constituent, the stream First() names,
// whichever side holds it: the key is a function of the composite, so
// a nested-loops state holds the same rows whichever child is left and
// whichever constituent arrived last, and the state a strategy
// completes is the one normal processing builds (Definition 1). Theta
// predicates read that key. Equi composites need no such rule: their
// constituents share one key.
func (n *Node) InsertTheta(x, y *tuple.Tuple) *tuple.Tuple {
	if y.Set&-y.Set < x.Set&-x.Set {
		x, y = y, x
	}
	return n.St.InsertJoin(x, y)
}
