package engine

import (
	"time"

	"jisc/internal/tuple"
)

// nlJoinOp processes tuples under nested-loops semantics: the opposite
// child's list state is scanned in full and the configured theta
// predicate decides matches (§2.1). The strategy hook runs first so
// lazy migration can complete the opposite state for the probing tuple
// before the scan.
type nlJoinOp struct{}

// Kind implements Operator.
func (nlJoinOp) Kind() Kind { return NLJoin }

// Push implements Operator.
func (nlJoinOp) Push(e *Engine, j, from *Node, t *tuple.Tuple) {
	opp := j.Opposite(from)
	e.strategy.BeforeProbe(e, j, opp, t)
	e.met.Probes.Add(1)
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
	opp.EachEntry(func(m *tuple.Tuple) bool {
		e.met.Probes.Add(1)
		var hit bool
		if fromLeft {
			hit = pred(t, m)
		} else {
			hit = pred(m, t)
		}
		if hit {
			out := e.bld.JoinTheta(t, m)
			j.Ls.Insert(out)
			e.met.Inserts.Add(1)
			e.pushUp(j, out)
		}
		return true
	})
	if timed {
		// Includes the matches' downstream processing — for a
		// nested-loops scan the two are inseparable without a clock
		// read per stored entry, and the optimizer's left-deep cost
		// model never reads nested-loops nodes anyway.
		e.recordProbe(opp, e.now().Sub(t0))
	}
}
