package engine

import (
	"time"

	"jisc/internal/tuple"
)

// hashJoinOp implements Procedure 1 for symmetric hash join. Note one
// deliberate deviation from the paper's pseudo-code: completion runs
// whenever a key's first probe reaches an incomplete state, not only when
// the probe finds nothing. An incomplete state can contain post-transition
// entries for the probed key (inserted by normal processing of newer
// tuples) while its pre-transition entries are still missing; probing
// those partial entries without completing first would lose results.
// The paper's prose ("a new tuple from R causes a probe to the
// incomplete State UTS, which triggers a state completion") and its
// Theorem 1 both require the complete-before-probe order.
type hashJoinOp struct{}

// Kind implements Operator.
func (hashJoinOp) Kind() Kind { return HashJoin }

// Push implements Operator: probe the opposite child's hash state with
// t's key, build composites through the engine's scratch builder, store
// them where a later probe can read them (storesOutput), and recurse
// upward. With instrumentation on, one in obs.sampleEvery probes is
// timed (probe and build separately) — sampling keeps the two extra
// clock reads off most of the hot path.
func (hashJoinOp) Push(e *Engine, j, from *Node, t *tuple.Tuple) {
	opp := j.Opposite(from)
	e.strategy.BeforeProbe(e, j, opp, t)
	e.met.Probes.Add(1)
	timed := e.obs.SampleProbe()
	var t0, t1 time.Time
	if timed {
		t0 = e.now()
	}
	matches := opp.St.Probe(t.Key)
	if timed {
		t1 = e.now()
		e.recordProbe(opp, t1.Sub(t0))
	}
	opp.Probes++
	opp.Matches += uint64(len(matches))
	if !e.storesOutput(j) {
		e.forward(t, matches, timed, t1)
		return
	}
	for i, m := range matches {
		out := e.bld.Join(t, m)
		j.St.Insert(out)
		e.met.Inserts.Add(1)
		if timed && i == 0 {
			// Time only the first build of a timed probe, reusing the
			// probe-end clock read as the build start: one extra read
			// per sample instead of two per match.
			e.obs.Build.Record(e.now().Sub(t1))
		}
		e.pushUp(j, out)
	}
}

// forward emits one probe's results at a root that does not store them
// (storesOutput). Only the output callback reads such a result, so each
// is built into the builder's one transient composite and overwritten
// by the next (Delta has the rule), and the probe is counted with one
// add. Without a callback — WAL replay — nothing is built at all.
func (e *Engine) forward(t *tuple.Tuple, matches []*tuple.Tuple, timed bool, probed time.Time) {
	if len(matches) == 0 {
		return
	}
	e.met.MarkOutputsAt(uint64(len(matches)), e.now)
	if e.out == nil {
		return
	}
	for i, m := range matches {
		out := e.bld.JoinTransient(t, m)
		if timed && i == 0 {
			e.obs.Build.Record(e.now().Sub(probed)) // as in Push
		}
		e.out(Delta{Tuple: out})
	}
}

// storesOutput reports whether join node j materialises its output
// state. A state exists to be probed by the join above it or reused by
// a later plan (§2.1, Definition 1). A hash root's has neither reader:
// it has no parent, and its stream set — all of them — exists in every
// plan, so it is never incomplete and never adopted elsewhere. Only
// EmitExpiry reads it, to find the results a window slide retracts;
// without that the root's output is emitted, not stored, and its table
// stays allocated but empty (n.St != nil still means "hash node").
// Set-difference and nested-loops roots keep their state.
func (e *Engine) storesOutput(j *Node) bool {
	return j.Parent != nil || j.Kind != HashJoin || e.cfg.EmitExpiry
}

// recordProbe folds one timed probe of n's state into the engine-wide
// probe histogram and n's per-operator accumulators.
func (e *Engine) recordProbe(n *Node, d time.Duration) {
	e.obs.Probe.Record(d)
	if d > 0 {
		n.ProbeNanos += uint64(d)
	}
	n.ProbeSamples++
}
