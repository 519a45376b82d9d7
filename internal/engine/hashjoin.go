package engine

import "jisc/internal/tuple"

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
// t's key, build each composite straight into j's rows where a later
// probe can read it (storesOutput), and recurse upward with the row's
// view — or, at a root that stores nothing, hand the whole probe to the
// sink (forward). Matches are lent as views of the opposite
// state's run, read in place: a probe allocates nothing per match.
func (hashJoinOp) Push(e *Engine, j, from *Node, t *tuple.Tuple) {
	opp := j.Opposite(from)
	e.strategy.BeforeProbe(e, j, opp, t)
	e.met.Probes++
	matches := opp.St.Probe(t.Key)
	n := matches.Len()
	opp.Probes++
	opp.Matches += uint64(n)
	if !e.storesOutput(j) {
		e.forward(t, matches, n)
		return
	}
	var m tuple.Tuple
	for i := range n {
		out := j.St.InsertJoin(t, matches.View(i, &m))
		e.met.Inserts++
		e.pushUp(j, out)
	}
}

// forward emits one probe's results at a root that does not store them
// (storesOutput): it counts them with one add and hands t and its
// matches to the sink in one call, lent for the call (Sink). Nothing is
// built here; whether a composite is built at all is the sink's affair.
// Without a sink — WAL replay, or no Output — the results are counted,
// and nothing is delivered.
func (e *Engine) forward(t *tuple.Tuple, matches tuple.Rows, n int) {
	if n == 0 {
		return
	}
	e.met.Output += uint64(n)
	if e.sink != nil {
		e.sink(false, t, matches)
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
