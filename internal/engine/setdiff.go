package engine

import (
	"time"

	"jisc/internal/tuple"
	"jisc/internal/window"
)

// Set-difference pipelines (§4.7). A left-deep chain (((A−B)−C)−D)
// streams the tuples of the outer stream A that match nothing in any
// inner stream. Each diff node's St holds its "passing" tuples: the
// left child's passing tuples with no live match in the node's inner
// (right) stream. Suppressed tuples are not stored — they remain
// visible in the left child's state and are re-derived on demand —
// which also makes a surviving state's content independent of the
// inner-stream order, so Definition 1's stream-set identity applies
// to diff states exactly as to join states.
//
// Semantics are key-level (one live inner tuple with key k suppresses
// every outer tuple with key k) and revision-based: suppression emits
// retractions at the root, requalification after the last inner
// k-tuple expires emits additions (the "possibly adding" direction of
// §2.1's removal tracing).
//
// Lazy migration: events that operate on whole key buckets (inner
// arrivals, last-key inner expiries) must materialize the key's
// entries in incomplete states first; the engine calls the strategy's
// DiffCompleter for that. Single-tuple additions and retractions apply
// directly — a later completion deduplicates by provenance ref.

// DiffCompleter is the optional Strategy extension for lazy migration
// of set-difference pipelines: materialize the entries of key at diff
// node j (recursively completing descendants), ignoring the in-flight
// tuple identified by exclude when haveExclude is true.
type DiffCompleter interface {
	BeforeDiffEvent(e *Engine, j *Node, key tuple.Value, exclude tuple.Ref, haveExclude bool)
}

// setDiffOp dispatches arriving tuples at diff nodes.
type setDiffOp struct{}

// Kind implements Operator.
func (setDiffOp) Kind() Kind { return SetDiff }

// Push implements Operator.
func (setDiffOp) Push(e *Engine, j, from *Node, t *tuple.Tuple) {
	if from == j.Right {
		e.diffInnerArrival(j, t)
		return
	}
	e.diffOuterAddition(j, t)
}

// diffOuterAddition handles a new left-child passing tuple at j: store
// and propagate it unless the inner stream suppresses its key.
func (e *Engine) diffOuterAddition(j *Node, t *tuple.Tuple) {
	e.met.Probes++
	timed := e.obs.SampleProbe()
	var t0 time.Time
	if timed {
		t0 = e.now()
	}
	suppressed := j.Right.St.ContainsKey(t.Key)
	if timed {
		e.obs.Probe.Record(e.Since(t0))
	}
	if suppressed {
		return // suppressed: stays visible only in the left child
	}
	j.St.Insert(t)
	e.met.Inserts++
	e.pushUp(j, t)
}

// diffInnerArrival handles a new inner-stream tuple b at j: every
// passing outer tuple with b's key becomes suppressed, retracting
// upward. If j's state is incomplete and the key unattempted, the
// strategy materializes the key's entries first — excluding b itself,
// so the books reflect the instant before this event and the moves
// below produce the right retractions.
func (e *Engine) diffInnerArrival(j *Node, b *tuple.Tuple) {
	e.met.Probes++
	e.materializeDiffKey(j, b.Key, b.First(), true)
	rows := j.St.RemoveKey(b.Key)
	for i := range rows.Len() {
		e.retractDiff(j, rows.View(i, &e.view))
	}
}

// materializeDiffKey invokes the strategy's DiffCompleter when j's
// state is incomplete and key unattempted.
func (e *Engine) materializeDiffKey(j *Node, key tuple.Value, exclude tuple.Ref, have bool) {
	if j.IsLeaf() || j.St.Complete() || j.St.Attempted(key) {
		return
	}
	if dc, ok := e.strategy.(DiffCompleter); ok {
		dc.BeforeDiffEvent(e, j, key, exclude, have)
	}
}

// retractDiff withdraws tuple t — which just stopped passing at node
// `below` — from every state above, stopping where it was suppressed.
// For keys never materialized in an incomplete state, the current
// inner scan decides whether t was passing there: keys stay
// unattempted only while no inner event for them occurs, so the scan's
// key membership is unchanged since the state was born.
func (e *Engine) retractDiff(below *Node, t *tuple.Tuple) {
	u := below.Parent
	if u == nil {
		e.emit(true, t)
		return
	}
	if u.St.RemoveRef(t.Key, t.First(), nil) > 0 {
		e.retractDiff(u, t)
		return
	}
	if !u.St.Complete() && !u.St.Attempted(t.Key) && !u.Right.St.ContainsKey(t.Key) {
		e.retractDiff(u, t)
	}
}

// setDiffEvict handles window expiry in a set-difference pipeline.
func (e *Engine) setDiffEvict(scan *Node, exp window.Entry) {
	e.met.Evictions++
	j := scan.Parent
	if j != nil && j.Right == scan {
		e.diffInnerExpiry(j, scan, exp)
		return
	}
	// Outer-stream expiry: remove from the scan state, then retract
	// from every diff node upward. The expired tuple is rebuilt in the
	// arriving tuple's scratch, which is free until the slide is done.
	scan.St.RemoveRef(exp.Key, exp.Ref, nil)
	e.baseSeq[0] = exp.Ref.Seq
	e.base = tuple.Tuple{Key: exp.Key, Set: scan.Set, Seqs: e.baseSeq[:]}
	e.retractDiff(scan, &e.base)
}

// diffInnerExpiry removes an expired inner tuple from the scan of j's
// inner stream. If it was the last inner tuple with its key, the outer
// tuples it suppressed requalify: they are re-derived from the left
// child's state (materializing it for the key if needed) and
// propagated upward as additions.
func (e *Engine) diffInnerExpiry(j, scan *Node, exp window.Entry) {
	last := scan.St.Probe(exp.Key).Len() == 1
	scan.St.RemoveRef(exp.Key, exp.Ref, nil)
	if !last {
		return
	}
	// Materialize the left child (and hence the whole chain below it)
	// for the key so its passing set is trustworthy, then lift every
	// left-passing tuple not already at j and propagate it upward.
	// The lift itself is j's materialization for the key — it must
	// run here rather than through the DiffCompleter because these
	// insertions have to propagate as additions.
	e.materializeDiffKey(j.Left, exp.Key, tuple.Ref{}, false)
	clear(e.have)
	t := &e.view
	stored := j.St.Probe(exp.Key)
	for i := range stored.Len() {
		e.have[stored.View(i, t).First()] = struct{}{}
	}
	left := j.Left.St.Probe(exp.Key)
	for i := range left.Len() {
		if _, ok := e.have[left.View(i, t).First()]; ok {
			continue
		}
		j.St.Insert(t)
		e.met.Inserts++
		e.pushUp(j, t)
	}
	if !j.St.Complete() {
		if j.St.MarkAttempted(exp.Key) {
			e.MarkNodeComplete(j)
		}
	}
}
