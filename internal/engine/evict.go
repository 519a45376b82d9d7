package engine

import (
	"jisc/internal/tuple"
	"jisc/internal/window"
)

// evict removes an expired base tuple from every state, bottom-up
// (§2.1). The standard rule stops the walk at the first operator whose
// state holds no matching entry; strategies may force the walk to
// continue (JISC does so through incomplete states, §4.2).
// Set-difference pipelines have different removal semantics and take
// the setDiffEvict path instead.
func (e *Engine) evict(scan *Node, exp window.Entry) {
	if e.cfg.Kind == SetDiff {
		e.setDiffEvict(scan, exp)
		return
	}
	// Phase 1: the removal walk. Counter maintenance (dropPendingAt)
	// is deferred to phase 2: DropPending can complete a state whose
	// entries for the expired key were never materialized, and if that
	// happened mid-walk EvictContinue would stop at the now-complete
	// state while an ancestor whose state survived the last transition
	// (§4.5 adoption) still holds an entry referencing the expired
	// tuple. The stop rule is only sound against pre-drop completeness.
	scan.St.RemoveRef(exp.Key, exp.Ref, nil)
	e.met.Evictions++

	last := scan
	for j := scan.Parent; j != nil; j = j.Parent {
		if !e.storesOutput(j) {
			break // the root's results were emitted, not stored
		}
		last = j
		var removed int
		if j.Kind == NLJoin {
			// A theta composite sits under its lowest stream's key,
			// not necessarily the expired tuple's.
			e.keys = j.St.Keys(e.keys[:0])
			for _, k := range e.keys {
				removed += e.removeRef(j, k, exp.Ref)
			}
		} else {
			removed = e.removeRef(j, exp.Key, exp.Ref)
		}
		e.met.Evictions += uint64(removed)
		if removed == 0 && !e.strategy.EvictContinue(e, j, exp.Key) {
			break
		}
	}

	// Phase 2: counter maintenance over the same nodes, now that the
	// walk can no longer observe its side effects.
	e.dropPendingAt(scan, exp.Key)
	for j := scan.Parent; j != nil; j = j.Parent {
		e.dropPendingAt(j, exp.Key)
		if j == last {
			return
		}
	}
}

// removeRef removes the rows of j's state under key that contain ref
// and returns how many went. A root that stores its results (under
// EmitExpiry) retracts each removed one, in run order; every other
// level only counts them.
func (e *Engine) removeRef(j *Node, key tuple.Value, ref tuple.Ref) int {
	if j.Parent != nil || !e.cfg.EmitExpiry {
		return j.St.RemoveRef(key, ref, nil)
	}
	n := j.St.RemoveRef(key, ref, &e.retracted)
	for i := range e.retracted.Len() {
		e.emit(true, e.retracted.View(i, &e.view))
	}
	return n
}

// dropPendingAt handles the §4.3 note that the completion counter is
// "decremented accordingly" when a window slide removes entries: if
// node n is the designated counter side of its parent and no tuple
// with the key remains in n's state, the key will never need
// completion at the parent, so it leaves the pending set.
func (e *Engine) dropPendingAt(n *Node, key tuple.Value) {
	p := n.Parent
	if p == nil || p.Kind == NLJoin || p.St.Complete() || p.St.CounterSide() != n.Set || n.St.ContainsKey(key) {
		return
	}
	if p.St.DropPending(key) {
		e.MarkNodeComplete(p)
	}
}

// MarkNodeComplete declares n's state complete (which drops its birth
// tick and counter) and notifies the parent (§4.3).
//
// Deviation from the paper, recorded in DESIGN.md: the paper resolves
// Case 3 (both children incomplete, no counter) by declaring the
// parent complete as soon as both children complete. That rule is
// unsound: a child can complete through probes at the parent level
// that never computed the parent's own pre-transition entries for the
// probed keys, so the parent may still miss entries. Instead, when a
// child of a counter-less incomplete parent completes, the parent is
// re-classified from Case 3 to Case 2 and its counter is armed lazily
// with the complete child's distinct keys (minus keys already
// attempted); an empty pending set then — and only then — completes
// the parent.
func (e *Engine) MarkNodeComplete(n *Node) {
	n.St.MarkComplete()
	p := n.Parent
	if p == nil || p.Kind == NLJoin || p.St.Complete() || p.St.CounterArmed() {
		return
	}
	e.ArmCounter(p)
}

// ArmCounter initializes the §4.3 completion counter of join node j
// from its children's states: Case 1 (both complete) uses the side
// with fewer distinct keys, Case 2 (one complete) uses the complete
// side, Case 3 (neither complete) arms nothing. Keys already attempted
// at j are excluded; if nothing remains pending, j completes
// immediately. A nested-loops state arms none: it has no key to
// complete by (JISC completes it whole on its first probe).
func (e *Engine) ArmCounter(j *Node) {
	if j.Kind == NLJoin || j.St.Complete() {
		return
	}
	l, r := j.Left, j.Right
	lc, rc := childComplete(l), childComplete(r)
	if j.Kind == SetDiff {
		// A diff state needs entries for every key of its outer
		// (left) child — unmatched keys still produce passing
		// entries — so only the left side can arm the counter.
		if !lc {
			return
		}
		rc = false
	}
	var side *Node
	switch {
	case lc && rc:
		side = l
		if r.St.DistinctKeys() < l.St.DistinctKeys() {
			side = r
		}
	case lc:
		side = l
	case rc:
		side = r
	default:
		return // Case 3: detection deferred to child notifications.
	}
	keys := side.St.Keys(nil)
	pending := keys[:0]
	for _, k := range keys {
		if !j.St.Attempted(k) {
			pending = append(pending, k)
		}
	}
	j.St.ArmCounter(side.Set, pending)
	if len(pending) == 0 {
		e.MarkNodeComplete(j)
	}
}

func childComplete(n *Node) bool {
	return n == nil || n.St.Complete()
}
