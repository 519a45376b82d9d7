package engine

import (
	"fmt"
	"slices"

	"jisc/internal/plan"
	"jisc/internal/state"
	"jisc/internal/tuple"
)

// install builds the operator tree for p, attaching surviving states
// from the store and creating empty incomplete states for new stream
// sets, and re-arms the surviving counters whose side it regrouped
// (rearmStale). initial marks the first installation, where every
// state starts complete (there is nothing to migrate from). Each internal node is
// bound to its Operator singleton here, so the feed hot path
// dispatches through one interface call without re-deriving kinds.
func (e *Engine) install(p *plan.Plan, initial bool) {
	live := make(map[tuple.StreamSet]bool)
	var build func(n *plan.Node) *Node
	build = func(n *plan.Node) *Node {
		set := n.Set()
		live[set] = true
		node := &Node{Set: set, Kind: e.nodeKind(set)}
		if n.IsLeaf() {
			node.Stream = n.Stream
			node.Kind = HashJoin // scan windows are always key-hashed
			e.streams[n.Stream].scan = node
			node.St = e.ensureTable(node, initial)
			return node
		}
		node.Op = operatorFor(node.Kind)
		node.Left = build(n.Left)
		node.Right = build(n.Right)
		node.Left.Parent = node
		node.Right.Parent = node
		node.St = e.ensureTable(node, initial)
		return node
	}
	e.root = build(p.Root)
	e.plan = p
	// Discard states whose stream set is not in the new plan, in
	// ascending set order. Release detaches each from the spill tier, so
	// spilled buckets and byte accounting don't leak into the budget,
	// and may compact the store, so the order of releases shows in the
	// store's counters: ranging over the map here made them differ run
	// to run.
	var dead []tuple.StreamSet
	for set := range e.states {
		if !live[set] {
			dead = append(dead, set)
		}
	}
	slices.Sort(dead)
	for _, set := range dead {
		e.states[set].Release()
		delete(e.states, set)
	}
	for _, n := range e.Nodes() {
		e.rearmStale(n)
	}
}

// rearmStale re-arms the §4.3 counter of a surviving state whose
// counter side is no longer one of its children — after an overlapped
// transition (§4.5) that regroups its streams, or in a checkpoint whose
// side was lost — from its current children (ArmCounter). A side that
// is still a child keeps draining the counter as it did: its state
// survived with it.
func (e *Engine) rearmStale(n *Node) {
	side := n.St.CounterSide()
	if side == 0 || n.IsLeaf() || side == n.Left.Set || side == n.Right.Set {
		return
	}
	n.St.ArmCounter(0, nil)
	e.ArmCounter(n)
}

// ensureTable returns the state of n's stream set: the surviving one,
// or a fresh one, incomplete unless this is the first installation.
func (e *Engine) ensureTable(n *Node, initial bool) *state.Table {
	set := n.Set
	if st, ok := e.states[set]; ok {
		// Surviving state: completeness carries over unchanged
		// (§4.5: incomplete in the old plan stays incomplete).
		return st
	}
	st := state.NewTable(set)
	if !initial && set.Count() > 1 {
		st.MarkIncomplete(e.tick)
	}
	switch {
	case e.store == nil:
	case n.Kind == NLJoin:
		// A nested-loops scan touches every stored row, so spilling
		// would fault the whole state back on each probe: it only
		// accounts toward the budget.
		st.AccountTo(e.store)
	default:
		// Scan windows hold exactly one ref per tuple and evict in
		// seq order, so spilled buckets can shrink by tombstone alone;
		// join states need the removed tuples back (metrics, expiry
		// retractions) and fault on eviction instead.
		st.SetStore(e.store)
	}
	e.states[set] = st
	return st
}

// nodeKind returns the operator kind for the internal node covering
// set.
func (e *Engine) nodeKind(set tuple.StreamSet) Kind {
	if e.cfg.Kind == HashJoin && e.cfg.ThetaNodes != nil && e.cfg.ThetaNodes(set) {
		return NLJoin
	}
	return e.cfg.Kind
}

// validateKinds rejects plans where a hash join would have a
// nested-loops child: a hash probe reads the rows stored under the
// probing key, and a theta composite's key is only its lowest stream's
// (Node.InsertTheta), not one every constituent shares.
func (e *Engine) validateKinds(p *plan.Plan) error {
	if e.cfg.ThetaNodes == nil {
		return nil
	}
	var err error
	p.Root.Walk(func(n *plan.Node) {
		if err != nil || n.IsLeaf() || e.nodeKind(n.Set()) == NLJoin {
			return
		}
		for _, child := range []*plan.Node{n.Left, n.Right} {
			if !child.IsLeaf() && e.nodeKind(child.Set()) == NLJoin {
				err = fmt.Errorf("engine: hash join %v cannot consume nested-loops child %v; theta joins must sit above equi-joins", n.Set(), child.Set())
			}
		}
	})
	return err
}
