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
// sets. initial marks the first installation, where every state starts
// complete (there is nothing to migrate from). Each internal node is
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
			node.St = e.ensureTable(set, initial)
			return node
		}
		node.Op = operatorFor(node.Kind)
		node.Left = build(n.Left)
		node.Right = build(n.Right)
		node.Left.Parent = node
		node.Right.Parent = node
		if node.Kind == NLJoin {
			node.Ls = e.ensureList(set, initial)
		} else {
			node.St = e.ensureTable(set, initial)
		}
		node.Born = e.born[set]
		return node
	}
	e.root = build(p.Root)
	e.plan = p
	// Discard states whose stream set is not in the new plan, in
	// ascending set order. Release detaches each from the spill tier, so
	// spilled buckets and byte accounting don't leak into the budget,
	// and may compact the store, so the order of releases shows in the
	// store's counters: ranging over the maps here made them differ run
	// to run.
	var dead []tuple.StreamSet
	for set := range e.states {
		if !live[set] {
			dead = append(dead, set)
		}
	}
	for set := range e.lists {
		if !live[set] {
			dead = append(dead, set)
		}
	}
	slices.Sort(dead)
	for _, set := range dead {
		if st, ok := e.states[set]; ok {
			st.Release()
			delete(e.states, set)
		} else {
			e.lists[set].Release()
			delete(e.lists, set)
		}
		delete(e.born, set)
	}
}

func (e *Engine) ensureTable(set tuple.StreamSet, initial bool) *state.Table {
	if st, ok := e.states[set]; ok {
		// Surviving state: completeness carries over unchanged
		// (§4.5: incomplete in the old plan stays incomplete).
		return st
	}
	st := state.NewTable(set)
	if !initial && set.Count() > 1 {
		st.MarkIncomplete()
		e.born[set] = e.tick
	}
	if e.store != nil {
		// Scan windows hold exactly one ref per tuple and evict in
		// seq order, so spilled buckets can shrink by tombstone alone;
		// join states need the removed tuples back (metrics, expiry
		// retractions) and fault on eviction instead.
		st.SetStore(e.store, set.Count() == 1)
	}
	e.states[set] = st
	return st
}

func (e *Engine) ensureList(set tuple.StreamSet, initial bool) *state.List {
	if ls, ok := e.lists[set]; ok {
		return ls
	}
	ls := state.NewList(set)
	if !initial && set.Count() > 1 {
		ls.MarkIncomplete()
		e.born[set] = e.tick
	}
	if e.store != nil {
		// Lists only account toward the budget; a nested-loops scan
		// touches every stored tuple, so spilling them would fault the
		// whole list back on each probe.
		ls.SetStore(e.store)
	}
	e.lists[set] = ls
	return ls
}

// ClearBorn forgets the creation tick of set once its state is
// complete again.
func (e *Engine) ClearBorn(set tuple.StreamSet) { delete(e.born, set) }

// nodeKind returns the operator kind for the internal node covering
// set.
func (e *Engine) nodeKind(set tuple.StreamSet) Kind {
	if e.cfg.Kind == HashJoin && e.cfg.ThetaNodes != nil && e.cfg.ThetaNodes(set) {
		return NLJoin
	}
	return e.cfg.Kind
}

// validateKinds rejects plans where a hash join would have a
// nested-loops child: hash probes need a key index, which list states
// lack.
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
