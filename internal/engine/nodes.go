package engine

import (
	"fmt"
	"strings"

	"jisc/internal/tuple"
)

// Nodes returns the operator tree bottom-up (children before parents).
func (e *Engine) Nodes() []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		walk(n.Left)
		walk(n.Right)
		out = append(out, n)
	}
	walk(e.root)
	return out
}

// NodeBySet returns the operator whose state covers set, or nil.
func (e *Engine) NodeBySet(set tuple.StreamSet) *Node {
	for _, n := range e.Nodes() {
		if n.Set == set {
			return n
		}
	}
	return nil
}

// DescribeStates renders each operator's state for diagnostics,
// bottom-up, one line per operator.
func (e *Engine) DescribeStates() string {
	var b strings.Builder
	for _, n := range e.Nodes() {
		switch {
		case n.St != nil:
			fmt.Fprintf(&b, "%v\n", n.St)
		case n.Ls != nil:
			status := "complete"
			if !n.Ls.Complete() {
				status = "incomplete"
			}
			fmt.Fprintf(&b, "List(%v %s size=%d)\n", n.Ls.Set, status, n.Ls.Size())
		}
	}
	return b.String()
}

// TotalStateSize sums the tuples stored across all operator states.
func (e *Engine) TotalStateSize() int {
	total := 0
	for _, n := range e.Nodes() {
		if n.St != nil {
			total += n.St.Size()
		} else if n.Ls != nil {
			total += n.Ls.Size()
		}
	}
	return total
}

// EachEntry visits the node's stored output tuples regardless of the
// backing state type (hash table or list), until fn returns false. A
// hash table lends a view the next call overwrites (state.Table.Each),
// so fn must Clone a tuple it keeps past its call.
func (n *Node) EachEntry(fn func(*tuple.Tuple) bool) {
	if n.St != nil {
		n.St.Each(fn)
		return
	}
	n.Ls.Each(fn)
}
