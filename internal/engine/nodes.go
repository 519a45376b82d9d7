package engine

import "jisc/internal/tuple"

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

// TotalStateSize sums the tuples stored across all operator states.
func (e *Engine) TotalStateSize() int {
	total := 0
	for _, n := range e.Nodes() {
		total += n.St.Size()
	}
	return total
}
