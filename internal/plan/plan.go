// Package plan models logical query execution plans: binary
// tree-structured join plans over base streams (§2.1), left-deep and
// bushy shapes, the pairwise join exchanges studied in §5.2, and the
// complete/incomplete state classification of Definition 1 that drives
// every migration strategy.
package plan

import (
	"fmt"
	"strings"

	"jisc/internal/tuple"
)

// Node is one node of a binary tree-structured plan. A leaf scans one
// base stream; an internal node joins its two children.
type Node struct {
	// Stream is the scanned stream when the node is a leaf.
	Stream tuple.StreamID
	// Left and Right are the children; both nil for a leaf.
	Left, Right *Node
}

// Leaf returns a stream-scan node.
func Leaf(id tuple.StreamID) *Node { return &Node{Stream: id} }

// Join returns an internal join node over two subplans.
func Join(left, right *Node) *Node { return &Node{Left: left, Right: right} }

// IsLeaf reports whether the node scans a base stream.
func (n *Node) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// Set returns the set of base streams covered by the subtree — the
// identity of the node's state.
func (n *Node) Set() tuple.StreamSet {
	if n.IsLeaf() {
		return tuple.NewStreamSet(n.Stream)
	}
	return n.Left.Set().Union(n.Right.Set())
}

// Clone returns a deep copy of the subtree.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	return &Node{Stream: n.Stream, Left: n.Left.Clone(), Right: n.Right.Clone()}
}

// Walk visits the subtree bottom-up (children before parents).
func (n *Node) Walk(fn func(*Node)) {
	if n == nil {
		return
	}
	n.Left.Walk(fn)
	n.Right.Walk(fn)
	fn(n)
}

// Joins returns the number of join (internal) nodes in the subtree.
func (n *Node) Joins() int {
	if n == nil || n.IsLeaf() {
		return 0
	}
	return 1 + n.Left.Joins() + n.Right.Joins()
}

// IsLeftDeep reports whether every right child in the subtree is a
// leaf (the shape Procedure 3's simplified completion relies on).
func (n *Node) IsLeftDeep() bool {
	if n == nil || n.IsLeaf() {
		return true
	}
	return n.Right.IsLeaf() && n.Left.IsLeftDeep()
}

// String renders the subtree in the paper's infix notation, e.g.
// "((0⋈1)⋈2)".
func (n *Node) String() string {
	if n.IsLeaf() {
		return fmt.Sprintf("%d", n.Stream)
	}
	return fmt.Sprintf("(%s⋈%s)", n.Left.String(), n.Right.String())
}

// Plan is a validated query execution plan.
type Plan struct {
	Root *Node
	// Streams is the set of base streams the plan covers.
	Streams tuple.StreamSet
}

// New validates the tree (every stream scanned exactly once, at least
// one join) and wraps it in a Plan.
func New(root *Node) (*Plan, error) {
	if root == nil {
		return nil, fmt.Errorf("plan: nil root")
	}
	seen := tuple.StreamSet(0)
	var dup error
	root.Walk(func(n *Node) {
		if n.IsLeaf() {
			if seen.Has(n.Stream) && dup == nil {
				dup = fmt.Errorf("plan: stream %d scanned more than once", n.Stream)
			}
			seen = seen.Add(n.Stream)
			return
		}
		if (n.Left == nil) != (n.Right == nil) {
			if dup == nil {
				dup = fmt.Errorf("plan: unary internal node")
			}
		}
	})
	if dup != nil {
		return nil, dup
	}
	if root.IsLeaf() {
		return nil, fmt.Errorf("plan: single-stream plan has no joins")
	}
	return &Plan{Root: root, Streams: seen}, nil
}

// MustNew is New but panics on error; for literals in tests/examples.
func MustNew(root *Node) *Plan {
	p, err := New(root)
	if err != nil {
		panic(err)
	}
	return p
}

// LeftDeep builds the left-deep plan ((order[0]⋈order[1])⋈order[2])…
// The paper labels order[0] and order[1] position 1 and order[i]
// position i for i ≥ 1 (both bottom-join streams share label 1, §5.2).
func LeftDeep(order ...tuple.StreamID) (*Plan, error) {
	if len(order) < 2 {
		return nil, fmt.Errorf("plan: left-deep plan needs at least 2 streams, got %d", len(order))
	}
	n := Leaf(order[0])
	for _, id := range order[1:] {
		n = Join(n, Leaf(id))
	}
	return New(n)
}

// MustLeftDeep is LeftDeep but panics on error.
func MustLeftDeep(order ...tuple.StreamID) *Plan {
	p, err := LeftDeep(order...)
	if err != nil {
		panic(err)
	}
	return p
}

// Order returns the bottom-up stream order of a left-deep plan, or an
// error if the plan is not left-deep.
func (p *Plan) Order() ([]tuple.StreamID, error) {
	if !p.Root.IsLeftDeep() {
		return nil, fmt.Errorf("plan: not left-deep: %s", p.Root)
	}
	var order []tuple.StreamID
	n := p.Root
	for !n.IsLeaf() {
		order = append(order, n.Right.Stream)
		n = n.Left
	}
	order = append(order, n.Stream)
	// Reverse to bottom-up.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order, nil
}

// Joins returns the number of join operators.
func (p *Plan) Joins() int { return p.Root.Joins() }

// StateSets returns the stream sets of every stateful node (leaves and
// joins), bottom-up.
func (p *Plan) StateSets() []tuple.StreamSet {
	var sets []tuple.StreamSet
	p.Root.Walk(func(n *Node) { sets = append(sets, n.Set()) })
	return sets
}

// JoinSets returns the stream sets of the join (internal) nodes only,
// bottom-up — the states Definition 1 classifies.
func (p *Plan) JoinSets() []tuple.StreamSet {
	var sets []tuple.StreamSet
	p.Root.Walk(func(n *Node) {
		if !n.IsLeaf() {
			sets = append(sets, n.Set())
		}
	})
	return sets
}

// Equal reports whether two plans have identical shape and stream
// placement.
func (p *Plan) Equal(q *Plan) bool {
	var eq func(a, b *Node) bool
	eq = func(a, b *Node) bool {
		if a == nil || b == nil {
			return a == b
		}
		if a.IsLeaf() != b.IsLeaf() {
			return false
		}
		if a.IsLeaf() {
			return a.Stream == b.Stream
		}
		return eq(a.Left, b.Left) && eq(a.Right, b.Right)
	}
	return eq(p.Root, q.Root)
}

// Swap returns a copy of a left-deep plan with the streams at
// (1-based) positions i and j exchanged — the pairwise join exchange
// of §5.2. Position 1 addresses order[1] (the bottom join's inner);
// position 0 addresses the outermost leaf order[0], which the paper
// also labels 1 since both bottom streams share the leaf join.
func (p *Plan) Swap(i, j int) (*Plan, error) {
	order, err := p.Order()
	if err != nil {
		return nil, err
	}
	if i < 0 || j < 0 || i >= len(order) || j >= len(order) {
		return nil, fmt.Errorf("plan: swap positions (%d,%d) out of range [0,%d)", i, j, len(order))
	}
	order[i], order[j] = order[j], order[i]
	return LeftDeep(order...)
}

func (p *Plan) String() string { return p.Root.String() }

// Render returns a multi-line ASCII rendering of the plan tree with
// one node per line, deepest nodes indented most.
func (p *Plan) Render() string {
	var b strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		if n == nil {
			return
		}
		indent := strings.Repeat("  ", depth)
		if n.IsLeaf() {
			fmt.Fprintf(&b, "%sscan %d\n", indent, n.Stream)
			return
		}
		fmt.Fprintf(&b, "%s⋈ %v\n", indent, n.Set())
		walk(n.Left, depth+1)
		walk(n.Right, depth+1)
	}
	walk(p.Root, 0)
	return b.String()
}
