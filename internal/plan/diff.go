package plan

import (
	"fmt"
	"sort"
	"strings"

	"jisc/internal/tuple"
)

// Completeness records, for each state (stream set) of a plan, whether
// it is complete per Definition 1. It is the contract between the
// planner-side diff and the runtime migration strategies.
type Completeness map[tuple.StreamSet]bool

// AllComplete returns the completeness map of a plan running in steady
// state: every state (leaf and join) complete.
func AllComplete(p *Plan) Completeness {
	c := make(Completeness)
	for _, s := range p.StateSets() {
		c[s] = true
	}
	return c
}

// Diff classifies the states of newPlan against the states of the old
// plan. A new state is complete iff it existed in the old plan AND was
// complete there (§4.5's overlapped-transition rule: a state copied
// while still incomplete stays incomplete). Leaf states are always
// complete (§4.7: unary operators' states are always complete).
func Diff(old Completeness, newPlan *Plan) Completeness {
	out := make(Completeness)
	newPlan.Root.Walk(func(n *Node) {
		set := n.Set()
		if n.IsLeaf() {
			out[set] = true
			return
		}
		complete, existed := old[set]
		out[set] = existed && complete
	})
	return out
}

// IncompleteCount returns how many join states of p are incomplete
// under c.
func IncompleteCount(c Completeness, p *Plan) int {
	n := 0
	for _, s := range p.JoinSets() {
		if !c[s] {
			n++
		}
	}
	return n
}

// Describe renders the classification for diagnostics, one state per
// line, stable order.
func Describe(c Completeness, p *Plan) string {
	sets := p.JoinSets()
	sort.Slice(sets, func(i, j int) bool { return sets[i] < sets[j] })
	var b strings.Builder
	for _, s := range sets {
		status := "incomplete"
		if c[s] {
			status = "complete"
		}
		fmt.Fprintf(&b, "%v: %s\n", s, status)
	}
	return b.String()
}
