package engine

import (
	"fmt"

	"jisc/internal/metrics"
	"jisc/internal/plan"
	"jisc/internal/state"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// Kind selects the physical operator implementing internal plan nodes.
type Kind int

const (
	// HashJoin is the symmetric hash equi-join of §2.1.
	HashJoin Kind = iota
	// NLJoin is the nested-loops join used for general theta joins.
	NLJoin
	// SetDiff is the binary set-difference operator of §4.7.
	SetDiff
)

func (k Kind) String() string {
	switch k {
	case HashJoin:
		return "hash-join"
	case NLJoin:
		return "nl-join"
	case SetDiff:
		return "set-difference"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Operator is the physical-operator contract behind every internal
// node: process one tuple pushed up from a child. Implementations are
// stateless singletons (per-node state lives on the Node); each lives
// in its own file — hashjoin.go, nljoin.go, setdiff.go.
type Operator interface {
	// Kind identifies the operator.
	Kind() Kind
	// Push processes t, the freshly produced output of child `from`,
	// at node j: probe/scan the opposite state, construct result
	// composites through the engine's scratch builder, insert them
	// into j's state and recurse upward via e.pushUp — or, at a hash
	// root without EmitExpiry (storesOutput), forward them to the
	// output unstored.
	Push(e *Engine, j, from *Node, t *tuple.Tuple)
}

// operatorFor returns the singleton Operator implementing k.
func operatorFor(k Kind) Operator {
	switch k {
	case HashJoin:
		return hashJoinOp{}
	case NLJoin:
		return nlJoinOp{}
	case SetDiff:
		return setDiffOp{}
	default:
		panic(fmt.Sprintf("engine: unknown operator kind %d", int(k)))
	}
}

// Delta is an output event at the plan root. Streaming set-difference
// can retract previously emitted results, so outputs carry a sign;
// joins only ever emit additions.
type Delta struct {
	// Tuple is the result. A root that does not store its output (a
	// hash join without EmitExpiry, see storesOutput) only lends it: it
	// is valid until the Output callback returns, then overwritten by
	// the next result — Tuple.Clone() to keep it. Stored roots
	// (EmitExpiry, set-difference, nested-loops) hand out arena tuples
	// that stay valid.
	Tuple *tuple.Tuple
	// Retraction is true when the result is withdrawn (set-difference
	// semantics or window expiry at the root).
	Retraction bool
}

// Output receives root results on the goroutine feeding the engine. It
// reads what it needs of d.Tuple before returning — an unstored root
// only lends it (see Delta) — and so works with every root.
type Output func(Delta)

// Executor is the contract shared by every execution strategy in the
// repository (this engine under JISC/Moving State/static, Parallel
// Track, CACQ, STAIRs): feed tuples, trigger plan transitions, read
// metrics. It is what the benchmark harness and the equivalence tests
// program against.
type Executor interface {
	Name() string
	// Feed processes one input tuple to completion.
	Feed(ev workload.Event)
	// Migrate transitions the executor to a new plan.
	Migrate(p *plan.Plan) error
	// Metrics returns a snapshot of the executor's counters.
	Metrics() metrics.Snapshot
}

// Node is one physical operator instance. Exported fields are
// read-only for strategies; only the engine mutates the tree.
type Node struct {
	// Set identifies the streams covered by the node's output state.
	Set tuple.StreamSet
	// Stream is the scanned stream when the node is a leaf.
	Stream tuple.StreamID
	// Left, Right, Parent wire the operator tree. Leaves have nil
	// children; the root has a nil parent.
	Left, Right, Parent *Node
	// Kind selects the operator implementation for internal nodes.
	Kind Kind
	// Op is the Operator implementing Kind, bound at install time.
	Op Operator

	// St is the node's output state for hash-based operators.
	St *state.Table
	// Ls is the node's output state for nested-loops operators.
	Ls *state.List

	// CounterSide is the designated child whose distinct keys armed
	// this node's completion counter (§4.3 Cases 1–2); nil when no
	// counter is armed (Case 3 or complete state).
	CounterSide *Node

	// Born is the engine tick at which this node's state was created
	// empty (i.e. classified incomplete). State completion must only
	// reconstruct results whose constituents all arrived at or before
	// Born; later results are produced by normal processing. Born
	// survives re-installation across overlapped transitions.
	Born uint64

	// Probes and Matches count lookups against this node's state and
	// the entries they returned — the per-operator selectivity signal
	// a runtime optimizer feeds on (the paper treats the transition
	// trigger policy as orthogonal, §2; package optimizer provides
	// one). They survive re-installation only while the state itself
	// survives; fresh states start at zero.
	Probes, Matches uint64

	// ProbeNanos and ProbeSamples accumulate sampled probe durations
	// against this node's state (recorded only when the engine has an
	// obs.Recorder) — the per-operator latency signal the optimizer's
	// cost model can weight selectivities with. Same lifecycle as
	// Probes/Matches.
	ProbeNanos, ProbeSamples uint64
}

// IsLeaf reports whether the node is a stream scan.
func (n *Node) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// Opposite returns the sibling of child c under n.
func (n *Node) Opposite(c *Node) *Node {
	if n.Left == c {
		return n.Right
	}
	return n.Left
}
