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
	// at node j: probe/scan the opposite state, build result
	// composites straight into j's state and recurse upward via
	// e.pushUp — or, at a hash root without EmitExpiry (storesOutput),
	// hand the probe's matches to the sink unbuilt (Engine.forward).
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
	// Tuple is the result, lent: it is valid until the Output callback
	// returns, then overwritten by the next result — Tuple.Clone() to
	// keep it. Every root lends its results so, whether it stores them
	// or not (Sink).
	Tuple *tuple.Tuple
	// Retraction is true when the result is withdrawn (set-difference
	// semantics or window expiry at the root).
	Retraction bool
}

// Sink receives the root's results on the goroutine feeding the engine:
// the composite of t with each row of rows, in row order, each withdrawn
// when retract is set. All of it is lent for the duration of the call.
// A hash root that does not store its output (storesOutput) hands it a
// probe at a time, unbuilt: t is the probing tuple and rows the run of
// the opposite state it matched, read in place. A root that stores its
// output hands it each result or retraction as t with tuple.OneRow. rows
// is never empty. A sink that writes results out reads t's seqs once and
// each row's in place (the server's egress encodes its lines this way).
type Sink func(retract bool, t *tuple.Tuple, rows tuple.Rows)

// Output receives root results one Delta at a time, on the goroutine
// feeding the engine. It reads what it needs of d.Tuple before
// returning (Delta). It is the adapter over Sink (Output.Sink).
type Output func(Delta)

// Sink adapts out to the one result path: each row of a call is joined
// with t into one reusable composite (tuple.Builder.JoinTransient) and
// handed to out, overwritten by the next — with tuple.OneRow that join
// is a copy of t. A nil Output is a nil Sink.
func (out Output) Sink() Sink {
	if out == nil {
		return nil
	}
	var b tuple.Builder
	return func(retract bool, t *tuple.Tuple, rows tuple.Rows) {
		var m tuple.Tuple
		for i := range rows.Len() {
			out(Delta{Tuple: b.JoinTransient(t, rows.View(i, &m)), Retraction: retract})
		}
	}
}

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

	// St is the node's output state: probed by key under a hash join,
	// scanned whole under a nested-loops join. It carries everything
	// that outlives the node — contents and Definition 1's
	// completeness record (flag, birth tick, §4.3 counter and its
	// side) — and survives every transition its stream set does.
	St *state.Table

	// Probes and Matches count lookups against this node's state and
	// the entries they returned since the node was installed — the
	// per-operator selectivity signal a runtime optimizer feeds on
	// (the paper treats the transition trigger policy as orthogonal,
	// §2; package adaptive provides one). Every install builds fresh
	// nodes, so both restart at zero at each transition, surviving
	// state or not, and the advisor rebaselines on that reset; Restore
	// resumes them from the checkpoint.
	Probes, Matches uint64
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
