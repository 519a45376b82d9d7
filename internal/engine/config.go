package engine

import (
	"time"

	"jisc/internal/obs"
	"jisc/internal/plan"
	"jisc/internal/storage"
	"jisc/internal/tuple"
)

// Config parameterizes an Engine.
type Config struct {
	// Plan is the initial query plan.
	Plan *plan.Plan
	// WindowSize is the per-stream sliding window size in tuples
	// (default 10_000, the paper's setting). Ignored when TimeSpan is
	// set.
	WindowSize int
	// WindowSizes optionally overrides WindowSize per stream (§5
	// notes the general case of per-stream window sizes). Streams
	// absent from the map use WindowSize.
	WindowSizes map[tuple.StreamID]int
	// TimeSpan, when non-zero, selects time-based sliding windows
	// instead of count-based ones: a tuple stays live while its
	// arrival tick is within TimeSpan of the stream's newest tuple.
	TimeSpan uint64
	// Kind selects the physical operator for internal nodes
	// (default HashJoin).
	Kind Kind
	// Theta is the join predicate for nested-loops nodes. It receives
	// the left child's tuple and the right child's, in plan order; a
	// composite's Key is its lowest stream's (Node.InsertTheta).
	// Required iff Kind is NLJoin or ThetaNodes is set.
	Theta func(probe, stored *tuple.Tuple) bool
	// ThetaNodes builds a hybrid plan (§2.1): with Kind == HashJoin,
	// join nodes whose output stream set satisfies the predicate run
	// as nested-loops theta joins, the rest as symmetric hash joins.
	// A hash join probes its children by key, so a nested-loops node
	// may not be the child of a hash node — theta joins sit above the
	// equi-joins, the usual hybrid shape.
	ThetaNodes func(set tuple.StreamSet) bool
	// Strategy handles plan transitions (default Static).
	Strategy Strategy
	// Output receives root results one at a time, lent (see Delta); nil
	// is allowed. It is the adapter over Sink; set one or the other.
	Output Output
	// Sink receives root results a call at a time: a probe's at an
	// unstored hash root, one result or retraction at any other root
	// (see Sink). Nil with a nil Output delivers nothing, and then an
	// unstored root builds no result.
	Sink Sink
	// Obs, when non-nil, turns on latency instrumentation: per-tuple
	// feed latency, sampled per-operator probe/build time, Migrate
	// duration, and (through the recorder's Tracer) migration
	// lifecycle events. Nil — the default — keeps every clock read off
	// the hot path.
	Obs *obs.Recorder
	// EmitExpiry turns the output into a revision stream for join
	// pipelines: when a window slide removes results from the root
	// state, each removal is emitted as a retraction Delta, so
	// downstream aggregates (§4.7) track the live window instead of
	// the all-time output. It is also what makes a hash-join root keep
	// its output state at all: without it results are emitted and not
	// stored (DESIGN.md §6.8). Set-difference pipelines always emit
	// retractions regardless of this flag.
	EmitExpiry bool
	// Now supplies time for the Obs histograms and trace events;
	// defaults to time.Now. Tests inject a fake clock.
	Now func() time.Time
	// StateBudget, when positive, bounds the engine's resident state
	// bytes (row and slot bytes, state.TupleBytes): a tiered statestore spills
	// cold hash buckets to CRC-framed segment files and faults them
	// back just in time when a probe needs them — the storage-level
	// analogue of JISC's lazy completion. Zero or negative keeps all
	// state resident (the default). Unsupported for set-difference
	// pipelines, whose operator moves whole buckets between tables.
	StateBudget int64
	// SpillDir is the spill tier's segment directory. It is a cache —
	// wiped on open, removed on Close — never durable state. Empty
	// picks a fresh temp directory (or "jisc-spill" on an injected
	// in-memory filesystem).
	SpillDir string
	// SpillFS overrides the spill tier's filesystem; nil means the
	// real one. Tests and the simulation harness inject
	// storage.NewMemFS() for hermetic, deterministic runs.
	SpillFS storage.FS
	// SpillSegmentBytes overrides the spill segment rotation size
	// (default 1 MiB). The simulation harness shrinks it to force
	// multi-segment stores under tiny budgets.
	SpillSegmentBytes int64
	// AfterFeed, when non-nil, runs after each input tuple has been
	// processed to completion, with the tuple's arrival tick — inside a
	// FeedBatch too, where wrapping Feed would see only the batch. The
	// simulation harness observes per-tuple progress through it.
	AfterFeed func(tick uint64)
}
