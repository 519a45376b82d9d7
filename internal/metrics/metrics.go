// Package metrics collects the performance measures the paper reports:
// execution time of the migration stage, throughput during normal
// operation, output latency after a transition, and the bookkeeping
// counters (probes, completions, duplicate eliminations) used by the
// ablation benches.
//
// Counters are lock-free atomics, so a Collector owned by an executor
// goroutine can be snapshotted concurrently from any other goroutine —
// monitoring never round-trips through the executor's control channel.
// The latency samples (a slice) are guarded by a small mutex taken
// only on transition, on the first output after one, and on Snapshot;
// every other output is one atomic add and one atomic load.
package metrics

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Collector accumulates counters and transition timing for one
// executor run. The zero value is ready to use. Counter increments are
// atomic; a Collector must not be copied after first use.
type Collector struct {
	// Input counts tuples fed into the executor.
	Input atomic.Uint64
	// Output counts result tuples emitted at the root.
	Output atomic.Uint64
	// Probes counts hash/list probes performed by join operators.
	Probes atomic.Uint64
	// Inserts counts state insertions: tuples stored where a later probe
	// can read them. A result the root emits without storing (DESIGN.md
	// §6.8) is an Output, not an Insert.
	Inserts atomic.Uint64
	// Completions counts on-demand state-completion invocations (JISC).
	Completions atomic.Uint64
	// CompletedEntries counts tuples materialized by state completion.
	CompletedEntries atomic.Uint64
	// Evictions counts window-expiry removals applied to states: one
	// per stored tuple removed, so it follows Inserts.
	Evictions atomic.Uint64
	// DupDropped counts outputs suppressed by duplicate elimination
	// (Parallel Track).
	DupDropped atomic.Uint64
	// EddyVisits counts tuple passes through the eddy router (CACQ,
	// STAIRs).
	EddyVisits atomic.Uint64
	// Transitions counts plan transitions applied.
	Transitions atomic.Uint64
	// MigrationWork counts tuples (re)processed solely because of a
	// migration strategy (e.g. eager moving-state joins, parallel
	// track double-processing).
	MigrationWork atomic.Uint64

	// awaitingOutput is armed by MarkTransition and cleared by the first
	// output after it: the only window in which an output needs the
	// clock and mu.
	awaitingOutput atomic.Bool

	// mu guards the transition-to-first-output latency bookkeeping
	// (§6.3); counters above are deliberately outside it.
	mu           sync.Mutex
	transitionAt time.Time
	latencies    []time.Duration
}

// MarkTransition records that a plan transition was triggered now.
func (c *Collector) MarkTransition(now time.Time) {
	c.Transitions.Add(1)
	c.mu.Lock()
	c.transitionAt = now
	c.awaitingOutput.Store(true)
	c.mu.Unlock()
}

// MarkOutputsAt records the n ≥ 1 root outputs one probe produced with
// a single add. It reads clock only for the first output after a
// transition, which closes the output-latency measurement.
func (c *Collector) MarkOutputsAt(n uint64, clock func() time.Time) {
	c.Output.Add(n)
	if c.awaitingOutput.Load() {
		c.closeLatency(clock())
	}
}

func (c *Collector) closeLatency(now time.Time) {
	c.mu.Lock()
	if c.awaitingOutput.Load() {
		c.latencies = append(c.latencies, now.Sub(c.transitionAt))
		c.awaitingOutput.Store(false)
	}
	c.mu.Unlock()
}

// OutputLatencies returns a copy of the recorded transition-to-first-
// output latencies.
func (c *Collector) OutputLatencies() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]time.Duration, len(c.latencies))
	copy(out, c.latencies)
	return out
}

// Restore overwrites the collector with s — used when resuming an
// engine from a checkpoint, so lifetime counters survive a restart
// instead of resetting to zero. Not safe concurrently with counter
// updates; call it only while the owning executor is quiescent.
func (c *Collector) Restore(s Snapshot) {
	c.Input.Store(s.Input)
	c.Output.Store(s.Output)
	c.Probes.Store(s.Probes)
	c.Inserts.Store(s.Inserts)
	c.Completions.Store(s.Completions)
	c.CompletedEntries.Store(s.CompletedEntries)
	c.Evictions.Store(s.Evictions)
	c.DupDropped.Store(s.DupDropped)
	c.EddyVisits.Store(s.EddyVisits)
	c.Transitions.Store(s.Transitions)
	c.MigrationWork.Store(s.MigrationWork)
	c.mu.Lock()
	c.latencies = append([]time.Duration(nil), s.OutputLatencies...)
	c.awaitingOutput.Store(false)
	c.mu.Unlock()
}

// Snapshot is an immutable copy of the collector for reporting.
type Snapshot struct {
	Input, Output, Probes, Inserts           uint64
	Completions, CompletedEntries, Evictions uint64
	DupDropped, EddyVisits, Transitions      uint64
	MigrationWork                            uint64
	OutputLatencies                          []time.Duration
}

// Snapshot copies the current counters. It is safe to call from any
// goroutine, concurrently with counter updates.
func (c *Collector) Snapshot() Snapshot {
	return Snapshot{
		Input: c.Input.Load(), Output: c.Output.Load(),
		Probes: c.Probes.Load(), Inserts: c.Inserts.Load(),
		Completions: c.Completions.Load(), CompletedEntries: c.CompletedEntries.Load(),
		Evictions: c.Evictions.Load(), DupDropped: c.DupDropped.Load(),
		EddyVisits: c.EddyVisits.Load(), Transitions: c.Transitions.Load(),
		MigrationWork:   c.MigrationWork.Load(),
		OutputLatencies: c.OutputLatencies(),
	}
}

// Add returns the element-wise sum of s and o, with latency samples
// appended — the merge used to aggregate per-shard snapshots. The
// Transitions counter is summed like the rest; callers merging shards
// that migrate in lockstep (every shard applies the same transition)
// should divide by the shard count or use MergeShards.
func (s Snapshot) Add(o Snapshot) Snapshot {
	lat := make([]time.Duration, 0, len(s.OutputLatencies)+len(o.OutputLatencies))
	lat = append(lat, s.OutputLatencies...)
	lat = append(lat, o.OutputLatencies...)
	return Snapshot{
		Input: s.Input + o.Input, Output: s.Output + o.Output,
		Probes: s.Probes + o.Probes, Inserts: s.Inserts + o.Inserts,
		Completions: s.Completions + o.Completions, CompletedEntries: s.CompletedEntries + o.CompletedEntries,
		Evictions: s.Evictions + o.Evictions, DupDropped: s.DupDropped + o.DupDropped,
		EddyVisits: s.EddyVisits + o.EddyVisits, Transitions: s.Transitions + o.Transitions,
		MigrationWork:   s.MigrationWork + o.MigrationWork,
		OutputLatencies: lat,
	}
}

// MergeShards aggregates per-shard snapshots of one sharded executor:
// tuple and work counters sum, while Transitions — identical on every
// shard because migrations fan out to all of them — is taken from the
// maximum rather than summed.
func MergeShards(shards []Snapshot) Snapshot {
	var total Snapshot
	var transitions uint64
	for _, s := range shards {
		if s.Transitions > transitions {
			transitions = s.Transitions
		}
		s.Transitions = 0
		total = total.Add(s)
	}
	total.Transitions = transitions
	return total
}

func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "in=%d out=%d probes=%d inserts=%d", s.Input, s.Output, s.Probes, s.Inserts)
	if s.Completions > 0 {
		fmt.Fprintf(&b, " completions=%d(+%d entries)", s.Completions, s.CompletedEntries)
	}
	if s.DupDropped > 0 {
		fmt.Fprintf(&b, " dup-dropped=%d", s.DupDropped)
	}
	if s.EddyVisits > 0 {
		fmt.Fprintf(&b, " eddy-visits=%d", s.EddyVisits)
	}
	if s.Transitions > 0 {
		fmt.Fprintf(&b, " transitions=%d", s.Transitions)
	}
	return b.String()
}
