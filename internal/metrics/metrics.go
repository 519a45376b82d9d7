// Package metrics holds an executor's work counters: tuples in and
// out, probes, inserts, evictions, completions and completed entries,
// transitions, and the work a migration strategy adds. The figures and
// the served STATS read the same counters.
//
// An executor's live Snapshot belongs to its goroutine, which counts
// with plain adds: an atomic add is a lock-prefixed instruction, a full
// memory barrier, and the tuple path counts several times per tuple.
// Another goroutine never reads it; the served engine publishes its
// counters for other goroutines itself (engine.View).
// Timings are not kept here: the served engine records latency
// histograms in package obs, and the figures measure their own
// transition-to-first-output windows (package bench).
package metrics

import (
	"fmt"
	"strings"
)

// Snapshot holds the counters of one executor run. The zero value is
// ready to use. The executor counts into its own Snapshot with plain
// adds and hands out copies; a copy is immutable for reporting.
type Snapshot struct {
	// Input counts tuples fed into the executor.
	Input uint64
	// Output counts result tuples emitted at the root.
	Output uint64
	// Probes counts the probes join operators perform: one per hash
	// lookup, one per nested-loops scan and per row it visits.
	Probes uint64
	// Inserts counts state insertions: tuples stored where a later probe
	// can read them. A result the root emits without storing (DESIGN.md
	// §6.8) is an Output, not an Insert.
	Inserts uint64
	// Completions counts on-demand state-completion invocations (JISC).
	Completions uint64
	// CompletedEntries counts tuples materialized by state completion.
	CompletedEntries uint64
	// Evictions counts window-expiry removals applied to states: one
	// per stored tuple removed, so it follows Inserts.
	Evictions uint64
	// Transitions counts plan transitions applied.
	Transitions uint64
	// MigrationWork counts tuples (re)processed solely because of a
	// migration strategy (e.g. eager moving-state joins, parallel
	// track double-processing).
	MigrationWork uint64
}

// Add returns the element-wise sum of s and o — the merge used to
// aggregate per-shard snapshots. The Transitions counter is summed like
// the rest; callers merging shards that migrate in lockstep (every
// shard applies the same transition) should use MergeShards.
func (s Snapshot) Add(o Snapshot) Snapshot {
	return Snapshot{
		Input: s.Input + o.Input, Output: s.Output + o.Output,
		Probes: s.Probes + o.Probes, Inserts: s.Inserts + o.Inserts,
		Completions: s.Completions + o.Completions, CompletedEntries: s.CompletedEntries + o.CompletedEntries,
		Evictions:   s.Evictions + o.Evictions,
		Transitions: s.Transitions + o.Transitions, MigrationWork: s.MigrationWork + o.MigrationWork,
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
	if s.Transitions > 0 {
		fmt.Fprintf(&b, " transitions=%d", s.Transitions)
	}
	return b.String()
}
