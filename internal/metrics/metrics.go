// Package metrics holds an executor's work counters: tuples in and
// out, probes, inserts, evictions, completions and completed entries,
// transitions, and the work a migration strategy adds. The figures and
// the served STATS read the same counters.
//
// A Collector belongs to one executor goroutine, which counts with
// plain adds: an atomic add is a lock-prefixed instruction, a full
// memory barrier, and the tuple path counts several times per tuple.
// The owner publishes the counters (Publish) at the end of each batch
// and migration; any other goroutine reads what it published
// (Published), lock-free, so monitoring never round-trips through the
// executor's control channel.
// Timings are not kept here: the served engine records latency
// histograms in package obs, and the figures measure their own
// transition-to-first-output windows (package bench).
package metrics

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Counter is one work counter of a Collector, added to only by the
// Collector's owner.
type Counter struct{ n uint64 }

// Add adds d.
func (c *Counter) Add(d uint64) { c.n += d }

// Load returns the count.
func (c *Counter) Load() uint64 { return c.n }

// Store sets the count to n.
func (c *Counter) Store(n uint64) { c.n = n }

// Collector accumulates the counters of one executor run. The zero
// value is ready to use. Only its owner goroutine may count, Restore,
// Snapshot and Publish; any goroutine may read Published. A Collector
// must not be copied after first use.
type Collector struct {
	// Input counts tuples fed into the executor.
	Input Counter
	// Output counts result tuples emitted at the root.
	Output Counter
	// Probes counts the probes join operators perform: one per hash
	// lookup, one per nested-loops scan and per row it visits.
	Probes Counter
	// Inserts counts state insertions: tuples stored where a later probe
	// can read them. A result the root emits without storing (DESIGN.md
	// §6.8) is an Output, not an Insert.
	Inserts Counter
	// Completions counts on-demand state-completion invocations (JISC).
	Completions Counter
	// CompletedEntries counts tuples materialized by state completion.
	CompletedEntries Counter
	// Evictions counts window-expiry removals applied to states: one
	// per stored tuple removed, so it follows Inserts.
	Evictions Counter
	// Transitions counts plan transitions applied.
	Transitions Counter
	// MigrationWork counts tuples (re)processed solely because of a
	// migration strategy (e.g. eager moving-state joins, parallel
	// track double-processing).
	MigrationWork Counter

	// published is the last Publish, in Snapshot.fields order.
	published [numFields]atomic.Uint64
}

// Restore overwrites the collector with s and publishes it — used when
// resuming an engine from a checkpoint, so lifetime counters survive a
// restart instead of resetting to zero.
func (c *Collector) Restore(s Snapshot) {
	defer c.Publish()
	c.Input.Store(s.Input)
	c.Output.Store(s.Output)
	c.Probes.Store(s.Probes)
	c.Inserts.Store(s.Inserts)
	c.Completions.Store(s.Completions)
	c.CompletedEntries.Store(s.CompletedEntries)
	c.Evictions.Store(s.Evictions)
	c.Transitions.Store(s.Transitions)
	c.MigrationWork.Store(s.MigrationWork)
}

// Snapshot is an immutable copy of the collector for reporting.
type Snapshot struct {
	Input, Output, Probes, Inserts           uint64
	Completions, CompletedEntries, Evictions uint64
	Transitions, MigrationWork               uint64
}

// Snapshot copies the current counters, for the owner.
func (c *Collector) Snapshot() Snapshot {
	return Snapshot{
		Input: c.Input.Load(), Output: c.Output.Load(),
		Probes: c.Probes.Load(), Inserts: c.Inserts.Load(),
		Completions: c.Completions.Load(), CompletedEntries: c.CompletedEntries.Load(),
		Evictions:   c.Evictions.Load(),
		Transitions: c.Transitions.Load(), MigrationWork: c.MigrationWork.Load(),
	}
}

// Publish makes the current counters what Published returns.
func (c *Collector) Publish() {
	s := c.Snapshot()
	for i, f := range s.fields() {
		c.published[i].Store(*f)
	}
}

// Published returns the counters as of the owner's last Publish. It is
// safe to call from any goroutine, concurrently with counting; each
// counter is read atomically, and two counters may come from
// consecutive publishes.
func (c *Collector) Published() Snapshot {
	var s Snapshot
	for i, f := range s.fields() {
		*f = c.published[i].Load()
	}
	return s
}

// numFields is the number of counters in a Snapshot.
const numFields = 9

// fields lists s's counters, in one fixed order.
func (s *Snapshot) fields() [numFields]*uint64 {
	return [numFields]*uint64{&s.Input, &s.Output, &s.Probes, &s.Inserts,
		&s.Completions, &s.CompletedEntries, &s.Evictions, &s.Transitions, &s.MigrationWork}
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
