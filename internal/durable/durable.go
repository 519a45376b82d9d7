// Package durable is the durability subsystem: a per-shard write-ahead
// log, incremental background checkpoints, and crash recovery with
// deterministic replay.
//
// JISC's value proposition is that join state is expensive to rebuild —
// the paper completes states lazily precisely because recomputing them
// eagerly stalls the query. A production node therefore cannot treat
// that state as ephemeral: before this package, a crash of jiscd lost
// every window, every hash table, and every in-flight completion
// episode. The durability layer closes that gap with the classic
// WAL + checkpoint discipline:
//
//   - Every mutating event (FEED, MIGRATE, and at the server level
//     CREATE/DROP) is appended to a binary framed log before it is
//     acknowledged. Each record carries a CRC32C, so a torn write at
//     the tail is detected and truncated at a record boundary instead
//     of poisoning recovery.
//   - Logs are per shard: shards never exchange state (the runtime
//     hash-partitions by join key), so each shard's log + checkpoint
//     pair recovers independently and in parallel.
//   - Periodic checkpoints reuse engine.Checkpoint — which serializes
//     JISC's completeness metadata (incomplete flags, attempted keys,
//     armed counters, birth ticks) — and are written atomically
//     (temp file + rename + directory fsync). A checkpoint at sequence
//     number S makes every WAL segment whose records are all ≤ S dead;
//     dead segments are deleted, bounding both disk use and replay
//     time.
//   - Recovery loads the newest checkpoint that validates (magic,
//     version, CRC), then replays the WAL tail through the engine.
//     The engine is deterministic, so replaying the same events in the
//     same order — including a MIGRATE that left states incomplete —
//     reproduces exactly the state the node had when it died.
//
// Fsync policy is the durability/throughput dial: FsyncAlways fsyncs
// every append (no acked event is ever lost), FsyncBatch group-commits
// — appends land in a buffer that a background flusher writes and
// fsyncs every FlushInterval (bounded loss window, near-zero overhead),
// FsyncOff leaves persistence to the OS page cache.
//
// The CrashFS fault-injection filesystem cuts writes at a chosen byte
// offset, simulating power loss mid-write; the tests use it to prove
// torn-tail tolerance and checkpoint atomicity.
package durable

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"jisc/internal/storage"
)

// Policy selects when the write-ahead log fsyncs.
type Policy int

const (
	// FsyncBatch (the default) group-commits: appends are buffered and
	// a background flusher writes + fsyncs every FlushInterval. An
	// acknowledged event may be lost if the node crashes within the
	// flush window — the usual group-commit trade.
	FsyncBatch Policy = iota
	// FsyncAlways flushes and fsyncs on every append, before the
	// append returns: an acknowledged event is never lost.
	FsyncAlways
	// FsyncOff never fsyncs; buffered data is flushed to the OS on the
	// batch interval and on rotation/close, but persistence across a
	// machine crash is up to the page cache.
	FsyncOff
)

// String returns the flag spelling of the policy.
func (p Policy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncBatch:
		return "batch"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy parses the -fsync flag spelling.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(s) {
	case "always":
		return FsyncAlways, nil
	case "batch", "":
		return FsyncBatch, nil
	case "off", "none":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("durable: unknown fsync policy %q (want always, batch, or off)", s)
}

// Options configures the durability layer. The zero value (empty Dir)
// disables it.
type Options struct {
	// Dir is the durability directory. Empty disables durability.
	// Shard s of a runtime keeps its log segments and checkpoints
	// under Dir/shard-<s>/; the server keeps its query catalog's log
	// under Dir/catalog/ and each query under Dir/q-<name>/.
	Dir string
	// Fsync selects the fsync policy (default FsyncBatch).
	Fsync Policy
	// FlushInterval is the group-commit window for FsyncBatch (and the
	// OS-flush period for FsyncOff). Default 2ms.
	FlushInterval time.Duration
	// SegmentBytes rotates the log to a new segment file once the
	// active one exceeds this size. Default 4 MiB.
	SegmentBytes int64
	// CheckpointInterval is the background checkpoint period. Zero
	// means the 15s default; negative disables background checkpoints
	// (manual CheckpointNow still works).
	CheckpointInterval time.Duration
	// KeepCheckpoints retains this many most-recent checkpoint files
	// per shard (default 2): the newest plus one fallback should the
	// newest turn out torn.
	KeepCheckpoints int
	// FS overrides the filesystem, for fault injection. Default: the
	// real one.
	FS storage.FS
}

// Enabled reports whether the options turn durability on.
func (o Options) Enabled() bool { return o.Dir != "" }

// defaultFlushInterval etc. centralize the Options defaults.
const (
	defaultFlushInterval      = 2 * time.Millisecond
	defaultSegmentBytes       = 4 << 20
	defaultCheckpointInterval = 15 * time.Second
	defaultKeepCheckpoints    = 2
)

// WithDefaults returns o with every zero field replaced by its
// default.
func (o Options) WithDefaults() Options {
	if o.FlushInterval <= 0 {
		o.FlushInterval = defaultFlushInterval
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	if o.CheckpointInterval == 0 {
		o.CheckpointInterval = defaultCheckpointInterval
	}
	if o.KeepCheckpoints <= 0 {
		o.KeepCheckpoints = defaultKeepCheckpoints
	}
	if o.FS == nil {
		o.FS = storage.OS()
	}
	return o
}

// ShardDir returns the directory holding shard s's log and
// checkpoints under root.
func ShardDir(root string, shard int) string {
	return fmt.Sprintf("%s/shard-%d", root, shard)
}

// Stats are the durability counters of one runtime (shared by all its
// shard logs). Counters are atomic: the logs add from producer and
// flusher goroutines, monitoring snapshots concurrently.
type Stats struct {
	// Appends counts records appended; AppendBytes their framed size.
	Appends, AppendBytes atomic.Uint64
	// Fsyncs counts fsync calls (group commits under FsyncBatch).
	Fsyncs atomic.Uint64
	// Rotations counts segment rollovers; SegmentsRemoved counts dead
	// segments deleted by checkpoint truncation.
	Rotations, SegmentsRemoved atomic.Uint64
	// Checkpoints counts checkpoints written; CheckpointFailures the
	// attempts that errored.
	Checkpoints, CheckpointFailures atomic.Uint64
	// RecoveredEvents counts input tuples replayed from the WAL at
	// startup (a feedbatch record contributes its whole batch);
	// TornTruncations counts torn log tails detected and truncated.
	RecoveredEvents, TornTruncations atomic.Uint64
	// RecoveryNs is the wall-clock duration of the last recovery.
	RecoveryNs atomic.Uint64
}

// Snapshot copies the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	if s == nil {
		return StatsSnapshot{}
	}
	return StatsSnapshot{
		Appends:            s.Appends.Load(),
		AppendBytes:        s.AppendBytes.Load(),
		Fsyncs:             s.Fsyncs.Load(),
		Rotations:          s.Rotations.Load(),
		SegmentsRemoved:    s.SegmentsRemoved.Load(),
		Checkpoints:        s.Checkpoints.Load(),
		CheckpointFailures: s.CheckpointFailures.Load(),
		RecoveredEvents:    s.RecoveredEvents.Load(),
		TornTruncations:    s.TornTruncations.Load(),
		RecoveryNs:         s.RecoveryNs.Load(),
	}
}

// StatsSnapshot is an immutable copy of Stats.
type StatsSnapshot struct {
	Appends, AppendBytes             uint64
	Fsyncs                           uint64
	Rotations, SegmentsRemoved       uint64
	Checkpoints, CheckpointFailures  uint64
	RecoveredEvents, TornTruncations uint64
	RecoveryNs                       uint64
}

// Add returns the element-wise sum (RecoveryNs takes the maximum — the
// per-query recoveries of one node overlap in wall time).
func (s StatsSnapshot) Add(o StatsSnapshot) StatsSnapshot {
	out := StatsSnapshot{
		Appends:            s.Appends + o.Appends,
		AppendBytes:        s.AppendBytes + o.AppendBytes,
		Fsyncs:             s.Fsyncs + o.Fsyncs,
		Rotations:          s.Rotations + o.Rotations,
		SegmentsRemoved:    s.SegmentsRemoved + o.SegmentsRemoved,
		Checkpoints:        s.Checkpoints + o.Checkpoints,
		CheckpointFailures: s.CheckpointFailures + o.CheckpointFailures,
		RecoveredEvents:    s.RecoveredEvents + o.RecoveredEvents,
		TornTruncations:    s.TornTruncations + o.TornTruncations,
		RecoveryNs:         s.RecoveryNs,
	}
	if o.RecoveryNs > out.RecoveryNs {
		out.RecoveryNs = o.RecoveryNs
	}
	return out
}
