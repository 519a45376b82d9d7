// Package obs is the observability layer: low-overhead latency
// histograms, migration-lifecycle event tracing, and the Prometheus
// text formatting behind the telemetry endpoint.
//
// The paper's headline claim is about latency — lazy state completion
// (JISC) trades one large migration stall for many small per-probe
// completion episodes — and counters alone cannot show that. This
// package records the distributions: feed latency (a sampled
// FeedBatch call's mean per-tuple time), per-operator probe/build time (sampled), per-completion-
// episode duration, and per-transition Migrate duration (the stall an
// eager strategy pays).
//
// The hot-path discipline matches internal/metrics: histograms are
// fixed arrays of sync/atomic counters, recorded by the executor
// goroutine and snapshotted concurrently by monitoring without locks
// or channel round trips. The tracer is mutex-guarded but only fires
// on migration lifecycle events, never per tuple. Everything is
// optional: a nil *Recorder on an engine, or nil *Tracer anywhere,
// disables the corresponding instrumentation entirely.
//
// Wiring: one Set per continuous query, one Recorder per runtime
// shard (Set.Recorder), one shared Tracer per Set. Set.Snapshot merges
// the per-shard histograms — merging is exact because every histogram
// shares the same fixed bucket boundaries.
package obs

import (
	"sync"
)

// sampleEvery is the probe/build sampling period: one in sampleEvery
// operator probes is timed. feedEvery is the feed sampling period: one
// in feedEvery FeedBatch calls is timed, as a whole. Timing everything would put several clock reads on every
// tuple (~25% on the steady-state feed benchmark); sampling keeps the
// overhead within the ≤10% budget while the histograms still converge
// on the true distributions — the workload's arrival pattern is not
// correlated with the sample phase.
const (
	sampleEvery = 16
	feedEvery   = 4
)

// Recorder bundles one engine's (one shard's) latency histograms and
// its link to the query-wide tracer. Fields are recorded by the engine
// hot path and read by monitoring via Snapshot; a Recorder must not be
// copied after first use.
type Recorder struct {
	// Feed is the feed latency — window slide, scan insert, every
	// probe/build level, output emission. One FeedBatch call in
	// feedEvery is timed and recorded as one sample: that call's mean
	// per-tuple time, so a batch of n tuples counts once, not n times.
	Feed Histogram
	// Probe holds sampled per-operator probe durations (hash lookup or
	// nested-loops scan of the opposite state).
	Probe Histogram
	// Build holds sampled per-operator build durations (composite
	// construction + state insert).
	Build Histogram
	// Completion holds per-completion-episode durations — the many
	// small pauses JISC trades the one big stall for.
	Completion Histogram
	// Migrate holds per-transition Migrate durations: the buffer-
	// clearing phase plus the strategy's OnTransition (for an eager
	// strategy, the halt the paper's §3.2 describes).
	Migrate Histogram
	// WALAppend and WALFsync time the durability layer: per-record
	// write-ahead-log append (encode + buffered write + any policy
	// fsync) and per-fsync flush+sync duration (one sample per group
	// commit under the batch policy). Unlike the engine histograms
	// these are recorded from producer and flusher goroutines, which
	// is safe — Histogram is atomic; only the Sample* phase counters
	// are executor-only, and the WAL does not use them.
	WALAppend Histogram
	WALFsync  Histogram
	// BatchFill holds realized ingest batch sizes (tuples per
	// FeedBatch call), not durations: Observe takes the batch length
	// and Count doubles as the batch-flush counter. Rendered with raw
	// bucket bounds, never as seconds.
	BatchFill Histogram
	// SpillFault times tiered-state bucket faults: the disk read +
	// decode a probe pays when its bucket was spilled past the state
	// budget. Count doubles as the fault counter. Recorded by the
	// statestore on the executor goroutine.
	SpillFault Histogram

	// Query and Shard label trace events emitted through this
	// recorder.
	Query string
	Shard int
	// Tracer receives migration-lifecycle events; nil disables
	// tracing.
	Tracer *Tracer

	// probes and feeds are the sampling phases. Deliberately plain
	// (non-atomic) counters: Sample* may only be called by the one
	// executor goroutine that owns the shard, and snapshots never read
	// them — so the hot path pays no atomic RMW just to decide whether
	// to time something.
	probes uint64
	feeds  uint64
}

// SampleProbe reports whether this probe should be timed, advancing
// the sampling phase. Must be called only from the shard's executor
// goroutine. Safe for nil recorders (false).
func (r *Recorder) SampleProbe() bool {
	if r == nil {
		return false
	}
	r.probes++
	return r.probes%sampleEvery == 0
}

// SampleFeed reports whether this FeedBatch call should be timed,
// advancing the sampling phase. Must be called only
// from the shard's executor goroutine. Safe for nil recorders (false).
func (r *Recorder) SampleFeed() bool {
	if r == nil {
		return false
	}
	r.feeds++
	return r.feeds%feedEvery == 0
}

// ObserveBatchFill records one ingest batch of n tuples. Safe for nil
// recorders.
func (r *Recorder) ObserveBatchFill(n int) {
	if r == nil {
		return
	}
	r.BatchFill.Observe(uint64(n))
}

// Snapshot copies the recorder's histograms.
func (r *Recorder) Snapshot() SetSnapshot {
	return SetSnapshot{
		Feed:       r.Feed.Snapshot(),
		Probe:      r.Probe.Snapshot(),
		Build:      r.Build.Snapshot(),
		Completion: r.Completion.Snapshot(),
		Migrate:    r.Migrate.Snapshot(),
		WALAppend:  r.WALAppend.Snapshot(),
		WALFsync:   r.WALFsync.Snapshot(),
		BatchFill:  r.BatchFill.Snapshot(),
		SpillFault: r.SpillFault.Snapshot(),
	}
}

// Set is the per-query observability bundle: one Recorder per runtime
// shard plus the shared event tracer.
type Set struct {
	// Query names the continuous query the set belongs to.
	Query string
	// Tracer is shared by every shard's recorder. May be nil.
	Tracer *Tracer

	mu   sync.Mutex
	recs []*Recorder
}

// NewSet builds a Set with a tracer holding traceCap events
// (DefaultTraceCap when ≤ 0).
func NewSet(query string, traceCap int) *Set {
	return &Set{Query: query, Tracer: NewTracer(traceCap)}
}

// Recorder returns the recorder for the given shard, creating it on
// first use. Safe for concurrent use; safe on a nil Set (returns nil).
func (s *Set) Recorder(shard int) *Recorder {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.recs {
		if r.Shard == shard {
			return r
		}
	}
	r := &Recorder{Query: s.Query, Shard: shard, Tracer: s.Tracer}
	s.recs = append(s.recs, r)
	return r
}

// Recorders returns the live recorders.
func (s *Set) Recorders() []*Recorder {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Recorder(nil), s.recs...)
}

// Snapshot merges every shard's histograms into one SetSnapshot —
// exact because all histograms share the same bucket boundaries. Safe
// from any goroutine, concurrently with recording; a nil Set yields an
// empty snapshot.
func (s *Set) Snapshot() SetSnapshot {
	var out SetSnapshot
	if s == nil {
		return out
	}
	for _, r := range s.Recorders() {
		out = out.Add(r.Snapshot())
	}
	out.TraceDropped = s.Tracer.Dropped()
	out.TraceEmitted = s.Tracer.Emitted()
	return out
}

// SetSnapshot is the merged, immutable view of a Set (or of one
// Recorder).
type SetSnapshot struct {
	Feed       HistSnapshot
	Probe      HistSnapshot
	Build      HistSnapshot
	Completion HistSnapshot
	Migrate    HistSnapshot
	WALAppend  HistSnapshot
	WALFsync   HistSnapshot
	// BatchFill buckets hold batch sizes in tuples, not nanoseconds.
	BatchFill HistSnapshot
	// SpillFault holds tiered-state bucket fault latencies; its Count
	// is the fault total.
	SpillFault HistSnapshot

	// TraceDropped and TraceEmitted mirror the tracer's drop
	// accounting at snapshot time.
	TraceDropped uint64
	TraceEmitted uint64
}

// Add merges two snapshots element-wise.
func (s SetSnapshot) Add(o SetSnapshot) SetSnapshot {
	return SetSnapshot{
		Feed:         s.Feed.Add(o.Feed),
		Probe:        s.Probe.Add(o.Probe),
		Build:        s.Build.Add(o.Build),
		Completion:   s.Completion.Add(o.Completion),
		Migrate:      s.Migrate.Add(o.Migrate),
		WALAppend:    s.WALAppend.Add(o.WALAppend),
		WALFsync:     s.WALFsync.Add(o.WALFsync),
		BatchFill:    s.BatchFill.Add(o.BatchFill),
		SpillFault:   s.SpillFault.Add(o.SpillFault),
		TraceDropped: s.TraceDropped + o.TraceDropped,
		TraceEmitted: s.TraceEmitted + o.TraceEmitted,
	}
}
