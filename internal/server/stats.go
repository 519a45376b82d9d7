package server

import (
	"io"
	"strconv"
	"strings"
	"time"

	"jisc/internal/admission"
	"jisc/internal/durable"
	"jisc/internal/metrics"
	"jisc/internal/obs"
	"jisc/internal/statestore"
)

// view is what one query serves, read once per STATS or /metrics
// request so the numbers of a reply belong to one gathering. The
// embedded serverView carries the quantities that are not per query.
type view struct {
	query string
	m     metrics.Snapshot
	o     obs.SetSnapshot
	d     durable.StatsSnapshot
	adm   admission.Stats
	spill statestore.Stats
	auto  autoView

	stateBytes, shed, subsDropped, subscribers, queueDepth, walSegments uint64
	serverView
}

type serverView struct {
	noWAL, unlogged, draining uint64
	conns                     admission.Stats
}

// autoView is a query's autopilot telemetry. All zeros while the
// autopilot is off — the counters belong to the running controller.
// ageMS is the age of its last migration (0 = never; clamped to ≥ 1
// when one happened, so "never" stays unambiguous).
type autoView struct {
	enabled, proposals, migrations, rollbacks, ageMS uint64
}

func readAuto(q *query) autoView {
	c := q.runner.Auto()
	if c == nil {
		return autoView{}
	}
	a := autoView{enabled: 1, proposals: c.Proposals(), migrations: c.Migrations(), rollbacks: c.Rollbacks()}
	if t := c.LastMigration(); !t.IsZero() {
		a.ageMS = uint64(max(time.Since(t).Milliseconds(), 1))
	}
	return a
}

func bit(on bool) uint64 {
	if on {
		return 1
	}
	return 0
}

func (s *Server) serverView() serverView {
	return serverView{
		noWAL:    bit(!s.durable.Enabled()),
		unlogged: s.walDisabled.Load(),
		draining: bit(s.draining.Load()),
		conns:    s.adm.Snapshot(),
	}
}

// gather reads q's view. Nothing here enters a shard's queue: the
// engine quantities are what each shard published at the end of its
// last batch or migration, and the rest are atomic counters. STATS,
// the protocol's barrier, flushes the query first.
func gather(q *query, sv serverView) view {
	v := view{query: q.name, serverView: sv}
	v.m = q.runner.Snapshot()
	v.stateBytes = uint64(q.runner.StateBytes())
	v.spill, _ = q.runner.SpillStats()
	v.o = q.obs.Snapshot()
	v.d = q.runner.DurableStats()
	v.adm = q.adm.Snapshot()
	v.auto = readAuto(q)
	v.shed = q.runner.Shed()
	v.subsDropped = q.dropped()
	v.subscribers = uint64(q.subscribers())
	v.queueDepth = uint64(q.runner.QueueLen())
	v.walSegments = uint64(q.runner.WALSegments())
	return v
}

// kind is a row's /metrics type.
type kind string

const (
	counter   kind = "counter"
	gauge     kind = "gauge"
	histogram kind = "histogram"
)

// metric is one served quantity: its STATS key, its /metrics family,
// or both, with the one getter behind either. The STATS line, AUTO
// STATUS, /metrics, the client's parser and the reference in README.md
// all come from metricTable; a new quantity is one new row there (and
// one README line, which TestMetricsReference checks).
type metric struct {
	key    string // STATS field; "" = /metrics only
	family string // /metrics family; "" = STATS only
	kind   kind
	// per is how many of the getter's units make one of the family's:
	// 1e9 for nanoseconds served as seconds, 0 for a raw value.
	per    float64
	server bool // server-wide: one unlabelled series
	auto   bool // also a field of AUTO STATUS, without the auto_ prefix
	help   string
	get    func(*view) uint64
	hist   func(*view) obs.HistSnapshot // histogram rows
	field  func(*Stats) *uint64         // keyed rows: where the client keeps it
}

// metricTable lists the keyed rows in STATS wire order.
var metricTable = []metric{
	{key: "input", family: "jisc_input_tuples_total", kind: counter, help: "tuples ingested", get: func(v *view) uint64 { return v.m.Input }, field: func(s *Stats) *uint64 { return &s.Input }},
	{key: "output", family: "jisc_output_tuples_total", kind: counter, help: "join results emitted", get: func(v *view) uint64 { return v.m.Output }, field: func(s *Stats) *uint64 { return &s.Output }},
	{key: "transitions", family: "jisc_transitions_total", kind: counter, help: "plan transitions installed", get: func(v *view) uint64 { return v.m.Transitions }, field: func(s *Stats) *uint64 { return &s.Transitions }},
	{key: "completions", family: "jisc_completions_total", kind: counter, help: "just-in-time state completions run", get: func(v *view) uint64 { return v.m.Completions }, field: func(s *Stats) *uint64 { return &s.Completions }},
	{family: "jisc_completed_entries_total", kind: counter, help: "state entries those completions rebuilt", get: func(v *view) uint64 { return v.m.CompletedEntries }},
	{key: "shed", family: "jisc_shed_tuples_total", kind: counter, help: "tuples dropped by the Shed queue-overflow policy", get: func(v *view) uint64 { return v.shed }, field: func(s *Stats) *uint64 { return &s.Shed }},
	{key: "feed_p50_ns", help: "median feed latency, ns: one FeedBatch call in 4 timed, its mean per-tuple time (0 until samples exist)", get: func(v *view) uint64 { return uint64(v.o.Feed.Quantile(0.50)) }, field: func(s *Stats) *uint64 { return &s.FeedP50Ns }},
	{key: "feed_p99_ns", help: "99th-percentile feed latency, ns, of the same per-call means", get: func(v *view) uint64 { return uint64(v.o.Feed.Quantile(0.99)) }, field: func(s *Stats) *uint64 { return &s.FeedP99Ns }},
	{key: "episodes", help: "completion episodes run (the count of jisc_completion_episode_seconds)", get: func(v *view) uint64 { return v.o.Completion.Count }, field: func(s *Stats) *uint64 { return &s.Episodes }},
	{key: "subs_dropped", family: "jisc_subscribers_dropped_total", kind: counter, help: "subscribers disconnected for falling SubscriberBuffer lines behind", get: func(v *view) uint64 { return v.subsDropped }, field: func(s *Stats) *uint64 { return &s.SubsDropped }},
	{family: "jisc_subscribers", kind: gauge, help: "live subscriber connections", get: func(v *view) uint64 { return v.subscribers }},
	{family: "jisc_queue_depth", kind: gauge, help: "queued, unprocessed messages across shards", get: func(v *view) uint64 { return v.queueDepth }},
	{family: "jisc_trace_events_total", kind: counter, help: "migration-lifecycle trace events emitted", get: func(v *view) uint64 { return v.o.TraceEmitted }},
	{family: "jisc_trace_dropped_total", kind: counter, help: "trace events overwritten before a /trace read", get: func(v *view) uint64 { return v.o.TraceDropped }},
	{key: "wal_appends", family: "jisc_wal_appends_total", kind: counter, help: "write-ahead-log records appended", get: func(v *view) uint64 { return v.d.Appends }, field: func(s *Stats) *uint64 { return &s.WALAppends }},
	{key: "wal_fsync_p99_ns", help: "99th-percentile WAL fsync duration, ns", get: func(v *view) uint64 { return uint64(v.o.WALFsync.Quantile(0.99)) }, field: func(s *Stats) *uint64 { return &s.WALFsyncP99Ns }},
	{key: "recovered_events", family: "jisc_recovered_events_total", kind: counter, help: "tuples replayed from the WAL at startup", get: func(v *view) uint64 { return v.d.RecoveredEvents }, field: func(s *Stats) *uint64 { return &s.RecoveredEvents }},
	{family: "jisc_wal_append_bytes_total", kind: counter, help: "bytes appended to the WAL", get: func(v *view) uint64 { return v.d.AppendBytes }},
	{family: "jisc_wal_fsyncs_total", kind: counter, help: "WAL fsyncs issued", get: func(v *view) uint64 { return v.d.Fsyncs }},
	{family: "jisc_wal_rotations_total", kind: counter, help: "WAL segment rotations", get: func(v *view) uint64 { return v.d.Rotations }},
	{family: "jisc_wal_segments_removed_total", kind: counter, help: "WAL segments deleted behind a checkpoint", get: func(v *view) uint64 { return v.d.SegmentsRemoved }},
	{family: "jisc_wal_torn_truncations_total", kind: counter, help: "torn WAL tails truncated during recovery", get: func(v *view) uint64 { return v.d.TornTruncations }},
	{family: "jisc_wal_segments", kind: gauge, help: "WAL segment files on disk", get: func(v *view) uint64 { return v.walSegments }},
	{family: "jisc_checkpoints_total", kind: counter, help: "checkpoints written", get: func(v *view) uint64 { return v.d.Checkpoints }},
	{family: "jisc_checkpoint_failures_total", kind: counter, help: "checkpoints that failed", get: func(v *view) uint64 { return v.d.CheckpointFailures }},
	{family: "jisc_recovery_seconds", kind: gauge, per: 1e9, help: "how long the last recovery took", get: func(v *view) uint64 { return v.d.RecoveryNs }},
	{family: "jisc_wal_disabled", kind: gauge, server: true, help: "1 while the server runs without a WAL", get: func(v *view) uint64 { return v.noWAL }},
	{family: "jisc_wal_disabled_mutations_total", kind: counter, server: true, help: "mutating commands executed without a WAL (a crash loses them)", get: func(v *view) uint64 { return v.unlogged }},
	{key: "batch_fill_p50", help: "median realized ingest batch size, tuples (0 until batches flow)", get: func(v *view) uint64 { return uint64(v.o.BatchFill.Quantile(0.50)) }, field: func(s *Stats) *uint64 { return &s.BatchFillP50 }},
	{key: "batch_flushes", family: "jisc_batch_flush_total", kind: counter, help: "ingest batches processed (FEEDB lines plus coalesced FEED runs)", get: func(v *view) uint64 { return v.o.BatchFill.Count }, field: func(s *Stats) *uint64 { return &s.BatchFlushes }},
	{key: "state_bytes", family: "jisc_state_bytes", kind: gauge, help: "resident state footprint across shards, bytes", get: func(v *view) uint64 { return v.stateBytes }, field: func(s *Stats) *uint64 { return &s.StateBytes }},
	{key: "spill_faults", family: "jisc_spill_fault_total", kind: counter, help: "spilled buckets read back by a probe (0 without a state budget)", get: func(v *view) uint64 { return v.spill.Faults }, field: func(s *Stats) *uint64 { return &s.SpillFaults }},
	{family: "jisc_spill_segments", kind: gauge, help: "spill segment files on disk", get: func(v *view) uint64 { return uint64(v.spill.Segments) }},
	{key: "auto_enabled", family: "jisc_auto_enabled", kind: gauge, auto: true, help: "1 while the autopilot is on for the query", get: func(v *view) uint64 { return v.auto.enabled }, field: func(s *Stats) *uint64 { return &s.AutoEnabled }},
	{key: "auto_proposals", family: "jisc_auto_proposals_total", kind: counter, auto: true, help: "plan changes the autopilot proposed since its last AUTO ON", get: func(v *view) uint64 { return v.auto.proposals }, field: func(s *Stats) *uint64 { return &s.AutoProposals }},
	{key: "auto_migrations", family: "jisc_auto_migrations_total", kind: counter, auto: true, help: "plan changes it installed", get: func(v *view) uint64 { return v.auto.migrations }, field: func(s *Stats) *uint64 { return &s.AutoMigrations }},
	{key: "auto_rollbacks", family: "jisc_auto_rollbacks_total", kind: counter, auto: true, help: "installed plans it rolled back", get: func(v *view) uint64 { return v.auto.rollbacks }, field: func(s *Stats) *uint64 { return &s.AutoRollbacks }},
	{key: "last_migration_age_ms", family: "jisc_auto_last_migration_seconds", kind: gauge, per: 1e3, auto: true, help: "time since the autopilot last installed a plan (0 = never; ≥ 1 ms otherwise)", get: func(v *view) uint64 { return v.auto.ageMS }, field: func(s *Stats) *uint64 { return &s.LastMigrationAgeMS }},
	{key: "admission_shed", family: "jisc_admission_shed_tuples_total", kind: counter, help: "tuples dropped by the ingest rate limiter (acknowledged OK)", get: func(v *view) uint64 { return v.adm.ShedTuples }, field: func(s *Stats) *uint64 { return &s.AdmissionShed }},
	{key: "deadline_shed", family: "jisc_admission_deadline_shed_tuples_total", kind: counter, help: "admitted tuples dropped in queue past their feed deadline", get: func(v *view) uint64 { return v.adm.DeadlineShedTuples }, field: func(s *Stats) *uint64 { return &s.DeadlineShed }},
	{key: "rejected", family: "jisc_admission_rejected_tuples_total", kind: counter, help: "tuples refused with ERR BUSY (in-flight budget or drain fence)", get: func(v *view) uint64 { return v.adm.RejectedTuples }, field: func(s *Stats) *uint64 { return &s.Rejected }},
	{key: "rejected_batches", family: "jisc_admission_rejected_batches_total", kind: counter, help: "batches refused with ERR BUSY", get: func(v *view) uint64 { return v.adm.RejectedBatches }, field: func(s *Stats) *uint64 { return &s.RejectedBatches }},
	{key: "inflight_bytes", family: "jisc_admission_inflight_bytes", kind: gauge, help: "admitted but unprocessed bytes (bounded by the in-flight budget)", get: func(v *view) uint64 { return uint64(v.adm.InflightBytes) }, field: func(s *Stats) *uint64 { return &s.InflightBytes }},
	{family: "jisc_admission_conns", kind: gauge, server: true, help: "open client connections", get: func(v *view) uint64 { return uint64(v.conns.Conns) }},
	{family: "jisc_admission_conns_rejected_total", kind: counter, server: true, help: "dials refused at the connection cap", get: func(v *view) uint64 { return v.conns.ConnRejected }},
	{key: "draining", family: "jisc_draining", kind: gauge, server: true, help: "1 while a graceful drain is in progress", get: func(v *view) uint64 { return v.draining }, field: func(s *Stats) *uint64 { return &s.Draining }},
	{family: "jisc_feed_latency_seconds", kind: histogram, per: 1e9, help: "feed latency: one FeedBatch call in 4 timed, recorded as its mean per-tuple time", hist: func(v *view) obs.HistSnapshot { return v.o.Feed }},
	{family: "jisc_probe_seconds", kind: histogram, per: 1e9, help: "per-operator probe time (one probe in 16 sampled)", hist: func(v *view) obs.HistSnapshot { return v.o.Probe }},
	{family: "jisc_build_seconds", kind: histogram, per: 1e9, help: "per-operator build time (sampled with the probes)", hist: func(v *view) obs.HistSnapshot { return v.o.Build }},
	{family: "jisc_completion_episode_seconds", kind: histogram, per: 1e9, help: "completion episode duration: the small pauses JISC trades the migration stall for", hist: func(v *view) obs.HistSnapshot { return v.o.Completion }},
	{family: "jisc_migrate_seconds", kind: histogram, per: 1e9, help: "per-transition Migrate call duration", hist: func(v *view) obs.HistSnapshot { return v.o.Migrate }},
	{family: "jisc_wal_append_seconds", kind: histogram, per: 1e9, help: "per-record WAL append duration", hist: func(v *view) obs.HistSnapshot { return v.o.WALAppend }},
	{family: "jisc_wal_fsync_seconds", kind: histogram, per: 1e9, help: "per-fsync flush and sync duration", hist: func(v *view) obs.HistSnapshot { return v.o.WALFsync }},
	{family: "jisc_spill_fault_seconds", kind: histogram, per: 1e9, help: "spilled-bucket fault duration (disk read and decode)", hist: func(v *view) obs.HistSnapshot { return v.o.SpillFault }},
	{family: "jisc_batch_fill", kind: histogram, help: "realized ingest batch sizes, tuples", hist: func(v *view) obs.HistSnapshot { return v.o.BatchFill }},
}

// appendFields appends " key=value" for every keyed row, or — for the
// AUTO STATUS line — for the autopilot's rows under their short names.
func (v *view) appendFields(b []byte, autoOnly bool) []byte {
	for i := range metricTable {
		r := &metricTable[i]
		if r.key == "" || autoOnly && !r.auto {
			continue
		}
		key := r.key
		if autoOnly {
			key = strings.TrimPrefix(key, "auto_")
		}
		b = append(append(append(b, ' '), key...), '=')
		b = strconv.AppendUint(b, r.get(v), 10)
	}
	return b
}

func (v *view) statsLine() []byte { return v.appendFields([]byte("STATS"), false) }

func (v *view) autoLine() []byte { return v.appendFields([]byte("AUTO query="+v.query), true) }

// writeMetrics renders the Prometheus text exposition: one TYPE line
// per family, then the server's one unlabelled series or one series
// per query.
func writeMetrics(w io.Writer, server *view, queries []view) {
	for i := range metricTable {
		r := &metricTable[i]
		if r.family == "" {
			continue
		}
		obs.WritePromType(w, r.family, string(r.kind))
		if r.server {
			r.writeSeries(w, "", server)
			continue
		}
		for j := range queries {
			r.writeSeries(w, obs.PromLabels(queries[j].query), &queries[j])
		}
	}
}

func (r *metric) writeSeries(w io.Writer, labels string, v *view) {
	switch r.kind {
	case histogram:
		obs.WritePromHistogramSeries(w, r.family, labels, r.hist(v), r.per != 0)
	case counter:
		obs.WritePromCounterSeries(w, r.family, labels, r.get(v))
	case gauge:
		x := float64(r.get(v))
		if r.per != 0 {
			x /= r.per
		}
		obs.WritePromGaugeSeries(w, r.family, labels, x)
	}
}
