package runtime

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"

	"jisc/internal/adaptive"
	"jisc/internal/admission"
	"jisc/internal/durable"
	"jisc/internal/engine"
	"jisc/internal/metrics"
	"jisc/internal/obs"
	"jisc/internal/plan"
	"jisc/internal/statestore"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// Runtime scales one continuous equi-join query across shard workers
// by hash-partitioning the join key: tuples with equal keys land on
// the same shard, and since every join in the query matches on that
// key, shards never need to exchange state. Each shard is a full
// Runner (engine + input queue); plan transitions fan out to all
// shards, each of which migrates independently under the configured
// strategy — JISC's lazy completion then proceeds per shard, on that
// shard's keys only.
//
// Windows are per shard: a count window of W tuples bounds each
// shard's per-stream state separately (the usual semantics of
// hash-partitioned stream processors). With eviction-free horizons
// (windows larger than the data) the output multiset is identical to
// a single-engine run; the tests assert exactly that.
type Runtime struct {
	shards []*Runner
	obs    *obs.Set
	adm    *admission.Controller // nil = admit everything

	// outMu serializes a shared Engine.Output across shards;
	// Config.ShardOutput sinks are per shard and never take it.
	outMu sync.Mutex

	// Durability state, nil/zero when Config.Durability is off. dur[i]
	// pairs shard i's WAL with the mutex that keeps WAL order identical
	// to enqueue order.
	dur       []*durShard
	durOpts   durable.Options
	durStats  *durable.Stats
	ckptStop  chan struct{}
	ckptDone  chan struct{}
	closeOnce sync.Once

	// Autopilot state, nil while AUTO is off. autoMu also serializes
	// StartAuto/StopAuto against each other.
	autoMu sync.Mutex
	auto   *adaptive.Controller
}

// New builds a Runtime with cfg.Shards workers (default 1).
// cfg.Engine.Output, if set, is serialized across shards;
// cfg.ShardOutput sinks are per shard and are not.
// cfg.QueueSize applies per shard.
func New(cfg Config) (*Runtime, error) {
	shards := cfg.Shards
	if shards == 0 {
		shards = 1
	}
	if shards < 0 {
		return nil, fmt.Errorf("runtime: need at least 1 shard, got %d", shards)
	}
	if err := validateAdmission(cfg); err != nil {
		return nil, err
	}
	rt := &Runtime{obs: cfg.Obs, adm: cfg.Admission}
	userOut := cfg.Engine.Output
	if userOut != nil && shards > 1 {
		cfg.Engine.Output = func(d engine.Delta) {
			rt.outMu.Lock()
			userOut(d)
			rt.outMu.Unlock()
		}
	}
	if cfg.Durability.Enabled() {
		if err := rt.recoverDurable(cfg, shards); err != nil {
			return nil, err
		}
		return rt.startConfiguredAuto(cfg)
	}
	baseEng := cfg.Engine
	budget := resolveStateBudget(baseEng.StateBudget, baseEng.Kind)
	for i := 0; i < shards; i++ {
		cfg.Engine = shardSpill(baseEng, budget, shards, i)
		if cfg.Obs != nil {
			// One recorder per shard; Set.Snapshot merges them, which
			// is exact because bucket boundaries are shared.
			cfg.Engine.Obs = cfg.Obs.Recorder(i)
		}
		r, err := newShardRunner(cfg, i)
		if err != nil {
			for _, prev := range rt.shards {
				prev.Close()
			}
			return nil, err
		}
		rt.shards = append(rt.shards, r)
	}
	return rt.startConfiguredAuto(cfg)
}

// startConfiguredAuto starts the autopilot requested by Config.Adaptive
// on a fully constructed (and, on the durable path, recovered) runtime.
func (rt *Runtime) startConfiguredAuto(cfg Config) (*Runtime, error) {
	if cfg.Adaptive == nil {
		return rt, nil
	}
	if err := rt.StartAuto(*cfg.Adaptive); err != nil {
		rt.Close()
		return nil, err
	}
	return rt, nil
}

// StartAuto starts a closed-loop autopilot on the runtime: an
// adaptive.Controller goroutine observing the merged scan statistics
// and migrating all shards when a better plan is confirmed. The
// controller's Tracer and Query default from the runtime's obs Set.
// Errors if an autopilot is already running.
func (rt *Runtime) StartAuto(cfg adaptive.Config) error {
	rt.autoMu.Lock()
	defer rt.autoMu.Unlock()
	if rt.auto != nil {
		return fmt.Errorf("runtime: autopilot already running")
	}
	if rt.obs != nil {
		if cfg.Tracer == nil {
			cfg.Tracer = rt.obs.Tracer
		}
		if cfg.Query == "" {
			cfg.Query = rt.obs.Query
		}
	}
	c, err := adaptive.New(rt, cfg)
	if err != nil {
		return err
	}
	rt.auto = c
	c.Start()
	return nil
}

// StopAuto stops the autopilot, waiting for any in-flight decision
// tick. A no-op when none is running.
func (rt *Runtime) StopAuto() {
	rt.autoMu.Lock()
	c := rt.auto
	rt.auto = nil
	rt.autoMu.Unlock()
	if c != nil {
		c.Stop()
	}
}

// Auto returns the running autopilot controller, nil when AUTO is off.
func (rt *Runtime) Auto() *adaptive.Controller {
	rt.autoMu.Lock()
	defer rt.autoMu.Unlock()
	return rt.auto
}

// resolveStateBudget interprets Config.Engine.StateBudget at the
// runtime level, where it is the TOTAL resident-state budget across
// all shards: positive is used as given (New splits it evenly), zero
// auto-sizes to half of GOMEMLIMIT when the operator set one (the
// other half is working memory — queues, scratch arenas, the Go
// runtime itself) and leaves spilling off otherwise, and negative
// forces spilling off regardless of GOMEMLIMIT. Set-difference
// pipelines never auto-enable: the engine does not support spilling
// them and would refuse to start.
func resolveStateBudget(budget int64, kind engine.Kind) int64 {
	switch {
	case budget > 0:
		return budget
	case budget < 0:
		return 0
	}
	if kind == engine.SetDiff {
		return 0
	}
	if lim := debug.SetMemoryLimit(-1); lim < math.MaxInt64 {
		return lim / 2
	}
	return 0
}

// shardSpill carves shard i's slice out of the runtime-wide spill
// configuration: an equal share of the total budget and a
// shard-private segment directory (shards run concurrently and must
// not share an active segment file).
func shardSpill(engCfg engine.Config, total int64, shards, i int) engine.Config {
	if total <= 0 {
		engCfg.StateBudget = 0
		return engCfg
	}
	per := total / int64(shards)
	if per <= 0 {
		per = 1
	}
	engCfg.StateBudget = per
	base := engCfg.SpillDir
	if base == "" && engCfg.SpillFS != nil {
		base = "jisc-spill"
	}
	if base != "" {
		engCfg.SpillDir = filepath.Join(base, fmt.Sprintf("shard-%d", i))
	}
	// base == "" on the real filesystem: each engine picks its own
	// temp directory, already shard-private.
	return engCfg
}

// SpillStats merges the tiered state store counters across shards; ok
// is false when spilling is off. The counters are atomic — safe from
// any goroutine, concurrently with the workers, including after Close.
func (rt *Runtime) SpillStats() (statestore.Stats, bool) {
	var total statestore.Stats
	any := false
	for _, r := range rt.shards {
		if s, ok := r.SpillStats(); ok {
			total = total.Add(s)
			any = true
		}
	}
	return total, any
}

// StateBytes sums the resident state footprint across shards, each
// read in-band on its worker after previously enqueued messages.
func (rt *Runtime) StateBytes() (int64, error) {
	var total int64
	for _, r := range rt.shards {
		b, err := r.StateBytes()
		if err != nil {
			return 0, err
		}
		total += b
	}
	return total, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Runtime {
	rt, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return rt
}

// Shards returns the shard count.
func (rt *Runtime) Shards() int { return len(rt.shards) }

// Partitions returns the shard count under its historical name.
func (rt *Runtime) Partitions() int { return len(rt.shards) }

// Shard returns shard i's Runner, for per-shard operations
// (checkpointing, diagnostics).
func (rt *Runtime) Shard(i int) *Runner { return rt.shards[i] }

// ShardOf returns the shard index a join key routes to in an n-shard
// runtime. Fibonacci hashing spreads sequential keys. Exported so an
// external model of the runtime — the simulation harness's per-shard
// oracle — can reproduce the routing exactly.
func ShardOf(key tuple.Value, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(key) * 0x9E3779B97F4A7C15
	return int(h % uint64(n))
}

// route picks the shard index for a join key.
func (rt *Runtime) route(ev workload.Event) int {
	return ShardOf(ev.Key, len(rt.shards))
}

// Feed enqueues one tuple on its key's shard, after the admission
// ladder when admission is configured: a rate-shed tuple returns nil
// (counted, never existed), a budget reject returns a retriable BUSY
// error. With durability on, the tuple is appended to that shard's
// write-ahead log first; it is not enqueued (and Feed does not return
// nil) unless the append succeeded.
func (rt *Runtime) Feed(ev workload.Event) error {
	deadlineNS, cost, ok, err := rt.admit(1)
	if !ok {
		return err
	}
	i := rt.route(ev)
	if rt.dur != nil {
		return rt.feedDurable(i, ev, cost)
	}
	return rt.shards[i].feedAdmitted(ev, deadlineNS, cost)
}

// Migrate transitions every shard to the new plan, in-band per shard.
// It returns the first error; shards that already migrated stay on the
// new plan (they run the same strategy, so a retry converges). With
// durability on, each shard logs a MIGRATE record before applying —
// recovery replays it, so a node that dies mid-lazy-migration resumes
// with the same incomplete-state metadata.
func (rt *Runtime) Migrate(p *plan.Plan) error {
	for i, r := range rt.shards {
		if rt.dur != nil {
			if err := rt.migrateDurable(i, p); err != nil {
				return err
			}
			continue
		}
		if err := r.Migrate(p); err != nil {
			return err
		}
	}
	return nil
}

// Flush waits for every shard to drain: when it returns, every tuple
// enqueued before the call has been fully processed and its outputs
// emitted. It is the deterministic drain barrier the simulation
// harness compares shard output against its oracle across — after a
// Flush, the runtime's cumulative output is a pure function of the
// fed event sequence, independent of worker scheduling.
func (rt *Runtime) Flush() error {
	for _, r := range rt.shards {
		if err := r.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Metrics aggregates the shard counters in-band: each shard reports
// after all its previously enqueued messages. See Snapshot for the
// live, non-blocking variant.
func (rt *Runtime) Metrics() (metrics.Snapshot, error) {
	snaps := make([]metrics.Snapshot, 0, len(rt.shards))
	for _, r := range rt.shards {
		s, err := r.Metrics()
		if err != nil {
			return metrics.Snapshot{}, err
		}
		snaps = append(snaps, s)
	}
	return metrics.MergeShards(snaps), nil
}

// Snapshot merges the shard counters live, without control-channel
// round trips: the per-engine collectors are atomic, so monitoring
// reads them concurrently with the workers and never queues behind
// tuples. Safe from any goroutine, including after Close.
func (rt *Runtime) Snapshot() metrics.Snapshot {
	snaps := make([]metrics.Snapshot, 0, len(rt.shards))
	for _, r := range rt.shards {
		snaps = append(snaps, r.Snapshot())
	}
	return metrics.MergeShards(snaps)
}

// Obs returns the runtime's observability set (Config.Obs), nil when
// instrumentation is off.
func (rt *Runtime) Obs() *obs.Set { return rt.obs }

// ObsSnapshot merges the per-shard latency histograms live, the
// observability companion of Snapshot: recorders are atomic, so
// monitoring reads them concurrently with the workers. An empty
// snapshot when instrumentation is off.
func (rt *Runtime) ObsSnapshot() obs.SetSnapshot { return rt.obs.Snapshot() }

// Shed sums the tuples dropped by the Shed overflow policy across
// shards.
func (rt *Runtime) Shed() uint64 {
	var total uint64
	for _, r := range rt.shards {
		total += r.Shed()
	}
	return total
}

// QueueLen sums the input-buffer occupancy across shards.
func (rt *Runtime) QueueLen() int {
	total := 0
	for _, r := range rt.shards {
		total += r.QueueLen()
	}
	return total
}

// Plan returns the currently executing plan, observed on shard 0 —
// migrations fan out to every shard in order, so shard 0 is never
// behind the others' plan.
func (rt *Runtime) Plan() (*plan.Plan, error) { return rt.shards[0].Plan() }

// ScanStats sums the per-stream scan counters across shards, each read
// in-band on its worker. The sums are cumulative like the per-shard
// counters; consumers diff successive readings (optimizer.Advisor
// rebaselines when a transition resets them). During a Migrate fan-out
// shards can briefly disagree on the plan; summing over the stream
// union keeps the reading well-defined.
func (rt *Runtime) ScanStats() ([]engine.ScanStats, error) {
	byStream := make(map[tuple.StreamID]engine.ScanStats)
	for _, r := range rt.shards {
		stats, err := r.ScanStats()
		if err != nil {
			return nil, err
		}
		for _, s := range stats {
			agg := byStream[s.Stream]
			agg.Stream = s.Stream
			agg.Probes += s.Probes
			agg.Matches += s.Matches
			agg.ProbeNanos += s.ProbeNanos
			agg.ProbeSamples += s.ProbeSamples
			byStream[s.Stream] = agg
		}
	}
	out := make([]engine.ScanStats, 0, len(byStream))
	for _, s := range byStream {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stream < out[j].Stream })
	return out, nil
}

// Checkpoint serializes the single shard's state to w. With several
// shards there is no single consistent stream; use CheckpointShard
// per shard instead.
func (rt *Runtime) Checkpoint(w io.Writer) error {
	if len(rt.shards) > 1 {
		return fmt.Errorf("runtime: %d shards have no single checkpoint stream; checkpoint each shard", len(rt.shards))
	}
	return rt.shards[0].Checkpoint(w)
}

// CheckpointShard serializes shard i's state to w, in-band on that
// shard's worker.
func (rt *Runtime) CheckpointShard(i int, w io.Writer) error {
	if i < 0 || i >= len(rt.shards) {
		return fmt.Errorf("runtime: no shard %d (have %d)", i, len(rt.shards))
	}
	return rt.shards[i].Checkpoint(w)
}

// Close stops every shard. With durability on, each shard's log is
// flushed and closed before its worker: a Feed that raced with Close
// either logged-and-enqueued its tuple (the worker drains it) or
// failed at the log, never one without the other. Close writes no
// final checkpoint — a graceful shutdown under FsyncAlways leaves the
// same disk state as a crash, which is exactly what the recovery-
// equivalence tests rely on.
func (rt *Runtime) Close() {
	rt.closeOnce.Do(func() {
		// The autopilot goes first: its decision ticks send control
		// messages to the shards, so they must still be alive here.
		rt.StopAuto()
		if rt.ckptStop != nil {
			close(rt.ckptStop)
			<-rt.ckptDone
		}
		for i, r := range rt.shards {
			if rt.dur != nil {
				d := rt.dur[i]
				d.mu.Lock()
				d.log.Close()
				d.mu.Unlock()
			}
			r.Close()
		}
	})
}
