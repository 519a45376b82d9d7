// Package runtime is the one execution entry point around the
// deterministic engine: config → N shards → router → merged
// metrics/output. A Runtime hash-partitions a query across N shards —
// each a worker goroutine owning one engine behind a buffered input
// queue (the §2.1 input buffers) — fans plan transitions out to every
// shard, and merges what their engines publish at every batch end
// (engine.View): a queue carries tuples and the controls that mutate or
// fence (Migrate, Checkpoint, Flush), never a read. cmd/jiscd,
// cmd/jiscbench, the public jisc.AsyncQuery and internal/server all
// construct it through New; a one-shard Runtime is the single-worker
// harness.
//
// The harness makes the paper's latency story observable with real
// wall-clock concurrency: under a lazy strategy (core.JISC) the worker
// keeps emitting results throughout a transition, while an eager
// strategy (migrate.MovingState) stalls the worker and the queue
// grows — exactly the input-buffer-overflow risk §3.2 warns about.
package runtime

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime/debug"
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

// ErrClosed is returned by Runtime methods after Close.
var ErrClosed = errors.New("runtime: closed")

// Overflow selects what Feed does when the input queue is full.
type Overflow int

const (
	// Block applies backpressure: Feed waits for queue space.
	Block Overflow = iota
	// Shed drops the newest tuple instead of blocking — the "tuple
	// load shedding ... when tuples overflow the input buffers" that
	// §2.1 mentions as the alternative to halting. Shed tuples are
	// counted (Runtime.Shed) and simply never existed as far as the
	// query is concerned.
	Shed
)

// Config parameterizes a Runtime.
type Config struct {
	// Engine configures the wrapped engine(s). Engine.Output is
	// invoked on the worker goroutine; with several shards, calls are
	// serialized across shards.
	Engine engine.Config
	// ShardOutput, when non-nil, gives each shard its own result sink in
	// place of the shared Engine.Output (over which it takes precedence):
	// it is called once per shard at construction. sink is that shard's
	// engine's Sink; it runs on the shard's worker goroutine with no lock
	// around the call — so never concurrently with itself, but
	// concurrently with the other shards' sinks. A shared sink is an
	// Output only: Engine.Sink must be nil. batchEnd (may be nil) runs on the same goroutine after every feed
	// message the worker has processed, and after a transition before
	// Migrate is answered: a sink that buffers results hands them on
	// there. The worker thus never waits on its queue or
	// answers a control message (Flush, Checkpoint) with results still
	// buffered — after Flush returns, every result of the earlier feeds
	// has passed a batchEnd.
	ShardOutput func(shard int) (sink engine.Sink, batchEnd func())
	// QueueSize is the input-queue capacity (default 1024), per
	// shard. Feed blocks when the queue is full — the backpressure
	// equivalent of the paper's buffer-overflow discussion.
	QueueSize int
	// Overflow selects blocking backpressure (default) or load
	// shedding when the queue is full. Control messages (Migrate,
	// Checkpoint, Flush) always block; only tuples are shed.
	Overflow Overflow
	// Shards is the worker count (default 1).
	Shards int
	// Obs, when non-nil, turns on latency instrumentation: each
	// shard's engine records into Obs.Recorder(shard) — merged by
	// Runtime.ObsSnapshot — and migration lifecycle events go to
	// Obs.Tracer. Takes precedence over Engine.Obs.
	Obs *obs.Set
	// Durability, when enabled (Dir set), makes the Runtime durable:
	// every Feed and Migrate is appended to a per-shard write-ahead log
	// before it is enqueued, background checkpoints bound replay time,
	// and New recovers each shard from disk (checkpoint + WAL tail)
	// instead of starting empty. Incompatible with the Shed overflow
	// policy.
	Durability durable.Options
	// Admission, when non-nil, puts the controller's degradation
	// ladder in front of Feed/FeedBatch: rate-limited traffic is shed
	// counted, traffic beyond the in-flight byte budget is rejected
	// with a retriable BUSY error, and (with FeedDeadline set) workers
	// shed admitted batches whose deadline passed before dequeue. One
	// controller spans all shards of a Runtime. A FeedDeadline is
	// incompatible with Durability.
	Admission *admission.Controller
}

// validate is the one check of a Config, run at the top of New.
func (cfg Config) validate() error {
	switch {
	case cfg.Shards < 0:
		return fmt.Errorf("runtime: need at least 1 shard, got %d", cfg.Shards)
	case cfg.QueueSize < 0:
		return fmt.Errorf("runtime: negative queue size %d", cfg.QueueSize)
	case cfg.Engine.Sink != nil:
		return errors.New("runtime: a Sink belongs to one shard; set it through ShardOutput")
	case !cfg.Durability.Enabled():
		return nil
	case cfg.Overflow == Shed:
		// A shed tuple is dropped after acknowledgment without ever
		// reaching the log, so the WAL could not tell a shed tuple from
		// a lost one — replay would be nondeterministic. Backpressure
		// (Block) is the only overflow policy with an exact log.
		return errors.New("runtime: the Shed overflow policy cannot be combined with durability (the log cannot tell a shed tuple from a lost one); use Block")
	case cfg.Admission.FeedDeadline() > 0:
		// A deadline shed happens at dequeue, after the WAL append:
		// replay would resurrect the shed batch and recovered STATS
		// would diverge from the live run. Rate and budget limits are
		// fine — they act before the log.
		return errors.New("runtime: a feed deadline cannot be combined with durability (replay would resurrect a batch shed after it was logged); shed before the log or not at all")
	}
	return nil
}

// Runtime scales one continuous equi-join query across shard workers
// by hash-partitioning the join key: tuples with equal keys land on
// the same shard, and since every join in the query matches on that
// key, shards never need to exchange state. Each shard is a full
// engine behind its own input queue; plan transitions fan out to all
// shards, each of which migrates independently under the configured
// strategy — JISC's lazy completion then proceeds per shard, on that
// shard's keys only. All methods are safe for concurrent use.
//
// Windows are per shard, under both clocks: a shard's engine counts
// only its own arrivals. A count window of W holds the last W tuples of
// a stream that reached the shard, and a time window's ticks are the
// shard's arrivals, so with N shards a tuple stays joinable for about N
// times as many of the query's arrivals (the usual semantics of
// hash-partitioned stream processors). Each shard's results are those
// of one engine fed that shard's partition (ShardOf); with
// eviction-free horizons (windows larger than the data) the output
// multiset is identical to a single-engine run. The tests assert both.
type Runtime struct {
	shards []*shard
	obs    *obs.Set
	adm    *admission.Controller // nil = admit everything

	// outMu serializes a shared Engine.Output across shards;
	// Config.ShardOutput sinks are per shard and never take it.
	outMu sync.Mutex

	// Durability state, zero when Config.Durability is off (each
	// shard's log lives on the shard).
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
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n, queue := cfg.Shards, cfg.QueueSize
	if n == 0 {
		n = 1
	}
	if queue == 0 {
		queue = 1024
	}
	rt := &Runtime{obs: cfg.Obs, adm: cfg.Admission, shards: make([]*shard, n)}
	if userOut := cfg.Engine.Output; userOut != nil && n > 1 {
		cfg.Engine.Output = func(d engine.Delta) {
			rt.outMu.Lock()
			userOut(d)
			rt.outMu.Unlock()
		}
	}
	engCfgs := make([]engine.Config, n)
	budget := resolveStateBudget(cfg.Engine.StateBudget)
	for i := range rt.shards {
		s := &shard{in: make(chan message, queue), overflow: cfg.Overflow, adm: cfg.Admission}
		engCfgs[i] = shardSpill(cfg.Engine, budget, n, i)
		if cfg.Obs != nil {
			// One recorder per shard; Set.Snapshot merges them, which
			// is exact because bucket boundaries are shared.
			engCfgs[i].Obs = cfg.Obs.Recorder(i)
		}
		if cfg.ShardOutput != nil {
			engCfgs[i].Output = nil
			engCfgs[i].Sink, s.batchEnd = cfg.ShardOutput(i)
		}
		rt.shards[i] = s
	}
	var err error
	if cfg.Durability.Enabled() {
		err = rt.recoverDurable(cfg.Durability.WithDefaults(), engCfgs)
	} else {
		for i, s := range rt.shards {
			if s.eng, err = engine.New(engCfgs[i]); err != nil {
				break
			}
		}
	}
	if err != nil {
		for _, s := range rt.shards {
			s.discard()
		}
		return nil, err
	}
	for _, s := range rt.shards {
		s.start()
	}
	if rt.durOpts.CheckpointInterval > 0 {
		rt.ckptStop = make(chan struct{})
		rt.ckptDone = make(chan struct{})
		go rt.checkpointLoop(rt.durOpts.CheckpointInterval)
	}
	return rt, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Runtime {
	rt, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return rt
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
// other half is working memory — queues, scratch buffers, the Go
// runtime itself) and leaves spilling off otherwise, and negative
// forces spilling off regardless of GOMEMLIMIT.
func resolveStateBudget(budget int64) int64 {
	switch {
	case budget > 0:
		return budget
	case budget < 0:
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

// Shards returns the shard count.
func (rt *Runtime) Shards() int { return len(rt.shards) }

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

// Feed is FeedBatch of one tuple: the same admission ladder, overflow
// policy and, with durability on, log record before the enqueue.
func (rt *Runtime) Feed(ev workload.Event) error {
	evs := [1]workload.Event{ev}
	return rt.FeedBatch(evs[:])
}

// Migrate transitions every shard to the new plan, in-band per shard:
// tuples enqueued before the call are processed by the old plan, tuples
// enqueued after it by the new one. It returns the first error; shards
// that already migrated stay on the new plan (they run the same
// strategy, so a retry converges). With durability on, each shard logs
// a MIGRATE record before applying — recovery replays it, so a node
// that dies mid-lazy-migration resumes with the same incomplete-state
// metadata.
func (rt *Runtime) Migrate(p *plan.Plan) error {
	for _, s := range rt.shards {
		if err := s.migrate(p); err != nil {
			return err
		}
	}
	return nil
}

// migrate is one shard's step of the Migrate fan-out.
func (s *shard) migrate(p *plan.Plan) error {
	return s.do(
		func(l *durable.Log) error {
			_, err := l.AppendMigrate(p.String())
			return err
		},
		func(e *engine.Engine) error {
			err := e.Migrate(p)
			s.batchEnd()
			return err
		})
}

// Flush waits for every shard to drain: when it returns, every tuple
// enqueued before the call has been fully processed and its outputs
// emitted. It is the deterministic drain barrier the simulation
// harness compares shard output against its oracle across — after a
// Flush, the runtime's cumulative output is a pure function of the
// fed event sequence, independent of worker scheduling.
func (rt *Runtime) Flush() error {
	for _, s := range rt.shards {
		if err := s.do(nil, func(*engine.Engine) error { return nil }); err != nil {
			return err
		}
	}
	return nil
}

// Metrics is Flush followed by Snapshot: the merged counters after
// every message enqueued before the call.
func (rt *Runtime) Metrics() (metrics.Snapshot, error) {
	if err := rt.Flush(); err != nil {
		return metrics.Snapshot{}, err
	}
	return rt.Snapshot(), nil
}

// Obs returns the runtime's observability set (Config.Obs), nil when
// instrumentation is off.
func (rt *Runtime) Obs() *obs.Set { return rt.obs }

// The monitor reads below never enter a shard's queue: each reads what
// the shards' engines published at their last batch end (engine.View)
// or an atomic counter, so it answers at once however long the queues
// are. Each is safe from any goroutine, including after Close.

// Snapshot merges the shard counters, each as of that shard's last
// finished batch or migration.
func (rt *Runtime) Snapshot() metrics.Snapshot {
	snaps := make([]metrics.Snapshot, len(rt.shards))
	for i, s := range rt.shards {
		snaps[i] = s.eng.View().Metrics()
	}
	return metrics.MergeShards(snaps)
}

// Plan returns the plan shard 0 last applied. Migrate fans out to the
// shards in order, so shard 0 is never behind the others' plan; a
// migration still queued does not show.
func (rt *Runtime) Plan() *plan.Plan { return rt.shards[0].eng.View().Plan() }

// ScanStats sums the per-stream scan counters across shards, whose
// plans cover the same streams. The sums are cumulative; consumers diff
// successive readings (the autopilot's advisor rebaselines when a
// transition resets them).
func (rt *Runtime) ScanStats() []engine.ScanStats {
	out := rt.shards[0].eng.View().ScanStats()
	for _, s := range rt.shards[1:] {
		for i, st := range s.eng.View().ScanStats() {
			out[i].Probes += st.Probes
			out[i].Matches += st.Matches
		}
	}
	return out
}

// StateBytes sums the resident state footprint across shards.
func (rt *Runtime) StateBytes() int64 {
	var total int64
	for _, s := range rt.shards {
		total += s.eng.View().StateBytes()
	}
	return total
}

// SpillStats merges the tiered state store counters across shards; ok
// is false when spilling is off. The store's counters are atomic.
func (rt *Runtime) SpillStats() (total statestore.Stats, ok bool) {
	for _, s := range rt.shards {
		st, on := s.eng.SpillStats() // zero when off
		total, ok = total.Add(st), ok || on
	}
	return total, ok
}

// ObsSnapshot merges the per-shard latency histograms; an empty
// snapshot when instrumentation is off.
func (rt *Runtime) ObsSnapshot() obs.SetSnapshot { return rt.obs.Snapshot() }

// Shed sums the tuples dropped by the Shed overflow policy across
// shards.
func (rt *Runtime) Shed() uint64 {
	var total uint64
	for _, s := range rt.shards {
		total += s.shed.Load()
	}
	return total
}

// QueueLen sums the queued, unprocessed messages across shards — the
// input-buffer occupancy §3.2's overflow discussion is about.
func (rt *Runtime) QueueLen() int {
	total := 0
	for _, s := range rt.shards {
		total += len(s.in)
	}
	return total
}

// Close stops every shard, draining its queue first, and returns once
// all processing has finished; it is idempotent. Close writes no final
// checkpoint — a graceful shutdown under FsyncAlways leaves the same
// disk state as a crash, which is exactly what the recovery-
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
		for _, s := range rt.shards {
			s.close()
		}
	})
}
