// Package runtime is the unified execution entry point around the
// deterministic engine: config → N shards → router → merged
// metrics/output. A Runner is one worker goroutine owning one engine
// behind a buffered input queue (the §2.1 input buffers); a Runtime
// hash-partitions a query across N Runners, fans plan transitions out
// to every shard, and merges their metrics without control-channel
// round trips (the collectors are atomic). cmd/jiscd, cmd/jiscbench,
// and internal/server all construct this entry point; package pipeline
// re-exports it under its historical names.
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
	"io"
	"sync"
	"sync/atomic"

	"jisc/internal/adaptive"
	"jisc/internal/admission"
	"jisc/internal/durable"
	"jisc/internal/engine"
	"jisc/internal/metrics"
	"jisc/internal/obs"
	"jisc/internal/plan"
	"jisc/internal/statestore"
	"jisc/internal/workload"
)

// ErrClosed is returned by Runner and Runtime methods after Close.
var ErrClosed = errors.New("runtime: runner closed")

type msgKind int

const (
	msgFeed msgKind = iota
	msgFeedBatch
	msgMigrate
	msgFlush
	msgMetrics
	msgPlan
	msgCheckpoint
	msgScanStats
	msgStateBytes
)

type message struct {
	kind    msgKind
	ev      workload.Event
	batch   *[]workload.Event // msgFeedBatch: pooled, recycled by the worker
	migrate *plan.Plan
	done    chan error
	snap    chan metrics.Snapshot
	planCh  chan *plan.Plan
	ckptW   io.Writer
	scanCh  chan []engine.ScanStats
	bytesCh chan int64

	// Admission metadata on msgFeed/msgFeedBatch, zero without an
	// admission controller: deadlineNS is the unix-nano point after
	// which the worker sheds the tuples instead of processing them
	// late; cost is the in-flight byte reservation the worker releases
	// once the message leaves the queue (processed or shed).
	deadlineNS int64
	cost       int64
}

// Runner executes one continuous query on a dedicated worker
// goroutine. All methods are safe for concurrent use.
type Runner struct {
	in       chan message
	worker   sync.WaitGroup
	overflow Overflow
	shed     atomic.Uint64
	adm      *admission.Controller // nil = admit everything
	// batchEnd is the shard's result-batch boundary (Config.ShardOutput),
	// a no-op when the sink does not buffer.
	batchEnd func()

	mu     sync.Mutex
	closed bool
	eng    *engine.Engine
}

// Overflow selects what Feed does when the input queue is full.
type Overflow int

const (
	// Block applies backpressure: Feed waits for queue space.
	Block Overflow = iota
	// Shed drops the newest tuple instead of blocking — the "tuple
	// load shedding ... when tuples overflow the input buffers" that
	// §2.1 mentions as the alternative to halting. Shed tuples are
	// counted (Runner.Shed) and simply never existed as far as the
	// query is concerned.
	Shed
)

// Config parameterizes a Runner or a Runtime.
type Config struct {
	// Engine configures the wrapped engine(s). Engine.Output is
	// invoked on the worker goroutine; with several shards, calls are
	// serialized across shards.
	Engine engine.Config
	// ShardOutput, when non-nil, gives each shard its own result sink in
	// place of the shared Engine.Output (over which it takes precedence):
	// it is called once per shard at construction. out receives that shard's
	// results on its worker goroutine with no lock around the call — so
	// never concurrently with itself, but concurrently with the other
	// shards' sinks. batchEnd (may be nil) runs on the same goroutine
	// after every feed message the worker has processed, and after a
	// transition before Migrate is answered: a sink that buffers results
	// hands them on there. The worker thus never waits on its queue or
	// answers a control message (Flush, Metrics, Checkpoint, …) with
	// results still buffered — after Flush returns, every result of the
	// earlier feeds has passed a batchEnd.
	ShardOutput func(shard int) (out engine.Output, batchEnd func())
	// QueueSize is the input-queue capacity (default 1024), per
	// shard. Feed blocks when the queue is full — the backpressure
	// equivalent of the paper's buffer-overflow discussion.
	QueueSize int
	// Overflow selects blocking backpressure (default) or load
	// shedding when the queue is full. Control messages (Migrate,
	// Flush, Metrics) always block; only tuples are shed.
	Overflow Overflow
	// Shards is the worker count of a Runtime (default 1). Ignored by
	// NewRunner.
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
	// policy. Ignored by NewRunner.
	Durability durable.Options
	// Adaptive, when non-nil, starts a closed-loop autopilot on the
	// Runtime: an adaptive.Controller goroutine that watches the merged
	// scan statistics and migrates all shards when a better plan is
	// confirmed (New starts it — after recovery on the durable path —
	// and Close stops it first). Its Tracer/Query default from Obs.
	// Ignored by NewRunner; see also Runtime.StartAuto.
	Adaptive *adaptive.Config
	// Admission, when non-nil, puts the controller's degradation
	// ladder in front of Feed/FeedBatch: rate-limited traffic is shed
	// counted, traffic beyond the in-flight byte budget is rejected
	// with a retriable BUSY error, and (with FeedDeadline set) workers
	// shed admitted batches whose deadline passed before dequeue. One
	// controller spans all shards of a Runtime. A FeedDeadline is
	// incompatible with Durability: a logged batch must replay, and a
	// deadline drop at dequeue would diverge from that replay.
	Admission *admission.Controller
}

// NewRunner builds and starts a single-shard Runner. The Shards field
// of cfg is ignored; use New for a sharded Runtime.
func NewRunner(cfg Config) (*Runner, error) {
	return newShardRunner(cfg, 0)
}

// shardSink resolves shard i's result sink: the Config.ShardOutput
// pair when one is configured, else the engine's own Output.
func (cfg Config) shardSink(i int) (out engine.Output, batchEnd func()) {
	if cfg.ShardOutput == nil {
		return cfg.Engine.Output, nil
	}
	return cfg.ShardOutput(i)
}

// newShardRunner builds and starts the Runner of shard i.
func newShardRunner(cfg Config, i int) (*Runner, error) {
	var batchEnd func()
	cfg.Engine.Output, batchEnd = cfg.shardSink(i)
	if cfg.QueueSize == 0 {
		cfg.QueueSize = 1024
	}
	if cfg.QueueSize < 0 {
		return nil, fmt.Errorf("runtime: negative queue size %d", cfg.QueueSize)
	}
	if cfg.Obs != nil && cfg.Engine.Obs == nil {
		// Standalone runner: shard 0 of its Set. Runtime.New overrides
		// Engine.Obs per shard before reaching here.
		cfg.Engine.Obs = cfg.Obs.Recorder(0)
	}
	eng, err := engine.New(cfg.Engine)
	if err != nil {
		return nil, err
	}
	return newRunnerWith(eng, cfg, batchEnd), nil
}

// newRunnerWith wraps an existing engine — e.g. one rebuilt by crash
// recovery — in a started Runner. cfg supplies only the queue
// parameters; its Engine section is ignored. batchEnd is the boundary
// callback of the sink the engine already emits into (nil for none).
func newRunnerWith(eng *engine.Engine, cfg Config, batchEnd func()) *Runner {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 1024
	}
	if batchEnd == nil {
		batchEnd = func() {}
	}
	r := &Runner{
		in:       make(chan message, cfg.QueueSize),
		overflow: cfg.Overflow,
		adm:      cfg.Admission,
		batchEnd: batchEnd,
		eng:      eng,
	}
	r.worker.Add(1)
	go r.loop()
	return r
}

// MustNewRunner is NewRunner but panics on error.
func MustNewRunner(cfg Config) *Runner {
	r, err := NewRunner(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

func (r *Runner) loop() {
	defer r.worker.Done()
	// Results are emitted only by feeds and transitions, and each ends
	// its message with batchEnd: every other control message finds the
	// sink already handed off.
	for msg := range r.in {
		switch msg.kind {
		case msgFeed:
			// Deadline check at dequeue: a tuple that waited past its
			// admission deadline is dropped counted rather than
			// processed late — the paper's load-shed escape hatch,
			// applied at the moment lateness is known. The budget
			// reservation is returned either way.
			if r.adm.DeadlineExpired(msg.deadlineNS) {
				r.adm.CountDeadlineShed(1)
			} else {
				r.eng.Feed(msg.ev)
				r.batchEnd()
			}
			r.adm.Release(msg.cost)
		case msgFeedBatch:
			if r.adm.DeadlineExpired(msg.deadlineNS) {
				r.adm.CountDeadlineShed(len(*msg.batch))
			} else {
				r.eng.FeedBatch(*msg.batch)
				r.batchEnd()
			}
			r.adm.Release(msg.cost)
			putBatch(msg.batch)
		case msgMigrate:
			// Every tuple enqueued before this control message has
			// already been processed through the old plan: channel
			// order is the buffer-clearing phase.
			err := r.eng.Migrate(msg.migrate)
			r.batchEnd()
			msg.done <- err
		case msgFlush:
			msg.done <- nil
		case msgMetrics:
			msg.snap <- r.eng.Metrics()
		case msgPlan:
			msg.planCh <- r.eng.Plan()
		case msgCheckpoint:
			msg.done <- r.eng.Checkpoint(msg.ckptW)
		case msgScanStats:
			msg.scanCh <- r.eng.ScanStats()
		case msgStateBytes:
			msg.bytesCh <- r.eng.StateBytes()
		}
	}
}

// send enqueues a message unless the runner is closed.
func (r *Runner) send(m message) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	// Holding mu during the channel send keeps Close from closing the
	// channel under a concurrent sender.
	defer r.mu.Unlock()
	r.in <- m
	return nil
}

// Feed enqueues one tuple. Under the Block policy it waits while the
// input queue is full; under Shed it drops the tuple instead (counted
// by Shed). Returns ErrClosed after Close.
func (r *Runner) Feed(ev workload.Event) error {
	return r.feedAdmitted(ev, 0, 0)
}

// feedAdmitted enqueues one admitted tuple with its admission
// metadata. The cost reservation transfers to the worker on a
// successful enqueue and is released here on every other outcome
// (queue shed, closed runner) — exactly-once release either way.
func (r *Runner) feedAdmitted(ev workload.Event, deadlineNS, cost int64) error {
	m := message{kind: msgFeed, ev: ev, deadlineNS: deadlineNS, cost: cost}
	if r.overflow == Shed {
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.closed {
			r.adm.Release(cost)
			return ErrClosed
		}
		select {
		case r.in <- m:
		default:
			r.shed.Add(1)
			r.adm.Release(cost)
		}
		return nil
	}
	if err := r.send(m); err != nil {
		r.adm.Release(cost)
		return err
	}
	return nil
}

// Shed returns the number of tuples dropped by the Shed overflow
// policy.
func (r *Runner) Shed() uint64 { return r.shed.Load() }

// Migrate submits a plan transition in-band and waits until the worker
// has applied it. Tuples enqueued before the call are processed by the
// old plan; tuples enqueued after it by the new plan.
func (r *Runner) Migrate(p *plan.Plan) error {
	done := make(chan error, 1)
	if err := r.send(message{kind: msgMigrate, migrate: p, done: done}); err != nil {
		return err
	}
	return <-done
}

// Flush blocks until every message enqueued before the call has been
// fully processed.
func (r *Runner) Flush() error {
	done := make(chan error, 1)
	if err := r.send(message{kind: msgFlush, done: done}); err != nil {
		return err
	}
	return <-done
}

// QueueLen returns the number of queued, unprocessed messages — the
// input-buffer occupancy §3.2's overflow discussion is about.
func (r *Runner) QueueLen() int { return len(r.in) }

// Metrics snapshots the engine counters on the worker, after all
// previously enqueued messages.
func (r *Runner) Metrics() (metrics.Snapshot, error) {
	snap := make(chan metrics.Snapshot, 1)
	if err := r.send(message{kind: msgMetrics, snap: snap}); err != nil {
		return metrics.Snapshot{}, err
	}
	return <-snap, nil
}

// Snapshot reads the engine counters live, without a control-channel
// round trip: the collector is atomic, so this is safe from any
// goroutine, concurrently with the worker, and never blocks behind
// queued tuples. Unlike Metrics it reflects the instant of the call,
// not the point after previously enqueued work. Safe after Close.
func (r *Runner) Snapshot() metrics.Snapshot { return r.eng.Metrics() }

// Obs returns the engine's latency recorder, nil when instrumentation
// is off. The recorder's histograms are atomic: safe to snapshot from
// any goroutine, concurrently with the worker.
func (r *Runner) Obs() *obs.Recorder { return r.eng.Obs() }

// Checkpoint serializes the engine's state to w on the worker, after
// all previously enqueued messages — a consistent snapshot without
// stopping producers (they block on the queue at most briefly).
func (r *Runner) Checkpoint(w io.Writer) error {
	done, err := r.checkpointAsync(w)
	if err != nil {
		return err
	}
	return <-done
}

// checkpointAsync enqueues a checkpoint control message and returns
// without waiting for the worker to serialize. The caller must not
// touch w until the returned channel delivers. The durable runtime
// uses this to pin a checkpoint at an exact WAL position: it enqueues
// while holding the shard's log mutex (so no feed can slip between the
// captured sequence number and the snapshot point) but waits for the
// serialization itself with the mutex released.
func (r *Runner) checkpointAsync(w io.Writer) (<-chan error, error) {
	done := make(chan error, 1)
	if err := r.send(message{kind: msgCheckpoint, ckptW: w, done: done}); err != nil {
		return nil, err
	}
	return done, nil
}

// ScanStats reads the engine's per-stream scan counters on the worker,
// after all previously enqueued messages. The counters are plain
// worker-owned fields, so the in-band round trip is what makes the
// read race-free.
func (r *Runner) ScanStats() ([]engine.ScanStats, error) {
	ch := make(chan []engine.ScanStats, 1)
	if err := r.send(message{kind: msgScanStats, scanCh: ch}); err != nil {
		return nil, err
	}
	return <-ch, nil
}

// StateBytes reads the engine's resident state footprint in-band on
// the worker, after all previously enqueued messages.
func (r *Runner) StateBytes() (int64, error) {
	ch := make(chan int64, 1)
	if err := r.send(message{kind: msgStateBytes, bytesCh: ch}); err != nil {
		return 0, err
	}
	return <-ch, nil
}

// SpillStats snapshots the engine's tiered state store counters; ok is
// false when spilling is off. The counters are atomic — safe from any
// goroutine, concurrently with the worker, and never queued behind
// tuples. Safe after Close.
func (r *Runner) SpillStats() (statestore.Stats, bool) { return r.eng.SpillStats() }

// Plan returns the currently executing plan, observed on the worker
// after all previously enqueued messages.
func (r *Runner) Plan() (*plan.Plan, error) {
	ch := make(chan *plan.Plan, 1)
	if err := r.send(message{kind: msgPlan, planCh: ch}); err != nil {
		return nil, err
	}
	return <-ch, nil
}

// Close drains the queue, stops the worker, and returns once all
// processing has finished. Close is idempotent. The engine's pooled
// scratch is released; tuples already emitted stay valid.
func (r *Runner) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	close(r.in)
	r.mu.Unlock()
	r.worker.Wait()
	r.eng.Close()
}
