package runtime

// Durability wiring for the sharded Runtime. The core invariant is
// WAL order = apply order: each shard pairs its write-ahead log with a
// mutex held across {append record; enqueue message}, so the sequence
// of records on disk is exactly the sequence of events the worker will
// process. Recovery can then replay the log tail through the
// deterministic engine and land on the precise state the shard had
// when the process died — including mid-lazy-migration, because
// MIGRATE records replay too.
//
// Checkpoints ride the same mutex: CheckpointNow captures the log's
// last sequence number and enqueues the snapshot control message in
// one critical section, so the serialized engine state covers exactly
// the records up to that sequence — no feed can slip between the two.
// The serialization itself (the expensive part) happens on the worker
// with the mutex released; producers block only for the enqueue.

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"jisc/internal/durable"
	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/workload"
)

// durShard serializes one shard's WAL appends with its runner
// enqueues.
type durShard struct {
	mu  sync.Mutex
	log *durable.Log
}

// recoverDurable builds the runtime's shards from the durability
// directory: every shard recovers in parallel (checkpoint load + WAL
// tail replay), laggard shards are converged onto shard 0's plan, and
// the background checkpoint loop is started.
func (rt *Runtime) recoverDurable(cfg Config, shards int) error {
	if cfg.Overflow == Shed {
		// A shed tuple is dropped after acknowledgment without ever
		// reaching the log, so the WAL could not tell a shed tuple from
		// a lost one — replay would be nondeterministic. Backpressure
		// (Block) is the only overflow policy with an exact log.
		return fmt.Errorf("runtime: the Shed overflow policy cannot be combined with durability; use Block")
	}
	if cfg.QueueSize < 0 {
		return fmt.Errorf("runtime: negative queue size %d", cfg.QueueSize)
	}
	opts := cfg.Durability.WithDefaults()
	rt.durOpts = opts
	rt.durStats = &durable.Stats{}
	start := time.Now()

	type result struct {
		rec      *durable.ShardRecovery
		batchEnd func()
		err      error
	}
	results := make([]result, shards)
	var wg sync.WaitGroup
	budget := resolveStateBudget(cfg.Engine.StateBudget, cfg.Engine.Kind)
	for i := 0; i < shards; i++ {
		engCfg := shardSpill(cfg.Engine, budget, shards, i)
		if cfg.Obs != nil {
			engCfg.Obs = cfg.Obs.Recorder(i)
		}
		engCfg.Output, results[i].batchEnd = cfg.shardSink(i)
		wg.Add(1)
		go func(i int, engCfg engine.Config) {
			defer wg.Done()
			results[i].rec, results[i].err = durable.RecoverShard(opts, i, engCfg, engCfg.Obs, rt.durStats)
		}(i, engCfg)
	}
	wg.Wait()

	fail := func(err error) error {
		for _, res := range results {
			if res.rec != nil {
				res.rec.Log.Close()
				res.rec.Engine.Close()
			}
		}
		return err
	}
	for _, res := range results {
		if res.err != nil {
			return fail(res.err)
		}
	}

	// Migrate fans out shard 0..N-1, so a crash mid-fan-out leaves a
	// suffix of shards on the old plan while shard 0 is never behind.
	// Converge the laggards before exposing the runtime, logging the
	// migration first exactly as a live Migrate would — a second crash
	// here just repeats the convergence.
	target := results[0].rec.Engine.Plan()
	for i := 1; i < shards; i++ {
		eng := results[i].rec.Engine
		if eng.Plan().String() == target.String() {
			continue
		}
		if _, err := results[i].rec.Log.AppendMigrate(target.String()); err != nil {
			return fail(fmt.Errorf("runtime: shard %d: logging plan convergence: %w", i, err))
		}
		if err := eng.Migrate(target); err != nil {
			return fail(fmt.Errorf("runtime: shard %d: converging onto plan %s: %w", i, target, err))
		}
	}

	for i := 0; i < shards; i++ {
		rt.shards = append(rt.shards, newRunnerWith(results[i].rec.Engine, cfg, results[i].batchEnd))
		rt.dur = append(rt.dur, &durShard{log: results[i].rec.Log})
	}
	durable.MarkRecovery(rt.durStats, start)

	if opts.CheckpointInterval > 0 {
		rt.ckptStop = make(chan struct{})
		rt.ckptDone = make(chan struct{})
		go rt.checkpointLoop(opts.CheckpointInterval)
	}
	return nil
}

// feedDurable logs then enqueues one tuple under shard i's log mutex.
// cost is the tuple's admission reservation (0 when admission is off);
// a feed deadline never reaches this path (admission rejects the
// combination at New), so the enqueued message carries no deadline.
func (rt *Runtime) feedDurable(i int, ev workload.Event, cost int64) error {
	d := rt.dur[i]
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, err := d.log.AppendFeed(ev.Stream, ev.Key); err != nil {
		rt.adm.Release(cost)
		return err
	}
	return rt.shards[i].feedAdmitted(ev, 0, cost)
}

// migrateDurable logs a MIGRATE record and enqueues the transition
// under shard i's log mutex, then waits for the worker to apply it
// with the mutex released — producers to the shard queue behind the
// transition in the channel, not on the lock.
func (rt *Runtime) migrateDurable(i int, p *plan.Plan) error {
	d := rt.dur[i]
	d.mu.Lock()
	if _, err := d.log.AppendMigrate(p.String()); err != nil {
		d.mu.Unlock()
		return err
	}
	done := make(chan error, 1)
	if err := rt.shards[i].send(message{kind: msgMigrate, migrate: p, done: done}); err != nil {
		d.mu.Unlock()
		return err
	}
	d.mu.Unlock()
	return <-done
}

// CheckpointNow checkpoints every shard: snapshot the engine at an
// exact WAL position, write the snapshot atomically, and delete WAL
// segments the checkpoint made dead. Returns the first error after
// attempting every shard; failures leave the previous checkpoint and
// the full log intact (recovery just replays more).
func (rt *Runtime) CheckpointNow() error {
	if rt.dur == nil {
		return fmt.Errorf("runtime: durability is off; no checkpoint directory")
	}
	var firstErr error
	for i := range rt.shards {
		if err := rt.checkpointShard(i); err != nil {
			rt.durStats.CheckpointFailures.Add(1)
			if firstErr == nil {
				firstErr = fmt.Errorf("runtime: checkpointing shard %d: %w", i, err)
			}
		}
	}
	return firstErr
}

func (rt *Runtime) checkpointShard(i int) error {
	d := rt.dur[i]
	d.mu.Lock()
	seq := d.log.LastSeq()
	var buf bytes.Buffer
	done, err := rt.shards[i].checkpointAsync(&buf)
	if err != nil {
		d.mu.Unlock()
		return err
	}
	d.mu.Unlock()
	if err := <-done; err != nil {
		return err
	}
	if err := durable.WriteShardCheckpoint(rt.durOpts, i, seq, buf.Bytes()); err != nil {
		return err
	}
	rt.durStats.Checkpoints.Add(1)
	_, err = d.log.TruncateThrough(seq)
	return err
}

// checkpointLoop runs background checkpoints on the configured
// interval until Close. Failures are counted (CheckpointFailures) and
// retried on the next tick.
func (rt *Runtime) checkpointLoop(interval time.Duration) {
	defer close(rt.ckptDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-rt.ckptStop:
			return
		case <-t.C:
			rt.CheckpointNow() //nolint:errcheck // counted in durStats
		}
	}
}

// Durable reports whether the runtime was built with durability on.
func (rt *Runtime) Durable() bool { return rt.dur != nil }

// DurableStats snapshots the durability counters; zero when
// durability is off. Safe from any goroutine.
func (rt *Runtime) DurableStats() durable.StatsSnapshot { return rt.durStats.Snapshot() }

// WALSegments returns the current on-disk segment count summed over
// shards (0 when durability is off).
func (rt *Runtime) WALSegments() int {
	n := 0
	for _, d := range rt.dur {
		n += d.log.Segments()
	}
	return n
}
