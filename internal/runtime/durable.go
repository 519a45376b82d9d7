package runtime

// Durability wiring for the sharded Runtime. The core invariant is
// WAL order = apply order, kept by the shard's one lock (see shard.mu):
// every record is appended in the critical section that enqueues its
// message. Checkpoints ride the same lock: checkpointShard reads the
// log's last sequence number and enqueues the snapshot control in one
// critical section, so the serialized engine state covers exactly the
// records up to that sequence — no feed can slip between the two. The
// serialization itself (the expensive part) happens on the worker with
// the lock released; producers block only for the enqueue.

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"jisc/internal/durable"
	"jisc/internal/engine"
)

// recoverDurable gives every shard its engine and log from the
// durability directory: all shards recover in parallel (checkpoint
// load + WAL tail replay), then laggard shards are converged onto
// shard 0's plan.
func (rt *Runtime) recoverDurable(opts durable.Options, engCfgs []engine.Config) error {
	rt.durOpts = opts
	rt.durStats = &durable.Stats{}
	start := time.Now()

	errs := make([]error, len(rt.shards))
	var wg sync.WaitGroup
	for i, s := range rt.shards {
		wg.Add(1)
		go func(i int, s *shard) {
			defer wg.Done()
			rec, err := durable.RecoverShard(opts, i, engCfgs[i], engCfgs[i].Obs, rt.durStats)
			if err != nil {
				errs[i] = err
				return
			}
			s.eng, s.log = rec.Engine, rec.Log
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Migrate fans out shard 0..N-1, so a crash mid-fan-out leaves a
	// suffix of shards on the old plan while shard 0 is never behind.
	// Converge the laggards before exposing the runtime, logging the
	// migration first exactly as a live Migrate would — a second crash
	// here just repeats the convergence.
	target := rt.shards[0].eng.Plan()
	for i, s := range rt.shards[1:] {
		if s.eng.Plan().String() == target.String() {
			continue
		}
		if _, err := s.log.AppendMigrate(target.String()); err != nil {
			return fmt.Errorf("runtime: shard %d: logging plan convergence: %w", i+1, err)
		}
		if err := s.eng.Migrate(target); err != nil {
			return fmt.Errorf("runtime: shard %d: converging onto plan %s: %w", i+1, target, err)
		}
	}
	durable.MarkRecovery(rt.durStats, start)
	return nil
}

// CheckpointNow checkpoints every shard: snapshot the engine at an
// exact WAL position, write the snapshot atomically, and delete WAL
// segments the checkpoint made dead. Returns the first error after
// attempting every shard; failures leave the previous checkpoint and
// the full log intact (recovery just replays more).
func (rt *Runtime) CheckpointNow() error {
	if !rt.Durable() {
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
	s := rt.shards[i]
	var (
		seq uint64
		buf bytes.Buffer
	)
	err := s.do(
		func(l *durable.Log) error { seq = l.LastSeq(); return nil },
		func(e *engine.Engine) error { return e.Checkpoint(&buf) })
	if err != nil {
		return err
	}
	if err := durable.WriteShardCheckpoint(rt.durOpts, i, seq, buf.Bytes()); err != nil {
		return err
	}
	rt.durStats.Checkpoints.Add(1)
	_, err = s.log.TruncateThrough(seq)
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
func (rt *Runtime) Durable() bool { return rt.durStats != nil }

// DurableStats snapshots the durability counters; zero when
// durability is off. Safe from any goroutine.
func (rt *Runtime) DurableStats() durable.StatsSnapshot { return rt.durStats.Snapshot() }

// WALSegments returns the current on-disk segment count summed over
// shards (0 when durability is off).
func (rt *Runtime) WALSegments() int {
	n := 0
	for _, s := range rt.shards {
		if s.log != nil {
			n += s.log.Segments()
		}
	}
	return n
}
