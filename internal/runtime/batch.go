package runtime

// Ingest. Runtime.FeedBatch is the one way a tuple reaches a shard
// (Feed is a batch of one): it scatters a caller's batch into per-shard
// staging slices by join-key hash and hands each touched shard one
// channel message carrying its whole sub-batch — one send, one WAL
// frame, one engine.FeedBatch per shard. Staging slices come from a
// pool and are recycled by the shard worker after processing, so the
// steady-state path allocates nothing per call.
//
// Tuples keep their arrival order within a shard (scattering preserves
// relative order, and channel order is processing order), Flush is a
// drain barrier, and under the Shed policy a full shard queue drops
// that shard's whole sub-batch with every dropped tuple counted.

import (
	"sync"

	"jisc/internal/durable"
	"jisc/internal/workload"
)

// batchPool recycles staging slices flowing from FeedBatch callers to
// shard workers.
var batchPool = sync.Pool{New: func() any {
	s := make([]workload.Event, 0, 256)
	return &s
}}

func getBatch() *[]workload.Event {
	return batchPool.Get().(*[]workload.Event)
}

func putBatch(b *[]workload.Event) {
	if cap(*b) > 1<<16 {
		return // let oversized one-offs be collected instead of pinned
	}
	*b = (*b)[:0]
	batchPool.Put(b)
}

// scatterPool recycles the per-call table of shard staging pointers.
type scatter struct {
	bufs []*[]workload.Event
}

var scatterPool = sync.Pool{New: func() any { return new(scatter) }}

// FeedBatch scatters evs across shards by join-key hash and delivers
// one sub-batch message per touched shard, in ascending shard order,
// with the channel send and queue slot paid once per shard. Tuples that
// route to the same shard keep their relative order, so the per-shard
// outcome is identical to feeding evs one at a time; tuples on
// different shards were never ordered relative to each other to begin
// with (worker scheduling interleaves them). Under the Block policy
// FeedBatch waits while a queue is full; under Shed a full shard queue
// drops that shard's whole sub-batch, counted tuple by tuple in Shed.
//
// With durability on, each touched shard appends one FEEDB record
// carrying its whole sub-batch — one fsync per shard per batch — in the
// same critical section as its enqueue, so WAL order still equals
// apply order; a sub-batch is not enqueued unless its append succeeded.
// On error, sub-batches already delivered to earlier shards stay
// delivered (exactly the partial outcome a crash between two calls
// would leave); the caller may retry the whole batch, which
// at-least-once delivery permits.
//
// The slice is copied; the caller may reuse evs immediately. Returns
// ErrClosed after Close.
func (rt *Runtime) FeedBatch(evs []workload.Event) error {
	if len(evs) == 0 {
		return nil
	}
	// One admission decision per batch, before scatter and WAL: a shed
	// batch returns nil with every tuple counted, a rejected batch
	// returns BUSY with nothing delivered anywhere. The reservation is
	// split across sub-batches by tuple count (shares sum exactly to
	// the admitted total), so each shard worker releases its own part.
	deadlineNS, cost, ok, admErr := rt.admit(len(evs))
	if !ok {
		return admErr
	}
	n := len(rt.shards)
	if n == 1 || len(evs) == 1 {
		// One destination: nothing to scatter.
		b := getBatch()
		*b = append((*b)[:0], evs...)
		return rt.shards[ShardOf(evs[0].Key, n)].feedBatch(b, deadlineNS, cost)
	}
	sc := scatterPool.Get().(*scatter)
	if cap(sc.bufs) < n {
		sc.bufs = make([]*[]workload.Event, n)
	}
	bufs := sc.bufs[:n]
	for i := range bufs {
		bufs[i] = nil
	}
	for _, ev := range evs {
		i := ShardOf(ev.Key, n)
		if bufs[i] == nil {
			bufs[i] = getBatch()
		}
		*bufs[i] = append(*bufs[i], ev)
	}
	var firstErr error
	for i, b := range bufs {
		if b == nil {
			continue
		}
		bufs[i] = nil
		// cost is a whole number of EventBytes per tuple (0 without
		// admission), so the proportional share is exact.
		share := cost * int64(len(*b)) / int64(len(evs))
		if firstErr != nil {
			rt.adm.Release(share) // an earlier shard failed; don't deliver a gap
			putBatch(b)
			continue
		}
		firstErr = rt.shards[i].feedBatch(b, deadlineNS, share)
	}
	scatterPool.Put(sc)
	return firstErr
}

// feedBatch submits a staging slice the shard now owns, logging it
// first on a durable shard.
func (s *shard) feedBatch(b *[]workload.Event, deadlineNS, cost int64) error {
	return s.submit(func(l *durable.Log) error {
		// One record per batch; a batch beyond the frame's u16 count
		// field splits across records, still inside submit's one
		// critical section so no checkpoint can pin a sequence between
		// the pieces.
		for evs := *b; len(evs) > 0; {
			chunk := evs[:min(len(evs), durable.MaxBatchEvents)]
			if _, err := l.AppendFeedBatch(chunk); err != nil {
				return err
			}
			evs = evs[len(chunk):]
		}
		return nil
	}, message{batch: b, deadlineNS: deadlineNS, cost: cost})
}
