package runtime

import (
	"sync"
	"sync/atomic"

	"jisc/internal/admission"
	"jisc/internal/durable"
	"jisc/internal/engine"
	"jisc/internal/workload"
)

// message is one slot of a shard's input queue. There are two shapes:
// a control (ctl set) is a closure the worker runs against the engine;
// anything else is a feed carrying a pooled batch.
type message struct {
	ctl   func(*engine.Engine)
	batch *[]workload.Event // pooled; recycled by the worker

	// Admission metadata of a feed, zero without an admission
	// controller: deadlineNS is the unix-nano point after which the
	// worker sheds the tuples instead of processing them late; cost is
	// the in-flight byte reservation, released exactly once when the
	// message leaves the system — by the worker once it is dequeued
	// (processed or deadline-shed), by submit when it is never queued.
	deadlineNS int64
	cost       int64
}

// shard is one worker goroutine owning one engine behind a buffered
// input queue — the §2.1 input buffer in front of one plan — and, on a
// durable runtime, that queue's write-ahead log.
type shard struct {
	in       chan message
	worker   sync.WaitGroup
	eng      *engine.Engine
	overflow Overflow
	shed     atomic.Uint64
	adm      *admission.Controller // nil = admit everything
	// batchEnd is the shard's result-batch boundary (Config.ShardOutput),
	// a no-op when the sink does not buffer.
	batchEnd func()

	// mu is the shard's one lock. Held across {log append; enqueue} it
	// makes WAL order = apply order: the sequence of records on disk is
	// exactly the sequence of messages the worker will process, so
	// recovery replays the log tail through the deterministic engine and
	// lands on the state the shard had when the process died — including
	// mid-lazy-migration, because MIGRATE records replay too. Held
	// across the channel send it also keeps close from closing the
	// channel under a concurrent sender; a sender blocked on a full
	// queue holds it only until the worker frees a slot, which the
	// worker never needs mu to do.
	mu     sync.Mutex
	closed bool
	log    *durable.Log // nil unless the runtime is durable
}

// start launches the worker of a shard whose engine is in place.
func (s *shard) start() {
	if s.batchEnd == nil {
		s.batchEnd = func() {}
	}
	s.worker.Add(1)
	go s.loop()
}

func (s *shard) loop() {
	defer s.worker.Done()
	for m := range s.in {
		if m.ctl != nil {
			// Every tuple enqueued before this message has already been
			// processed: channel order is the buffer-clearing phase of a
			// transition. Results are emitted only by feeds and
			// transitions, and each ends with batchEnd, so every other
			// control finds the sink already handed off.
			m.ctl(s.eng)
			continue
		}
		// Deadline check at dequeue: tuples that waited past their
		// admission deadline are dropped counted rather than processed
		// late — the paper's load-shed escape hatch, applied at the
		// moment lateness is known. The reservation is returned either
		// way.
		if s.adm.DeadlineExpired(m.deadlineNS) {
			s.adm.CountDeadlineShed(len(*m.batch))
		} else {
			s.eng.FeedBatch(*m.batch)
			s.batchEnd()
		}
		s.adm.Release(m.cost)
		putBatch(m.batch)
	}
}

// submit is the one way onto the queue. In one critical section it
// refuses a closed shard, runs record against the log (durable shards
// only; record may be nil) and enqueues m — so nothing can slip between
// a record and its message, nor between the sequence number a
// checkpoint's record reads and the checkpoint's place in the queue.
//
// Feeds honour the overflow policy: under Shed a full queue drops the
// message instead of blocking, counted tuple by tuple; submit still
// returns nil — shed tuples never existed as far as the query is
// concerned. Controls always block. A message the worker will never see
// (closed shard, log error, queue shed) gives back its reservation and
// its pooled batch here.
func (s *shard) submit(record func(*durable.Log) error, m message) error {
	s.mu.Lock()
	err, queued := ErrClosed, false
	if !s.closed {
		err = nil
		if s.log != nil && record != nil {
			err = record(s.log)
		}
		switch {
		case err != nil:
		case m.ctl == nil && s.overflow == Shed:
			select {
			case s.in <- m:
				queued = true
			default:
				s.shed.Add(uint64(len(*m.batch)))
			}
		default:
			s.in <- m
			queued = true
		}
	}
	s.mu.Unlock()
	if !queued {
		s.adm.Release(m.cost)
		if m.batch != nil {
			putBatch(m.batch)
		}
	}
	return err
}

// do runs fn on the worker, after every message enqueued before it,
// and returns its error once it has run. The wait happens with mu
// released: producers queue behind the control in the channel, not on
// the lock.
func (s *shard) do(record func(*durable.Log) error, fn func(*engine.Engine) error) error {
	done := make(chan error, 1)
	if err := s.submit(record, message{ctl: func(e *engine.Engine) { done <- fn(e) }}); err != nil {
		return err
	}
	return <-done
}

// close stops the shard (Runtime.Close calls it once); the worker
// drains the queue first. The log is flushed and closed before the
// queue, under mu: a submit that raced with close either
// logged-and-enqueued its message (the worker drains it) or failed with
// ErrClosed, never one without the other. The engine's spill tier, if
// any, is released.
func (s *shard) close() {
	s.mu.Lock()
	s.closed = true
	if s.log != nil {
		s.log.Close() //nolint:errcheck // a failed last flush leaves what a crash would: recovery's case
	}
	close(s.in)
	s.mu.Unlock()
	s.worker.Wait()
	s.eng.Close()
}

// discard releases what recovery or construction gave a shard that was
// never started.
func (s *shard) discard() {
	if s.log != nil {
		s.log.Close() //nolint:errcheck // the next New recovers again
	}
	if s.eng != nil {
		s.eng.Close()
	}
}
