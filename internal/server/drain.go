package server

// Graceful drain: the protocol behind a zero-loss rolling restart.
// SIGTERM on cmd/jiscd calls Drain, which runs these steps in order:
//
//  1. stop accepting — the listener closes, so load balancers fail new
//     dials over to a replacement node;
//  2. fence — the draining flag turns every mutating command on the
//     surviving connections into a retriable "ERR BUSY draining", and
//     each query's admission controller rejects at its own door too
//     (defense in depth for callers that bypass the command loop);
//     commands that read the flag just before it went up are waited
//     out, inside the timeout of step 4;
//  3. pause autopilots — a plan migration mid-drain would re-lengthen
//     exactly the queues the drain is emptying, so decision-making is
//     suspended (not stopped: Pause never joins a goroutine);
//  4. drain — Flush every query, bounded by the timeout: when Flush
//     returns, every admitted batch has been fully processed and its
//     outputs emitted, so nothing admitted is ever lost;
//  5. final checkpoint — on a durable server, CheckpointNow after the
//     flush barrier pins the drained state, making the successor's
//     recovery a checkpoint load with an empty WAL tail;
//  6. flush acks — every connection's buffered acks go out, so no
//     client loses the OK of a batch the drain processed;
//  7. close — connections, queries, catalog.
//
// A drain that cannot finish flushing within the timeout returns an
// error WITHOUT closing: something is wedged, and Close would block on
// the same wedge. The caller (cmd/jiscd) reports and exits non-zero;
// supervisors treat that as the kill-hard signal.

import (
	"fmt"
	"time"
)

// Drain gracefully shuts the server down; see the file comment for
// the protocol. timeout bounds the flush step (0 = wait forever).
// Drain is idempotent — concurrent calls beyond the first return nil
// immediately — and returns nil once everything admitted has been
// processed, checkpointed (when durable), and closed.
func (s *Server) Drain(timeout time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	already := s.draining.Swap(true)
	s.mu.Unlock()
	if already {
		return nil
	}
	if s.ln != nil {
		s.ln.Close()
		s.acceptWG.Wait()
	}
	queries := s.sortedQueries()
	for _, q := range queries {
		q.adm.StartDrain()
		q.runner.PauseAuto()
	}
	flushed := make(chan error, 1)
	go func() {
		// A handler that read the fence down may still be feeding; its
		// batch must be in a queue before the flush barrier goes in.
		//lint:ignore SA2001 the lock is taken only to wait out its readers
		s.inflight.Lock()
		s.inflight.Unlock()
		var first error
		for _, q := range queries {
			if err := q.runner.Flush(); err != nil && first == nil {
				first = err
			}
		}
		flushed <- first
	}()
	var ferr error
	if timeout > 0 {
		select {
		case ferr = <-flushed:
		case <-time.After(timeout):
			return fmt.Errorf("server: drain did not finish flushing within %v", timeout)
		}
	} else {
		ferr = <-flushed
	}
	if ferr != nil {
		return fmt.Errorf("server: draining queries: %w", ferr)
	}
	// Every admitted batch is processed; pin that state so the
	// successor recovers from the checkpoint instead of replaying the
	// drained WAL tail.
	if s.durable.Enabled() {
		for _, q := range queries {
			if !q.runner.Durable() {
				continue
			}
			if err := q.runner.CheckpointNow(); err != nil && ferr == nil {
				ferr = fmt.Errorf("server: final checkpoint of %q: %w", q.name, err)
			}
		}
	}
	s.flushAcks()
	s.Close()
	return ferr
}

// flushAcks sends every connection's buffered acks: a handler writes a
// command's OK only when its read buffer runs dry, so Close alone could
// cut off the OK of a batch the final checkpoint covers. Each write
// gets a second, so a peer that stopped reading cannot hold the drain.
func (s *Server) flushAcks() {
	s.mu.Lock()
	writers := make([]*lockedWriter, 0, len(s.conns))
	for _, lw := range s.conns {
		writers = append(writers, lw)
	}
	s.mu.Unlock()
	for _, lw := range writers {
		lw.conn.SetWriteDeadline(time.Now().Add(time.Second))
		lw.flush() //nolint:errcheck // a failed write closes its connection, as Close is about to
	}
}

// Draining reports whether a graceful drain has started.
func (s *Server) Draining() bool { return s.draining.Load() }
