package server

import (
	"fmt"
	"strconv"
	"sync"

	"jisc/internal/engine"
	"jisc/internal/obs"
)

// Result egress: engine → chunk → subscriber → socket, batch-granular.
//
// Each shard worker owns one egress. emit encodes a result once, as its
// wire line, into the egress's chunk buffer; flush — the runtime's
// batch boundary, or the chunk reaching chunkBytes — copies the chunk
// into every subscriber's pending buffer and empties it. The chunk
// buffer never leaves its worker, so the per-result path takes no lock
// and, once the buffers have grown, allocates nothing. A subscriber's
// writer goroutine swaps the pending buffer for an empty one and issues
// one socket write for all of it. DESIGN.md "Result egress" has the
// ownership, flush and drop rules in full.

// chunkBytes is the chunk size that forces a hand-off inside a batch,
// so a long batch keeps streaming to its subscribers; a fixed
// constant — hand-offs are already per batch, this only bounds the
// chunk.
const chunkBytes = 32 << 10

// retainBytes caps the buffer capacity a subscriber keeps for reuse
// between writes: steady-state traffic reuses its two buffers, while
// the room a one-off backlog grew is returned to the collector.
const retainBytes = 1 << 20

// appendResultLine appends d's wire line, "RESULT|RETRACT <key>
// <fingerprint>\n", to dst.
func appendResultLine(dst []byte, d engine.Delta) []byte {
	if d.Retraction {
		dst = append(dst, "RETRACT "...)
	} else {
		dst = append(dst, "RESULT "...)
	}
	dst = strconv.AppendInt(dst, int64(d.Tuple.Key), 10)
	dst = append(dst, ' ')
	dst = d.Tuple.AppendFingerprint(dst)
	return append(dst, '\n')
}

// egress is one shard's end of a query's result path. All its fields
// belong to the shard's worker goroutine.
type egress struct {
	q     *query
	buf   []byte // whole result lines not yet handed off
	lines int    // lines in buf
}

// emit is the shard's engine.Output. With no subscriber it encodes
// nothing; a subscriber that arrives mid-batch is picked up when the
// chunk is empty, so its stream starts on a chunk boundary.
func (e *egress) emit(d engine.Delta) {
	if len(e.buf) == 0 && e.q.nsubs.Load() == 0 {
		return
	}
	e.buf = appendResultLine(e.buf, d)
	e.lines++
	if len(e.buf) >= chunkBytes {
		e.flush()
	}
}

// flush hands the chunk to every subscriber. It never blocks on a
// subscriber: one that is too far behind is dropped instead — counted
// and traced, never silently.
func (e *egress) flush() {
	if len(e.buf) == 0 {
		return
	}
	q := e.q
	q.mu.Lock()
	for id, s := range q.subs {
		if s.offer(e.buf, e.lines, q.bufSize) {
			continue
		}
		q.remove(id)
		q.subsDropped.Add(1)
		q.obs.Tracer.Emit(obs.Event{
			Kind: obs.EvSubscriberDropped, Query: q.name,
			Key:  int64(id),
			Note: fmt.Sprintf("subscriber %d fell %d lines behind; disconnected", id, q.bufSize),
		})
	}
	q.mu.Unlock()
	e.buf, e.lines = e.buf[:0], 0
}

// subscriber is one SUBSCRIBE's queue between the shard workers and
// the connection's writer goroutine: the whole lines handed off and not
// yet taken for writing, counted so the slow-consumer bound stays in
// lines.
type subscriber struct {
	mu      sync.Mutex
	ready   sync.Cond // pending is non-empty, or closed
	pending []byte
	lines   int // lines in pending
	closed  bool
}

func newSubscriber() *subscriber {
	s := &subscriber{}
	s.ready.L = &s.mu
	return s
}

// offer appends a chunk of whole lines unless the subscriber is already
// limit lines behind. Checking before the append means no single
// chunk, however many lines it carries, drops a subscriber that has
// kept up; pending is bounded by limit lines plus one chunk.
func (s *subscriber) offer(chunk []byte, lines, limit int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lines >= limit {
		return false
	}
	s.pending = append(s.pending, chunk...)
	s.lines += lines
	s.ready.Signal()
	return true
}

// close ends the stream: take drains what is pending, then reports the
// end.
func (s *subscriber) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.ready.Signal()
}

// take blocks until lines are pending and returns them, leaving spare
// (a buffer the caller is done with) to collect the next ones; ok is
// false once the subscriber is closed and drained.
func (s *subscriber) take(spare []byte) (chunk []byte, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.pending) == 0 {
		if s.closed {
			return nil, false
		}
		s.ready.Wait()
	}
	if cap(spare) > retainBytes {
		spare = nil
	}
	chunk = s.pending
	s.pending, s.lines = spare[:0], 0
	return chunk, true
}
