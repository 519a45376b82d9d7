package server

import (
	"fmt"
	"slices"
	"sync"

	"jisc/internal/engine"
	"jisc/internal/obs"
	"jisc/internal/tuple"
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

// fragSlots is the size of a stream's fragment table, indexed by seq
// mod fragSlots: results name tuples still in their window, so a window
// of up to fragSlots tuples never collides and a larger one only
// re-encodes more. A fixed constant — 128 KiB per stream per shard, and
// a miss costs what having no table would (DESIGN.md §17).
const fragSlots, fragText = 4096, 23

// fragment is one encoded "<stream>#<seq>" (at most fragText = 2 + 1 +
// 20 bytes), tagged with its seq; n is zero in an empty slot.
type fragment struct {
	seq  uint64
	n    uint8
	text [fragText]byte
}

// egress is one shard's end of a query's result path. All its fields
// belong to the shard's worker goroutine.
type egress struct {
	q     *query
	buf   []byte // whole result lines not yet handed off
	lines int    // lines in buf

	// A base tuple appears in every result it joins into, so its
	// fragment is encoded once and copied after that: frags[stream] is
	// a direct-mapped table, allocated at the stream's first result.
	// prefix is the last "RESULT <key> " (or RETRACT) written, reused
	// while key and verb repeat, as they do within a probe's results.
	frags      [tuple.MaxStreams][]fragment
	prefix     []byte
	prefixKey  tuple.Value
	prefixSign bool // prefix is a RETRACT
}

// emit is the shard's engine.Output. With no subscriber it encodes
// nothing; a subscriber that arrives mid-batch is picked up when the
// chunk is empty, so its stream starts on a chunk boundary.
func (e *egress) emit(d engine.Delta) {
	if len(e.buf) == 0 && e.q.nsubs.Load() == 0 {
		return
	}
	e.buf = e.appendLine(e.buf, d)
	e.lines++
	if len(e.buf) >= chunkBytes {
		e.flush()
	}
}

// appendLine appends d's wire line, "RESULT|RETRACT <key>
// <fingerprint>\n", to dst. The bytes are those of
// Tuple.AppendFingerprint — the fragments come from the same
// Ref.AppendText, through the table.
func (e *egress) appendLine(dst []byte, d engine.Delta) []byte {
	if len(e.prefix) == 0 || e.prefixKey != d.Tuple.Key || e.prefixSign != d.Retraction {
		verb := "RESULT "
		if d.Retraction {
			verb = "RETRACT "
		}
		e.prefix = tuple.AppendInt(append(e.prefix[:0], verb...), int64(d.Tuple.Key))
		e.prefix = append(e.prefix, ' ')
		e.prefixKey, e.prefixSign = d.Tuple.Key, d.Retraction
	}
	// Room for the longest line these refs can make, once: a fragment
	// is then a fixed-size copy of its whole slot text, and the next
	// write overwrites what lies past its length.
	refs := d.Tuple.Refs
	n := len(dst)
	dst = slices.Grow(dst, len(e.prefix)+len(refs)*(fragText+1)+1)
	dst = dst[:cap(dst)]
	n += copy(dst[n:], e.prefix)
	for i, r := range refs {
		if i > 0 {
			dst[n] = '|'
			n++
		}
		f := e.fragment(r)
		*(*[fragText]byte)(dst[n:]) = f.text
		n += int(f.n)
	}
	dst[n] = '\n'
	return dst[:n+1]
}

// fragment returns r's slot, encoding r into it first unless its tag
// says it already holds r.
func (e *egress) fragment(r tuple.Ref) *fragment {
	if e.frags[r.Stream] == nil {
		e.frags[r.Stream] = make([]fragment, fragSlots)
	}
	f := &e.frags[r.Stream][r.Seq%fragSlots]
	if f.seq != r.Seq || f.n == 0 {
		f.seq = r.Seq
		f.n = uint8(len(r.AppendText(f.text[:0])))
	}
	return f
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
