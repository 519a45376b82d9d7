package server

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"jisc/internal/obs"
	"jisc/internal/tuple"
)

// Result egress: engine → chunk → subscriber → socket, batch-granular.
//
// Each shard worker owns one egress, the shard's engine.Sink (encode).
// An unstored hash root hands it a probe at a time: the probing tuple
// and the rows it matched, encoded in one pass as one wire line per row
// into the egress's chunk buffer; any other root hands it one result or
// retraction at a time, the tuple with tuple.OneRow, the one-row case
// of the same encoder. flush — the runtime's batch
// boundary, or the chunk reaching chunkBytes — hands the chunk to every
// subscriber and empties it: the last one takes the chunk itself when
// it has nothing pending, the others get a copy. The chunk buffer is
// only ever written by its worker, so the per-result path takes no lock
// and, once the buffers have grown, allocates nothing. A subscriber's
// writer goroutine swaps the pending buffer for an empty one and issues
// one socket write for all of it. DESIGN.md §17 has the ownership,
// flush, swap and drop rules in full.

// chunkBytes is the chunk size that forces a hand-off inside a batch,
// so a long batch keeps streaming to its subscribers; a fixed
// constant — hand-offs are already per batch, this only bounds the
// chunk (a probe's lines are encoded whole, so a chunk overshoots it by
// at most one probe's).
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
	// while key and verb repeat.
	frags      [tuple.MaxStreams][]fragment
	prefix     []byte
	prefixKey  tuple.Value
	prefixSign bool // prefix is a RETRACT

	// The probe being encoded (appendProbe): a row's k-th seq is
	// written after the piece of the first line at from[k]:to[k], from
	// stream rowStream[k]'s table.
	from, to  [tuple.MaxStreams]int
	rowStream [tuple.MaxStreams]tuple.StreamID
	// first is the probe's first composite, its row read through row.
	first []uint64
	row   tuple.Tuple
}

// encode is the shard's engine.Sink: it appends the lines of t against
// rows to the chunk, encoded in one pass (appendProbe). With no
// subscriber it encodes nothing; a subscriber that arrives mid-batch is
// picked up when the chunk is empty, so its stream starts on a chunk
// boundary.
func (e *egress) encode(retract bool, t *tuple.Tuple, rows tuple.Rows) {
	if len(e.buf) == 0 && e.q.nsubs.Load() == 0 {
		return
	}
	var lines int
	e.buf, lines = e.appendProbe(e.buf, retract, t, rows)
	e.lines += lines
	if len(e.buf) >= chunkBytes {
		e.flush()
	}
}

// appendProbe appends to dst the wire line of the composite of t with
// each row of rows, in row order, and returns how many lines it wrote.
// The first line, with the first row, is written as a single result is
// (appendLine); most probes match one row and stop there. What lies
// between that line's row fragments — the prefix, t's fragments, the
// separators, the newline — is the same in every line, so each later
// line copies those pieces from the first, with its own row's fragments
// in between, the row read in place. dst grows once, by the longest
// lines the rows can make.
func (e *egress) appendProbe(dst []byte, retract bool, t *tuple.Tuple, rows tuple.Rows) ([]byte, int) {
	w := tuple.RowWidth(rows.Set)
	nrows := 1 // most probes match one row: spare them the division
	if len(rows.Data) != w {
		nrows = len(rows.Data) / w
	}
	if nrows == 0 {
		return dst, 0
	}
	set, seqs := t.Set|rows.Set, t.Seqs
	if rows.Set != 0 {
		e.first = tuple.AppendJoinRow(e.first[:0], t, rows.View(0, &e.row))
		seqs = e.first[tuple.RowSeqs:]
	}
	n := len(dst)
	dst = e.appendLine(dst, retract, t.Key, set, seqs, nrows)
	if nrows == 1 {
		return dst, 1
	}

	// Where the first line's pieces lie, from its fragments' lengths:
	// row seq k goes between piece k (from[k]:to[k]) and piece k+1.
	piece, at, k := n, n+len(e.prefix), 0
	for i, s := 0, set; s != 0; i, s = i+1, s&(s-1) {
		id := tuple.StreamID(bits.TrailingZeros64(uint64(s)))
		end := at + int(e.frags[id][seqs[i]%fragSlots].n)
		if rows.Set.Has(id) {
			e.from[k], e.to[k], e.rowStream[k] = piece, at, id
			piece, k = end, k+1
		}
		at = end + 1
	}
	last := [2]int{piece, len(dst)}
	n, dst = len(dst), dst[:cap(dst)]
	for at := w; at < len(rows.Data); at += w {
		for k, seq := range rows.Data[at+tuple.RowSeqs : at+w] {
			n += copyPiece(dst, n, e.from[k], e.to[k])
			id := e.rowStream[k]
			f := &e.frags[id][seq%fragSlots]
			if f.seq != seq || f.n == 0 {
				f.encode(tuple.Ref{Stream: id, Seq: seq})
			}
			*(*[fragText]byte)(dst[n:]) = f.text
			n += int(f.n)
		}
		n += copyPiece(dst, n, last[0], last[1])
	}
	return dst[:n], nrows
}

// appendLine appends to dst the one wire line format, "RESULT|RETRACT
// <key> <fingerprint>\n": the bytes of Tuple.AppendFingerprint on a
// tuple covering set with seqs, its fragments from the same
// Ref.AppendText, through the tables. It leaves room in dst's capacity
// for lines such lines at their longest and a block beyond: a fragment
// is then a fixed-size copy of its whole slot text and a piece a run of
// fixed-size blocks, and the next write overwrites what lies past them.
func (e *egress) appendLine(dst []byte, retract bool, key tuple.Value, set tuple.StreamSet, seqs []uint64, lines int) []byte {
	if len(e.prefix) == 0 || e.prefixKey != key || e.prefixSign != retract {
		verb := "RESULT "
		if retract {
			verb = "RETRACT "
		}
		e.prefix = tuple.AppendInt(append(e.prefix[:0], verb...), int64(key))
		e.prefix = append(e.prefix, ' ')
		e.prefixKey, e.prefixSign = key, retract
	}
	n := len(dst)
	dst = slices.Grow(dst, lines*(len(e.prefix)+len(seqs)*(fragText+1)+1)+pieceBlock)
	dst = dst[:cap(dst)]
	n += copy(dst[n:], e.prefix)
	for i, seq := range seqs {
		if i > 0 {
			dst[n] = '|'
			n++
		}
		id := tuple.StreamID(bits.TrailingZeros64(uint64(set)))
		set &= set - 1
		if e.frags[id] == nil {
			e.frags[id] = make([]fragment, fragSlots)
		}
		f := &e.frags[id][seq%fragSlots]
		if f.seq != seq || f.n == 0 {
			f.encode(tuple.Ref{Stream: id, Seq: seq})
		}
		*(*[fragText]byte)(dst[n:]) = f.text
		n += int(f.n)
	}
	dst[n] = '\n'
	return dst[:n+1]
}

// pieceBlock is the block copyPiece moves at a time.
const pieceBlock = 16

// copyPiece copies dst[from:to], a piece of a probe's first line, to
// dst[n:], where n ≥ to, and returns its length. The pieces are a few
// bytes each — a separator, a prefix, a fragment and a newline — so it
// moves them in fixed blocks rather than calling memmove: past the
// piece it writes up to pieceBlock-1 bytes that the next write
// overwrites, and appendProbe leaves a block of room beyond the last
// line for them.
func copyPiece(dst []byte, n, from, to int) int {
	for i := from; i < to; i += pieceBlock {
		*(*[pieceBlock]byte)(dst[n+i-from:]) = *(*[pieceBlock]byte)(dst[i:])
	}
	return to - from
}

// encode fills the slot with r's text.
func (f *fragment) encode(r tuple.Ref) {
	f.seq = r.Seq
	f.n = uint8(len(r.AppendText(f.text[:0])))
}

// flush hands the chunk to every subscriber. The last one offered it
// may take the chunk itself (offer); the worker then goes on with the
// empty buffer it gets back. It never blocks on a subscriber: one that
// is too far behind is dropped instead — counted and traced, never
// silently.
func (e *egress) flush() {
	if len(e.buf) == 0 {
		return
	}
	q := e.q
	buf := e.buf
	q.mu.Lock()
	left := len(q.subs)
	for id, s := range q.subs {
		left--
		var ok bool
		if buf, ok = s.offer(buf, e.lines, q.bufSize, left == 0); ok {
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
	e.buf, e.lines = buf[:0], 0
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

// offer hands over a chunk of whole lines unless the subscriber is
// already limit lines behind, and returns the buffer the caller goes on
// filling. Checking before the hand-off means no single chunk, however
// many lines it carries, drops a subscriber that has kept up; pending
// is bounded by limit lines plus one chunk. The chunk is appended to
// pending — except when give is set and nothing is pending: then the
// chunk becomes pending as it is, and the caller gets pending's empty
// buffer in exchange. That buffer is the spare take left there, which
// the writer has finished writing, so no one else holds it; the caller
// may write it at once. Otherwise (refused, or copied) the caller keeps
// its chunk.
func (s *subscriber) offer(chunk []byte, lines, limit int, give bool) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lines >= limit {
		return chunk, false
	}
	if give && len(s.pending) == 0 {
		chunk, s.pending = s.pending[:0], chunk
	} else {
		s.pending = append(s.pending, chunk...)
	}
	s.lines += lines
	s.ready.Signal()
	return chunk, true
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
