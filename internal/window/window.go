// Package window implements per-stream sliding windows (§2.1) with one
// expiry rule: a tuple leaves the window once the window's clock has
// moved more than the span past the tuple's own reading. Clocked by
// the stream's sequence number, a window of span W is a count window
// of W tuples; clocked by arrival ticks, it is a time window of W
// ticks. When a tuple falls out of the window it must be deleted from
// every operator state, propagating bottom-up through the pipeline.
// The package tracks window membership and yields the expiry events;
// the engine owns the propagation.
package window

import (
	"fmt"

	"jisc/internal/tuple"
)

// Entry is one base tuple tracked by a window.
type Entry struct {
	Ref tuple.Ref
	Key tuple.Value
}

// timed is an entry with the clock reading it was admitted at.
type timed struct {
	e  Entry
	ts uint64
}

// Window is a sliding window over one stream: a ring of entries,
// oldest first. The zero value is unusable; construct with New.
type Window struct {
	stream tuple.StreamID
	span   uint64
	// ring's length is a power of two and grows by doubling. It is not
	// sized from the span: a time window's span counts ticks, not
	// tuples.
	ring    []timed
	head, n int
	newest  uint64 // the last reading admitted
	// expired backs Slide's result, so a steady window slides without
	// allocating.
	expired []Entry
}

// New returns a window of the given span for stream id. The span must
// be positive.
func New(id tuple.StreamID, span uint64) *Window {
	if span == 0 {
		panic(fmt.Sprintf("window: zero span for stream %d", id))
	}
	return &Window{stream: id, span: span}
}

// Stream returns the stream this window tracks.
func (w *Window) Stream() tuple.StreamID { return w.stream }

// Len returns the current number of tuples inside the window.
func (w *Window) Len() int { return w.n }

// Expire moves the window's clock to now and expires every entry read
// at or before now − span. It returns the expired entries oldest
// first, in a slice the window reuses: valid only until the next
// Expire or Slide. The clock must not go backwards.
func (w *Window) Expire(now uint64) []Entry {
	if now < w.newest {
		panic(fmt.Sprintf("window: clock regressed on stream %d: %d after %d", w.stream, now, w.newest))
	}
	ring, head, n, exp := w.ring, w.head, w.n, w.expired[:0]
	if now >= w.span {
		for cut := now - w.span; n > 0 && ring[head].ts <= cut; n-- {
			exp = append(exp, ring[head].e)
			head = (head + 1) & (len(ring) - 1)
		}
	}
	w.head, w.n, w.newest, w.expired = head, n, now, exp
	return exp
}

// Slide admits the tuple ref with key at clock reading now, after
// Expire(now). It returns what Expire does.
func (w *Window) Slide(ref tuple.Ref, key tuple.Value, now uint64) []Entry {
	if ref.Stream != w.stream {
		panic(fmt.Sprintf("window: tuple from stream %d admitted to window of stream %d", ref.Stream, w.stream))
	}
	exp := w.Expire(now)
	ring, head, n := w.ring, w.head, w.n
	mask := len(ring) - 1
	if n == len(ring) {
		grown := make([]timed, max(2*len(ring), 8))
		for i := range n {
			grown[i] = ring[(head+i)&mask]
		}
		ring, head, mask = grown, 0, len(grown)-1
		w.ring = ring
	}
	ring[(head+n)&mask] = timed{Entry{ref, key}, now}
	w.head, w.n = head, n+1
	return exp
}

// Each visits the live entries oldest first with their clock readings.
func (w *Window) Each(fn func(Entry, uint64) bool) {
	for i := range w.n {
		t := w.ring[(w.head+i)&(len(w.ring)-1)]
		if !fn(t.e, t.ts) {
			return
		}
	}
}
