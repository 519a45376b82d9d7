// Package window implements per-stream count-based sliding windows
// (§2.1). Each stream keeps its most recent W tuples; when a new tuple
// arrives the tuple that falls out of the window must be deleted from
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

// Window is a count-based sliding window over one stream. The zero
// value is unusable; construct with New.
type Window struct {
	stream tuple.StreamID
	size   int
	// ring buffer of the last size entries
	buf   []Entry
	head  int // index of oldest
	count int
	// expired backs Slide's one-entry result, so a full window slides
	// without allocating.
	expired [1]Entry
}

// New returns a window of the given size (tuples) for stream id.
// Size must be positive.
func New(id tuple.StreamID, size int) *Window {
	if size <= 0 {
		panic(fmt.Sprintf("window: non-positive size %d", size))
	}
	return &Window{stream: id, size: size, buf: make([]Entry, size)}
}

// Stream returns the stream this window tracks.
func (w *Window) Stream() tuple.StreamID { return w.stream }

// Size returns the configured window size.
func (w *Window) Size() int { return w.size }

// Len returns the current number of tuples inside the window.
func (w *Window) Len() int { return w.count }

// Admit adds a new base tuple to the window and returns the expired
// entry, if admitting it pushed the oldest tuple out.
func (w *Window) Admit(ref tuple.Ref, key tuple.Value) (expired Entry, ok bool) {
	if ref.Stream != w.stream {
		panic(fmt.Sprintf("window: tuple from stream %d admitted to window of stream %d", ref.Stream, w.stream))
	}
	if w.count == w.size {
		expired = w.buf[w.head]
		ok = true
		w.buf[w.head] = Entry{Ref: ref, Key: key}
		w.head = (w.head + 1) % w.size
		return expired, true
	}
	w.buf[(w.head+w.count)%w.size] = Entry{Ref: ref, Key: key}
	w.count++
	return Entry{}, false
}

// Oldest returns the oldest entry still inside the window.
func (w *Window) Oldest() (Entry, bool) {
	if w.count == 0 {
		return Entry{}, false
	}
	return w.buf[w.head], true
}

// Contains reports whether the given sequence number is still inside
// the window.
func (w *Window) Contains(seq uint64) bool {
	if w.count == 0 {
		return false
	}
	oldest := w.buf[w.head].Ref.Seq
	newest := w.buf[(w.head+w.count-1)%w.size].Ref.Seq
	return seq >= oldest && seq <= newest
}

// Each visits the live entries oldest-first.
func (w *Window) Each(fn func(Entry) bool) {
	for i := 0; i < w.count; i++ {
		if !fn(w.buf[(w.head+i)%w.size]) {
			return
		}
	}
}
