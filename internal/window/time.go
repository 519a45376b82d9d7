package window

import (
	"fmt"

	"jisc/internal/tuple"
)

// Slider is the common contract of sliding-window implementations:
// admit a new base tuple with its event timestamp, get back every
// entry that fell out of the window.
type Slider interface {
	// Slide admits one tuple and returns the expired entries, oldest
	// first. The slice is owned by the window and valid only until the
	// next Slide.
	Slide(ref tuple.Ref, key tuple.Value, ts uint64) []Entry
	// Len returns the number of live tuples.
	Len() int
	// Stream returns the stream the window tracks.
	Stream() tuple.StreamID
}

// Slide implements Slider for the count-based Window: at most one
// entry expires per admission. The timestamp is ignored.
func (w *Window) Slide(ref tuple.Ref, key tuple.Value, _ uint64) []Entry {
	exp, ok := w.Admit(ref, key)
	if !ok {
		return nil
	}
	w.expired[0] = exp
	return w.expired[:]
}

// TimeWindow is a time-based sliding window (§2.1 covers sliding
// windows generally; the paper's experiments use count-based ones):
// it keeps the tuples whose timestamp lies within Span of the newest
// admitted timestamp. Timestamps must be non-decreasing per stream;
// in this repository they are the engine's global arrival ticks, so
// the window is deterministic and testable.
type TimeWindow struct {
	stream tuple.StreamID
	span   uint64

	entries []timedEntry
	head    int
}

type timedEntry struct {
	e  Entry
	ts uint64
}

// NewTime returns a time window of the given span for stream id.
func NewTime(id tuple.StreamID, span uint64) *TimeWindow {
	if span == 0 {
		panic(fmt.Sprintf("window: zero time span for stream %d", id))
	}
	return &TimeWindow{stream: id, span: span}
}

// Stream implements Slider.
func (w *TimeWindow) Stream() tuple.StreamID { return w.stream }

// Span returns the configured span.
func (w *TimeWindow) Span() uint64 { return w.span }

// Len implements Slider.
func (w *TimeWindow) Len() int { return len(w.entries) - w.head }

// Slide implements Slider: admits the tuple at ts and expires every
// live entry with timestamp ≤ ts − span.
func (w *TimeWindow) Slide(ref tuple.Ref, key tuple.Value, ts uint64) []Entry {
	if ref.Stream != w.stream {
		panic(fmt.Sprintf("window: tuple from stream %d admitted to time window of stream %d", ref.Stream, w.stream))
	}
	if n := len(w.entries); n > w.head && w.entries[n-1].ts > ts {
		panic(fmt.Sprintf("window: timestamps regressed on stream %d: %d after %d", w.stream, ts, w.entries[n-1].ts))
	}
	var expired []Entry
	var cutoff uint64
	if ts > w.span {
		cutoff = ts - w.span
	}
	for w.head < len(w.entries) && w.entries[w.head].ts <= cutoff {
		expired = append(expired, w.entries[w.head].e)
		w.head++
	}
	// Compact once the dead prefix dominates.
	if w.head > 64 && w.head*2 > len(w.entries) {
		w.entries = append(w.entries[:0], w.entries[w.head:]...)
		w.head = 0
	}
	w.entries = append(w.entries, timedEntry{e: Entry{Ref: ref, Key: key}, ts: ts})
	return expired
}

// Each visits the live entries oldest-first.
func (w *TimeWindow) Each(fn func(Entry) bool) {
	for i := w.head; i < len(w.entries); i++ {
		if !fn(w.entries[i].e) {
			return
		}
	}
}

// EachTimed visits the live entries oldest-first with their
// timestamps. Used by checkpointing.
func (w *TimeWindow) EachTimed(fn func(Entry, uint64) bool) {
	for i := w.head; i < len(w.entries); i++ {
		if !fn(w.entries[i].e, w.entries[i].ts) {
			return
		}
	}
}
