package obs

import (
	"sync"
	"time"
)

// EventKind classifies migration-lifecycle trace events.
type EventKind uint8

const (
	// EvPlanProposed: an optimizer proposed a plan switch (note holds
	// "old -> new").
	EvPlanProposed EventKind = iota
	// EvPlanInstalled: a plan transition was applied (note holds
	// "old -> new"; Count/Extra hold incomplete/complete state counts).
	EvPlanInstalled
	// EvStateComplete: a state of the new plan was classified complete
	// at transition time (note holds the stream set).
	EvStateComplete
	// EvStateIncomplete: a state of the new plan was classified
	// incomplete at transition time (note holds the stream set).
	EvStateIncomplete
	// EvCompletionStart: a just-in-time completion episode began for
	// Key. One episode in sampleEvery is traced (Recorder.SampleEpisode);
	// every one is timed into Recorder.Completion.
	EvCompletionStart
	// EvCompletionEnd: a completion episode finished; Count holds the
	// tuples materialized, Dur the episode duration.
	EvCompletionEnd
	// EvSubscriberDropped: the server disconnected a subscriber whose
	// connection fell behind; Count holds the drop total so far.
	EvSubscriberDropped
	// EvAutoDecision: the adaptive controller accepted a confirmed
	// proposal and migrated the runtime (note holds "old -> new"; Count
	// holds the controller's migration total so far).
	EvAutoDecision
	// EvAutoRollback: the adaptive controller's regression guard rolled
	// the runtime back to the pre-migration plan (note holds
	// "regressed -> restored"; Count holds the rollback total so far).
	EvAutoRollback
)

var eventKindNames = [...]string{
	EvPlanProposed:      "plan-proposed",
	EvPlanInstalled:     "plan-installed",
	EvStateComplete:     "state-complete",
	EvStateIncomplete:   "state-incomplete",
	EvCompletionStart:   "completion-start",
	EvCompletionEnd:     "completion-end",
	EvSubscriberDropped: "subscriber-dropped",
	EvAutoDecision:      "auto-decision",
	EvAutoRollback:      "auto-rollback",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// Event is one migration-lifecycle record. Unused fields stay zero.
type Event struct {
	// Seq is the tracer-assigned emission number (monotone, including
	// events later overwritten by the ring).
	Seq uint64 `json:"seq"`
	// Time is the wall-clock emission time, stamped by the tracer when
	// left zero.
	Time time.Time `json:"time"`
	Kind EventKind `json:"-"`
	// KindName mirrors Kind as a string for JSON dumps.
	KindName string `json:"kind"`
	// Query names the continuous query the event belongs to.
	Query string `json:"query,omitempty"`
	// Shard identifies the runtime shard (0 for unsharded engines).
	Shard int `json:"shard"`
	// Tick is the engine arrival tick, when the event has one.
	Tick uint64 `json:"tick,omitempty"`
	// Key is the join-attribute value of completion events.
	Key int64 `json:"key,omitempty"`
	// Count is the event's primary count (tuples materialized by a
	// completion, incomplete states of a transition, drops so far).
	Count uint64 `json:"count,omitempty"`
	// Extra is the secondary count (complete states of a transition).
	Extra uint64 `json:"extra,omitempty"`
	// Dur is the episode duration of EvCompletionEnd.
	Dur time.Duration `json:"dur_ns,omitempty"`
	// Note carries free-form context (plans, stream sets).
	Note string `json:"note,omitempty"`
}

// Tracer records migration-lifecycle events into a fixed-capacity ring
// buffer: memory is bounded, the newest events win, and every
// overwritten event is counted as dropped. Emission takes a short
// mutex — events fire on migration lifecycles, not per tuple, so the
// tracer is deliberately kept off the feed hot path. All methods are
// safe for concurrent use, and safe on a nil *Tracer (no-ops), so
// instrumented code never branches on wiring.
type Tracer struct {
	// Now supplies event timestamps; defaults to time.Now. Tests
	// inject a fake clock.
	Now func() time.Time

	mu      sync.Mutex
	buf     []Event
	next    uint64 // total events emitted
	dropped uint64 // events overwritten by the ring
}

// DefaultTraceCap is the ring capacity NewTracer(0) allocates.
const DefaultTraceCap = 4096

// NewTracer returns a tracer holding the last capacity events
// (DefaultTraceCap when capacity ≤ 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{buf: make([]Event, 0, capacity)}
}

// Emit appends ev, stamping Seq, KindName, and (when zero) Time. The
// oldest event is overwritten — and counted dropped — once the ring is
// full. Emit on a nil tracer is a no-op.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	ev.Seq = t.next
	ev.KindName = ev.Kind.String()
	if ev.Time.IsZero() {
		if t.Now != nil {
			ev.Time = t.Now()
		} else {
			ev.Time = time.Now()
		}
	}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
	} else {
		t.buf[t.next%uint64(cap(t.buf))] = ev
		t.dropped++
	}
	t.next++
	t.mu.Unlock()
}

// Events returns a copy of the retained events, oldest first. Nil
// tracers return nil.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	if len(t.buf) < cap(t.buf) {
		return append(out, t.buf...)
	}
	// Full ring: the oldest retained event sits at the write cursor.
	start := int(t.next % uint64(cap(t.buf)))
	out = append(out, t.buf[start:]...)
	return append(out, t.buf[:start]...)
}

// Dropped returns how many events were overwritten by the ring.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Emitted returns the total number of events ever emitted, retained or
// not.
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}
