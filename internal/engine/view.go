package engine

import (
	"sync/atomic"

	"jisc/internal/metrics"
	"jisc/internal/plan"
	"jisc/internal/tuple"
)

// ScanStats is one cumulative reading of a scan node's selectivity
// counters — the per-operator signal the autopilot's advisor feeds on,
// detached from the live Node so it can cross goroutine boundaries.
// Counters reset whenever the node's state is rebuilt (plan
// transitions); consumers diff successive readings and rebaseline on
// decreases, as package adaptive's advisor does.
type ScanStats struct {
	Stream  tuple.StreamID
	Probes  uint64
	Matches uint64
}

// ScanStats reads every scan node's counters, ascending by stream ID.
// The counters are plain fields owned by the goroutine driving the
// engine, so this must run on that goroutine; another goroutine reads
// View().ScanStats().
func (e *Engine) ScanStats() []ScanStats {
	streams := e.plan.Streams.Streams()
	out := make([]ScanStats, len(streams))
	for i, id := range streams {
		scan := e.streams[id].scan
		out[i] = ScanStats{Stream: id, Probes: scan.Probes, Matches: scan.Matches}
	}
	return out
}

// View is an engine as of the end of its last FeedBatch or Migrate (or
// New or Restore): the work counters, the resident state bytes, each
// scan node's probes and matches, and the plan. The goroutine that
// feeds the engine publishes it; any goroutine reads it, lock-free and
// concurrently with the owner, so a monitor never waits behind the
// engine's input. Each quantity is read atomically; two of them may
// come from consecutive publishes.
type View struct {
	counters [numCounters]atomic.Uint64 // in counterFields order
	bytes    atomic.Uint64
	scans    []scanView // indexed by StreamID, sized once at New
	plan     atomic.Pointer[plan.Plan]
}

type scanView struct{ probes, matches atomic.Uint64 }

const numCounters = 9 // the counters of a metrics.Snapshot

// counterFields lists s's counters in one fixed order.
func counterFields(s *metrics.Snapshot) [numCounters]*uint64 {
	return [numCounters]*uint64{&s.Input, &s.Output, &s.Probes, &s.Inserts,
		&s.Completions, &s.CompletedEntries, &s.Evictions, &s.Transitions, &s.MigrationWork}
}

// View returns the engine's published view.
func (e *Engine) View() *View { return &e.pub }

// publish writes the view from the live engine, allocating nothing.
// Only the owner calls it.
func (e *Engine) publish() {
	v := &e.pub
	for i, f := range counterFields(&e.met) {
		update(&v.counters[i], *f)
	}
	update(&v.bytes, uint64(e.StateBytes()))
	for id := range e.streams {
		if scan := e.streams[id].scan; scan != nil {
			update(&v.scans[id].probes, scan.Probes)
			update(&v.scans[id].matches, scan.Matches)
		}
	}
	if v.plan.Load() != e.plan {
		v.plan.Store(e.plan)
	}
}

// update stores n into a unless it holds n already: a load is a plain
// read, a store a full barrier, and most quantities move rarely.
func update(a *atomic.Uint64, n uint64) {
	if a.Load() != n {
		a.Store(n)
	}
}

// Metrics returns the published work counters.
func (v *View) Metrics() metrics.Snapshot {
	var s metrics.Snapshot
	for i, f := range counterFields(&s) {
		*f = v.counters[i].Load()
	}
	return s
}

// StateBytes returns the published resident state footprint
// (Engine.StateBytes).
func (v *View) StateBytes() int64 { return int64(v.bytes.Load()) }

// ScanStats returns the published scan counters, ascending by stream
// ID (Engine.ScanStats).
func (v *View) ScanStats() []ScanStats {
	streams := v.Plan().Streams.Streams()
	out := make([]ScanStats, len(streams))
	for i, id := range streams {
		out[i] = ScanStats{Stream: id, Probes: v.scans[id].probes.Load(), Matches: v.scans[id].matches.Load()}
	}
	return out
}

// Plan returns the plan last applied.
func (v *View) Plan() *plan.Plan { return v.plan.Load() }
