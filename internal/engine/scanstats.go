package engine

import "jisc/internal/tuple"

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
// engine, so this must run on that goroutine — the runtime layer
// forwards the call in-band on each shard's worker.
func (e *Engine) ScanStats() []ScanStats {
	streams := e.plan.Streams.Streams()
	out := make([]ScanStats, 0, len(streams))
	for _, id := range streams {
		scan := e.streams[id].scan
		out = append(out, ScanStats{Stream: id, Probes: scan.Probes, Matches: scan.Matches})
	}
	return out
}
