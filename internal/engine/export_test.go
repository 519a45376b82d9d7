package engine

import (
	"bytes"
	"encoding/gob"

	"jisc/internal/metrics"
	"jisc/internal/tuple"
)

// parentSnap is engineSnap as commit 43950d7 encoded it: today's fields
// plus the transition tick and the per-stream last-arrival maps its
// Definition 2 fast path kept.
type parentSnap struct {
	Version        int
	Plan           string
	Kind           int
	WindowSize     int
	TimeSpan       uint64
	Tick           uint64
	TransitionTick uint64
	Seqs           map[tuple.StreamID]uint64
	LastArrival    map[tuple.StreamID]map[tuple.Value]uint64
	Born           map[tuple.StreamSet]uint64
	Tables         []tableSnap
	Lists          []listSnap
	Windows        []windowSnap
	Probes         map[tuple.StreamSet]uint64
	Matches        map[tuple.StreamSet]uint64
	Counters       metrics.Snapshot
	RootStored     bool
}

// AsParentCheckpoint re-encodes ckpt, a checkpoint written by this
// build, in the shape commit 43950d7 wrote, carrying the given
// transition tick and last-arrival maps.
func AsParentCheckpoint(ckpt []byte, transitionTick uint64, lastArrival map[tuple.StreamID]map[tuple.Value]uint64) ([]byte, error) {
	var snap parentSnap
	if err := gob.NewDecoder(bytes.NewReader(ckpt)).Decode(&snap); err != nil {
		return nil, err
	}
	snap.TransitionTick, snap.LastArrival = transitionTick, lastArrival
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(snap)
	return buf.Bytes(), err
}
