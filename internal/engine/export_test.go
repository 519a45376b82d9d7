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
// build, in the shape commit 43950d7 wrote — snapVersion 3, its
// per-stream and per-set counts in maps — carrying the given transition
// tick and last-arrival maps.
func AsParentCheckpoint(ckpt []byte, transitionTick uint64, lastArrival map[tuple.StreamID]map[tuple.Value]uint64) ([]byte, error) {
	var cur engineSnap
	if err := gob.NewDecoder(bytes.NewReader(ckpt)).Decode(&cur); err != nil {
		return nil, err
	}
	snap := parentSnap{
		Version: snapVersionMaps, Plan: cur.Plan, Kind: cur.Kind,
		WindowSize: cur.WindowSize, TimeSpan: cur.TimeSpan, Tick: cur.Tick,
		Seqs:   countMap[tuple.StreamID](cur.SeqList),
		Born:   countMap[tuple.StreamSet](cur.BornList),
		Tables: cur.Tables, Lists: cur.Lists, Windows: cur.Windows,
		Probes:   countMap[tuple.StreamSet](cur.ProbeList),
		Matches:  countMap[tuple.StreamSet](cur.MatchList),
		Counters: cur.Counters, RootStored: cur.RootStored,
	}
	snap.TransitionTick, snap.LastArrival = transitionTick, lastArrival
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(snap)
	return buf.Bytes(), err
}
