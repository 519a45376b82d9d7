package engine

import (
	"encoding/gob"
	"fmt"
	"io"

	"jisc/internal/metrics"
	"jisc/internal/plan"
	"jisc/internal/tuple"
	"jisc/internal/window"
)

// Checkpointing serializes the engine's complete execution state —
// plan, windows, operator states including JISC's completeness
// metadata (incomplete flags, attempted keys, armed counters, birth
// ticks) — so a query can stop and resume exactly where it was, even
// in the middle of a lazy migration with states still incomplete.
// Code (strategy, theta predicate, output) is not serialized; the
// restoring process supplies it again through the Config.

// snapVersion guards the checkpoint format. Version 2 added the
// lifetime metrics counters, so a restored node's STATS continue from
// where the crashed one left off. Version 3 added RootStored, since a
// hash root's output state exists only under EmitExpiry (storesOutput);
// version 2 checkpoints always carry it, and Restore still reads them.
// Checkpoints of either version written by earlier builds also carry
// the transition tick and a per-stream map of each key's last arrival;
// gob skips fields the struct no longer names, and the per-state
// attempted sets those shadowed are all a restored engine needs.
const (
	snapVersion       = 3
	snapVersionRootIn = 2
)

type tupleSnap struct {
	Key     tuple.Value
	Refs    []tuple.Ref
	Arrival uint64
	Oldest  uint64
}

func snapOf(t *tuple.Tuple) tupleSnap {
	return tupleSnap{Key: t.Key, Refs: t.Refs, Arrival: t.Arrival, Oldest: t.Oldest}
}

func (s tupleSnap) tuple() *tuple.Tuple {
	set := tuple.StreamSet(0)
	for _, r := range s.Refs {
		set = set.Add(r.Stream)
	}
	return &tuple.Tuple{Key: s.Key, Set: set, Refs: s.Refs, Arrival: s.Arrival, Oldest: s.Oldest}
}

type tableSnap struct {
	Set          tuple.StreamSet
	Complete     bool
	Attempted    []tuple.Value
	Pending      []tuple.Value
	CounterArmed bool
	CounterSide  tuple.StreamSet // zero when no counter side
	Entries      []tupleSnap
}

type listSnap struct {
	Set       tuple.StreamSet
	Complete  bool
	Attempted []tuple.Ref
	Entries   []tupleSnap
}

type windowSnap struct {
	Stream  tuple.StreamID
	Entries []tuple.Ref
	Keys    []tuple.Value
	Times   []uint64 // time windows only
}

type engineSnap struct {
	Version    int
	Plan       string
	Kind       int
	WindowSize int
	TimeSpan   uint64
	Tick       uint64
	Seqs       map[tuple.StreamID]uint64
	Born       map[tuple.StreamSet]uint64
	Tables     []tableSnap
	Lists      []listSnap
	Windows    []windowSnap
	Probes     map[tuple.StreamSet]uint64
	Matches    map[tuple.StreamSet]uint64
	Counters   metrics.Snapshot
	// RootStored reports that the root's table snapshot holds the
	// root's output state; false for a hash root checkpointed without
	// EmitExpiry, whose table is empty by construction.
	RootStored bool
}

// Checkpoint writes the engine's execution state to w. The engine must
// be quiescent (no Feed in progress).
func (e *Engine) Checkpoint(w io.Writer) error {
	snap := engineSnap{
		Version:    snapVersion,
		Plan:       e.plan.String(),
		Kind:       int(e.cfg.Kind),
		WindowSize: e.cfg.WindowSize,
		TimeSpan:   e.cfg.TimeSpan,
		Tick:       e.tick,
		Seqs:       map[tuple.StreamID]uint64{},
		Born:       e.born,
		Probes:     map[tuple.StreamSet]uint64{},
		Matches:    map[tuple.StreamSet]uint64{},
		Counters:   e.met.Snapshot(),
		RootStored: e.storesOutput(e.root),
	}
	for _, n := range e.Nodes() {
		snap.Probes[n.Set] = n.Probes
		snap.Matches[n.Set] = n.Matches
		switch {
		case n.St != nil:
			ts := tableSnap{Set: n.Set, Complete: n.St.Complete()}
			ts.Attempted = n.St.AttemptedKeys()
			ts.Pending, ts.CounterArmed = n.St.PendingKeys()
			if n.CounterSide != nil {
				ts.CounterSide = n.CounterSide.Set
			}
			n.St.Each(func(t *tuple.Tuple) bool {
				ts.Entries = append(ts.Entries, snapOf(t))
				return true
			})
			snap.Tables = append(snap.Tables, ts)
		case n.Ls != nil:
			ls := listSnap{Set: n.Set, Complete: n.Ls.Complete(), Attempted: n.Ls.AttemptedRefs()}
			n.Ls.Each(func(t *tuple.Tuple) bool {
				ls.Entries = append(ls.Entries, snapOf(t))
				return true
			})
			snap.Lists = append(snap.Lists, ls)
		}
	}
	for _, id := range e.plan.Streams.Streams() {
		st := &e.streams[id]
		snap.Seqs[id] = st.seq
		ws := windowSnap{Stream: id}
		switch win := st.window.(type) {
		case *window.TimeWindow:
			win.EachTimed(func(en window.Entry, ts uint64) bool {
				ws.Entries = append(ws.Entries, en.Ref)
				ws.Keys = append(ws.Keys, en.Key)
				ws.Times = append(ws.Times, ts)
				return true
			})
		case *window.Window:
			win.Each(func(en window.Entry) bool {
				ws.Entries = append(ws.Entries, en.Ref)
				ws.Keys = append(ws.Keys, en.Key)
				return true
			})
		}
		snap.Windows = append(snap.Windows, ws)
	}
	return gob.NewEncoder(w).Encode(snap)
}

// Restore rebuilds an engine from a checkpoint. cfg supplies the
// non-serializable parts (Strategy, Theta, Output, Now); its Plan is
// ignored (the checkpointed plan wins) and its Kind, WindowSize and
// TimeSpan must match the checkpoint.
func Restore(r io.Reader, cfg Config) (*Engine, error) {
	var snap engineSnap
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("engine: decoding checkpoint: %w", err)
	}
	switch snap.Version {
	case snapVersion:
	case snapVersionRootIn:
		snap.RootStored = true
	default:
		return nil, fmt.Errorf("engine: checkpoint snapVersion %d, this build reads %d and %d (re-checkpoint with a matching build)", snap.Version, snapVersionRootIn, snapVersion)
	}
	p, err := plan.Parse(snap.Plan)
	if err != nil {
		return nil, fmt.Errorf("engine: checkpointed plan: %w", err)
	}
	if cfg.Kind != Kind(snap.Kind) {
		return nil, fmt.Errorf("engine: checkpoint kind %v, config kind %v", Kind(snap.Kind), cfg.Kind)
	}
	if cfg.WindowSize == 0 {
		cfg.WindowSize = snap.WindowSize
	}
	if cfg.WindowSize != snap.WindowSize || cfg.TimeSpan != snap.TimeSpan {
		return nil, fmt.Errorf("engine: window config mismatch with checkpoint")
	}
	cfg.Plan = p
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}

	// The root rule in both directions: a retraction stream cannot
	// resume from a checkpoint that did not keep the results it would
	// retract, and root entries this engine would never evict are
	// dropped below (they were emitted before the checkpoint).
	rootStored := e.storesOutput(e.root)
	if rootStored && !snap.RootStored {
		e.Close()
		return nil, fmt.Errorf("engine: checkpoint was taken without EmitExpiry and holds no root output state; restoring it with EmitExpiry would never retract the results emitted before it")
	}

	e.met.Restore(snap.Counters)
	e.tick = snap.Tick
	for _, id := range p.Streams.Streams() {
		e.streams[id].seq = snap.Seqs[id]
	}
	for set, born := range snap.Born {
		e.born[set] = born
	}

	nodes := map[tuple.StreamSet]*Node{}
	for _, n := range e.Nodes() {
		nodes[n.Set] = n
		n.Probes = snap.Probes[n.Set]
		n.Matches = snap.Matches[n.Set]
		n.Born = e.born[n.Set]
	}
	for _, ts := range snap.Tables {
		n, ok := nodes[ts.Set]
		if !ok || n.St == nil {
			return nil, fmt.Errorf("engine: checkpoint table %v has no matching operator", ts.Set)
		}
		n.St.Clear()
		if n == e.root && !rootStored {
			ts.Entries = nil
		}
		for _, en := range ts.Entries {
			n.St.Insert(en.tuple())
		}
		n.St.RestoreMeta(ts.Complete, ts.Attempted, ts.Pending, ts.CounterArmed)
		if ts.CounterArmed && ts.CounterSide != 0 {
			side, ok := nodes[ts.CounterSide]
			if !ok {
				return nil, fmt.Errorf("engine: counter side %v missing", ts.CounterSide)
			}
			n.CounterSide = side
		}
	}
	for _, ls := range snap.Lists {
		n, ok := nodes[ls.Set]
		if !ok || n.Ls == nil {
			return nil, fmt.Errorf("engine: checkpoint list %v has no matching operator", ls.Set)
		}
		n.Ls.Clear()
		for _, en := range ls.Entries {
			n.Ls.Insert(en.tuple())
		}
		n.Ls.RestoreMeta(ls.Complete, ls.Attempted)
	}
	for _, ws := range snap.Windows {
		if e.Scan(ws.Stream) == nil {
			return nil, fmt.Errorf("engine: checkpoint window for unknown stream %d", ws.Stream)
		}
		win := e.streams[ws.Stream].window
		for i, ref := range ws.Entries {
			var ts uint64
			if ws.Times != nil {
				ts = ws.Times[i]
			}
			if exp := win.Slide(ref, ws.Keys[i], ts); len(exp) != 0 {
				return nil, fmt.Errorf("engine: checkpoint window for stream %d overflowed on restore", ws.Stream)
			}
		}
	}
	return e, nil
}
