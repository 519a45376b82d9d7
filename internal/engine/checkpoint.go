package engine

import (
	"cmp"
	"encoding/gob"
	"fmt"
	"io"
	"slices"

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
// Version 4 writes the per-stream seqs, the birth ticks and the
// per-node counts as slices in stream, set and plan order instead of
// maps: gob encodes a map in iteration order, so two equal engines
// wrote different bytes. Restore still reads the maps of versions 2
// and 3.
const (
	snapVersion       = 4
	snapVersionMaps   = 3
	snapVersionRootIn = 2
)

// keyCount is one entry of a map the checkpoint carries, keyed by a
// stream id or a stream set, as its uint64 value.
type keyCount struct {
	Key, N uint64
}

// countMap reads a checkpoint's list back into a map.
func countMap[K ~uint8 | ~uint64](kcs []keyCount) map[K]uint64 {
	m := make(map[K]uint64, len(kcs))
	for _, kc := range kcs {
		m[K(kc.Key)] = kc.N
	}
	return m
}

// tupleSnap is one stored tuple; gob skips the oldest tick older ones hold.
type tupleSnap struct {
	Key     tuple.Value
	Refs    []tuple.Ref
	Arrival uint64
}

// snapOf copies t out: its refs in stream order, from its set and seqs.
func snapOf(t *tuple.Tuple) tupleSnap {
	s := tupleSnap{Key: t.Key, Refs: make([]tuple.Ref, len(t.Seqs)), Arrival: t.Arrival}
	for i, id := range t.Set.Streams() {
		s.Refs[i] = tuple.Ref{Stream: id, Seq: t.Seqs[i]}
	}
	return s
}

// tuple rebuilds the snapped tuple. Refs must be in strictly ascending
// stream order, as snapOf writes them: a tuple's seqs follow its set's
// order, so a repeated or out-of-order stream would misplace every seq
// after it. A checkpoint breaking that is refused, not repaired.
func (s tupleSnap) tuple() (*tuple.Tuple, error) {
	if len(s.Refs) == 0 {
		return nil, fmt.Errorf("engine: checkpoint tuple with key %d has no refs", s.Key)
	}
	t := &tuple.Tuple{Key: s.Key, Seqs: make([]uint64, len(s.Refs)), Arrival: s.Arrival}
	for i, r := range s.Refs {
		if r.Stream >= tuple.MaxStreams || (i > 0 && r.Stream <= s.Refs[i-1].Stream) {
			return nil, fmt.Errorf("engine: checkpoint tuple with key %d: refs %v not in ascending stream order", s.Key, s.Refs)
		}
		t.Set = t.Set.Add(r.Stream)
		t.Seqs[i] = r.Seq
	}
	return t, nil
}

// rowSet returns the stream set every tuple stored at node n
// covers: n's own, or for a set-difference node the outer stream's,
// whose tuples it passes through.
func rowSet(n *Node) tuple.StreamSet {
	for n.Kind == SetDiff {
		n = n.Left
	}
	return n.Set
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

// listSnap is how checkpoints of earlier builds carried a
// nested-loops state; Restore reads it into the node's table. Its
// Attempted refs are ignored: a nested-loops state is completed whole
// on its first probe, so they were empty at every quiescent point. The
// field stays because gob writes the type's description into every
// checkpoint.
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
	Times   []uint64 // time windows only; nil means each reading is the Ref.Seq
}

type engineSnap struct {
	Version    int
	Plan       string
	Kind       int
	WindowSize int
	TimeSpan   uint64
	Tick       uint64
	SeqList    []keyCount // by stream
	BornList   []keyCount // by state set
	Tables     []tableSnap
	Lists      []listSnap // earlier builds' nested-loops states
	Windows    []windowSnap
	ProbeList  []keyCount // by node, in plan order
	MatchList  []keyCount // by node, in plan order
	Counters   metrics.Snapshot
	// RootStored reports that the root's table snapshot holds the
	// root's output state; false for a hash root checkpointed without
	// EmitExpiry, whose table is empty by construction.
	RootStored bool

	// Versions 2 and 3 carried the four lists above as maps.
	Seqs            map[tuple.StreamID]uint64
	Born            map[tuple.StreamSet]uint64
	Probes, Matches map[tuple.StreamSet]uint64
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
		Counters:   e.met,
		RootStored: e.storesOutput(e.root),
	}
	for _, n := range e.Nodes() {
		snap.ProbeList = append(snap.ProbeList, keyCount{uint64(n.Set), n.Probes})
		snap.MatchList = append(snap.MatchList, keyCount{uint64(n.Set), n.Matches})
		ts := tableSnap{Set: n.Set, Complete: n.St.Complete(), CounterSide: n.St.CounterSide()}
		if !ts.Complete { // the incomplete states' birth ticks, by set below
			snap.BornList = append(snap.BornList, keyCount{uint64(n.Set), n.St.Born()})
		}
		ts.Attempted = n.St.AttemptedKeys()
		ts.Pending, ts.CounterArmed = n.St.PendingKeys()
		n.St.Each(func(t *tuple.Tuple) bool {
			ts.Entries = append(ts.Entries, snapOf(t))
			return true
		})
		snap.Tables = append(snap.Tables, ts)
	}
	slices.SortFunc(snap.BornList, func(a, b keyCount) int { return cmp.Compare(a.Key, b.Key) })
	for _, id := range e.plan.Streams.Streams() {
		st := &e.streams[id]
		snap.SeqList = append(snap.SeqList, keyCount{uint64(id), st.seq})
		ws := windowSnap{Stream: id}
		st.window.Each(func(en window.Entry, ts uint64) bool {
			ws.Entries = append(ws.Entries, en.Ref)
			ws.Keys = append(ws.Keys, en.Key)
			if e.cfg.TimeSpan > 0 {
				ws.Times = append(ws.Times, ts)
			}
			return true
		})
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
		snap.Seqs = countMap[tuple.StreamID](snap.SeqList)
		snap.Born = countMap[tuple.StreamSet](snap.BornList)
		snap.Probes = countMap[tuple.StreamSet](snap.ProbeList)
		snap.Matches = countMap[tuple.StreamSet](snap.MatchList)
	case snapVersionMaps:
	case snapVersionRootIn:
		snap.RootStored = true
	default:
		return nil, fmt.Errorf("engine: checkpoint snapVersion %d, this build reads %d to %d (re-checkpoint with a matching build)", snap.Version, snapVersionRootIn, snapVersion)
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

	e.met = snap.Counters
	e.tick = snap.Tick
	for _, id := range p.Streams.Streams() {
		e.streams[id].seq = snap.Seqs[id]
	}

	nodes := map[tuple.StreamSet]*Node{}
	for _, n := range e.Nodes() {
		nodes[n.Set] = n
		n.Probes = snap.Probes[n.Set]
		n.Matches = snap.Matches[n.Set]
	}
	// Earlier builds wrote nested-loops states as lists.
	for _, ls := range snap.Lists {
		snap.Tables = append(snap.Tables, tableSnap{Set: ls.Set, Complete: ls.Complete, Entries: ls.Entries})
	}
	for _, ts := range snap.Tables {
		n, ok := nodes[ts.Set]
		if !ok {
			return nil, fmt.Errorf("engine: checkpoint table %v has no matching operator", ts.Set)
		}
		n.St.Clear()
		if n == e.root && !rootStored {
			ts.Entries = nil
		}
		for _, en := range ts.Entries {
			t, err := en.tuple()
			if err != nil {
				return nil, err
			}
			if t.Set != rowSet(n) {
				return nil, fmt.Errorf("engine: checkpoint table %v holds a tuple covering %v, want %v", ts.Set, t.Set, rowSet(n))
			}
			n.St.Insert(t)
		}
		side := ts.CounterSide
		if ts.CounterArmed && side == 0 {
			// Armed with its side lost (a build that kept the side on
			// the operator tree lost it at an overlapped transition):
			// re-armed below from the state's children.
			side = n.Set
		}
		n.St.RestoreMeta(ts.Complete, snap.Born[ts.Set], ts.Attempted, ts.Pending, side)
	}
	for _, n := range e.Nodes() {
		e.rearmStale(n)
	}
	for _, ws := range snap.Windows {
		if e.Scan(ws.Stream) == nil {
			return nil, fmt.Errorf("engine: checkpoint window for unknown stream %d", ws.Stream)
		}
		win := e.streams[ws.Stream].window
		for i, ref := range ws.Entries {
			ts := ref.Seq // a count window's reading
			if ws.Times != nil {
				ts = ws.Times[i]
			}
			if exp := win.Slide(ref, ws.Keys[i], ts); len(exp) != 0 {
				return nil, fmt.Errorf("engine: checkpoint window for stream %d overflowed on restore", ws.Stream)
			}
		}
	}
	e.publish()
	return e, nil
}
