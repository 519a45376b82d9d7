package eddy

import (
	"fmt"

	"jisc/internal/engine"
	"jisc/internal/metrics"
	"jisc/internal/plan"
	"jisc/internal/state"
	"jisc/internal/tuple"
	"jisc/internal/window"
	"jisc/internal/workload"
)

// Stairs executes a multi-way equi-join in an eddy framework with
// STAIR operators (§3.2): unlike CACQ's SteMs, STAIRs materialize
// intermediate join state, organized here along the routing order as
// one state per routing prefix (the lineage the eddy's routing policy
// induces). Two migration modes exist:
//
//   - eager (§3.2): a routing change triggers Promote/Demote on all
//     state entries at once — the Moving State Strategy inside an
//     eddy. The query halts for the duration.
//   - lazy (§4.6, JISC-on-STAIRs): demotions discard dead prefix
//     states immediately, but promotions run on demand, one join
//     attribute value at a time, when a probe first needs the missing
//     entries.
type Stairs struct {
	order   []tuple.StreamID
	streams tuple.StreamSet
	lazy    bool

	stems   map[tuple.StreamID]*state.Table
	windows map[tuple.StreamID]*window.Window
	// inter[set] is the STAIR state over a routing prefix; an
	// incomplete one carries the tick it was created at (Born).
	inter map[tuple.StreamSet]*state.Table

	seqs map[tuple.StreamID]uint64
	tick uint64

	out func(*tuple.Tuple)
	met metrics.Snapshot
	// visits counts tuple passes through the eddy router: one per
	// tuple routed into a stem or prefix state.
	visits uint64
}

// StairsConfig parameterizes a Stairs executor.
type StairsConfig struct {
	// Plan supplies the streams and the initial routing order (the
	// bottom-up order of a left-deep plan).
	Plan *plan.Plan
	// WindowSize is the per-stream window size (default 10_000).
	WindowSize int
	// Lazy selects JISC-on-STAIRs (§4.6) instead of eager
	// Promote/Demote.
	Lazy bool
	// Output receives result tuples; may be nil.
	Output func(*tuple.Tuple)
}

// NewStairs builds the executor.
func NewStairs(cfg StairsConfig) (*Stairs, error) {
	if cfg.Plan == nil {
		return nil, fmt.Errorf("stairs: nil plan")
	}
	order, err := cfg.Plan.Order()
	if err != nil {
		return nil, fmt.Errorf("stairs: routing requires a left-deep plan: %w", err)
	}
	if cfg.WindowSize == 0 {
		cfg.WindowSize = 10000
	}
	if cfg.WindowSize < 0 {
		return nil, fmt.Errorf("stairs: negative window size %d", cfg.WindowSize)
	}
	s := &Stairs{
		order:   order,
		streams: cfg.Plan.Streams,
		lazy:    cfg.Lazy,
		stems:   make(map[tuple.StreamID]*state.Table),
		windows: make(map[tuple.StreamID]*window.Window),
		inter:   make(map[tuple.StreamSet]*state.Table),
		seqs:    make(map[tuple.StreamID]uint64),
		out:     cfg.Output,
	}
	for _, id := range order {
		s.stems[id] = state.NewTable(tuple.NewStreamSet(id))
		s.windows[id] = window.New(id, uint64(cfg.WindowSize))
	}
	for _, set := range s.prefixSets() {
		s.inter[set] = state.NewTable(set)
	}
	return s, nil
}

// MustNewStairs is NewStairs but panics on error.
func MustNewStairs(cfg StairsConfig) *Stairs {
	s, err := NewStairs(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// prefixSets returns the stream sets of the routing prefixes of
// length ≥ 2 under the current order, bottom-up.
func (s *Stairs) prefixSets() []tuple.StreamSet {
	sets := make([]tuple.StreamSet, 0, len(s.order)-1)
	set := tuple.NewStreamSet(s.order[0])
	for _, id := range s.order[1:] {
		set = set.Add(id)
		sets = append(sets, set)
	}
	return sets
}

// Name implements engine.Executor.
func (s *Stairs) Name() string {
	if s.lazy {
		return "stairs-jisc"
	}
	return "stairs"
}

// Metrics implements engine.Executor.
func (s *Stairs) Metrics() metrics.Snapshot { return s.met }

// EddyVisits returns how many tuple passes the eddy router has made.
func (s *Stairs) EddyVisits() uint64 { return s.visits }

// position returns the index of stream id in the routing order.
func (s *Stairs) position(id tuple.StreamID) int {
	for i, o := range s.order {
		if o == id {
			return i
		}
	}
	panic(fmt.Sprintf("stairs: stream %d not in routing order", id))
}

// Feed implements engine.Executor.
func (s *Stairs) Feed(ev workload.Event) {
	s.tick++
	tick, seq := s.tick, s.seqs[ev.Stream]+1
	s.seqs[ev.Stream] = seq
	s.met.Input++

	ref := tuple.Ref{Stream: ev.Stream, Seq: seq}
	for _, exp := range s.windows[ev.Stream].Slide(ref, ev.Key, seq) {
		s.evict(exp)
	}

	t := tuple.NewBase(ev.Stream, seq, ev.Key, tick)
	s.stems[ev.Stream].Insert(t)
	s.met.Inserts++

	// Route along the prefix lineage: a tuple at position p first
	// probes the state below it (prefix p-1, possibly incomplete),
	// then climbs through the remaining stems.
	p := s.position(ev.Stream)
	prefixes := s.prefixSets()
	var cur []*tuple.Tuple
	s.visits++
	switch p {
	case 0:
		cur = s.probe(s.stems[s.order[1]], t)
		p = 1
	default:
		var below *state.Table
		if p == 1 {
			below = s.stems[s.order[0]]
		} else {
			below = s.inter[prefixes[p-2]]
			s.completeLazy(below, prefixes, p-2, t.Key)
		}
		cur = s.probe(below, t)
	}
	for _, c := range cur {
		s.inter[prefixes[p-1]].Insert(c)
		s.met.Inserts++
	}
	for k := p + 1; k < len(s.order); k++ {
		if len(cur) == 0 {
			return
		}
		s.visits += uint64(len(cur))
		var next []*tuple.Tuple
		stem := s.stems[s.order[k]]
		for _, u := range cur {
			next = append(next, s.probe(stem, u)...)
		}
		for _, c := range next {
			s.inter[prefixes[k-1]].Insert(c)
			s.met.Inserts++
		}
		cur = next
	}
	s.met.Output += uint64(len(cur))
	if s.out != nil {
		for _, r := range cur {
			s.out(r)
		}
	}
}

func (s *Stairs) probe(st *state.Table, t *tuple.Tuple) []*tuple.Tuple {
	s.met.Probes++
	matches := st.Probe(t.Key)
	out := make([]*tuple.Tuple, 0, matches.Len())
	var m tuple.Tuple
	for i := range matches.Len() {
		out = append(out, tuple.Join(t, matches.View(i, &m)))
	}
	return out
}

// completeLazy performs the on-demand Promote of §4.6: materialize the
// entries for key in the prefix state at index idx (and everything
// below it) before it is probed.
func (s *Stairs) completeLazy(st *state.Table, prefixes []tuple.StreamSet, idx int, key tuple.Value) {
	if st.Complete() || st.Attempted(key) {
		return
	}
	// Walk down to the highest complete-or-attempted level.
	low := idx
	for low >= 0 {
		t := s.inter[prefixes[low]]
		if t.Complete() || t.Attempted(key) {
			break
		}
		low--
	}
	// Entries below the walk: either a completed prefix or the base
	// stem of order[0].
	var entries tuple.Rows
	if low >= 0 {
		entries = s.inter[prefixes[low]].Probe(key)
	} else {
		entries = s.stems[s.order[0]].Probe(key)
	}
	for k := low + 1; k <= idx; k++ {
		target := s.inter[prefixes[k]]
		born := target.Born()
		stem := s.stems[s.order[k+1]]
		s.met.Completions++
		rs := stem.Probe(key)
		var l, r tuple.Tuple
		for i := range entries.Len() {
			if entries.View(i, &l).Arrival > born {
				continue
			}
			for j := range rs.Len() {
				if rs.View(j, &r).Arrival > born {
					continue
				}
				target.InsertJoin(&l, &r)
				s.met.CompletedEntries++
			}
		}
		if target.MarkAttempted(key) {
			target.MarkComplete()
		}
		// Climb with everything now present for this key at level k,
		// not only what this call inserted — post-born entries are
		// filtered again at the next level's own born tick.
		entries = target.Probe(key)
	}
}

// evict removes an expired base tuple from the stem and from every
// prefix state covering its stream, continuing past incomplete states
// whose entries for the key were never materialized (the §4.2 rule).
func (s *Stairs) evict(exp window.Entry) {
	s.stems[exp.Ref.Stream].RemoveRef(exp.Key, exp.Ref, nil)
	s.met.Evictions++
	for _, set := range s.prefixSets() {
		if !set.Has(exp.Ref.Stream) {
			continue
		}
		st := s.inter[set]
		removed := st.RemoveRef(exp.Key, exp.Ref, nil)
		s.met.Evictions += uint64(removed)
		if removed == 0 && !(s.lazy && !st.Complete() && !st.Attempted(exp.Key)) {
			return
		}
	}
}

// Migrate implements engine.Executor: adopt the new routing order.
// Prefix states whose stream set survives are kept (an incomplete one
// stays incomplete, §4.5); dead states are demoted (discarded). Eager
// mode then promotes every missing state at once; lazy mode defers
// promotion to completeLazy.
func (s *Stairs) Migrate(p *plan.Plan) error {
	if p.Streams != s.streams {
		return fmt.Errorf("stairs: new plan covers %v, old covers %v", p.Streams, s.streams)
	}
	order, err := p.Order()
	if err != nil {
		return fmt.Errorf("stairs: routing requires a left-deep plan: %w", err)
	}
	s.met.Transitions++
	s.order = order

	live := make(map[tuple.StreamSet]bool)
	for _, set := range s.prefixSets() {
		live[set] = true
		if _, ok := s.inter[set]; !ok {
			st := state.NewTable(set)
			st.MarkIncomplete(s.tick)
			s.inter[set] = st
		}
	}
	for set := range s.inter {
		if !live[set] {
			delete(s.inter, set) // Demote
		}
	}
	if !s.lazy {
		s.promoteAll()
	}
	return nil
}

// promoteAll is the eager Promote of §3.2: recompute every incomplete
// prefix state bottom-up from the level below and the stems.
func (s *Stairs) promoteAll() {
	prefixes := s.prefixSets()
	for k, set := range prefixes {
		st := s.inter[set]
		if st.Complete() {
			continue
		}
		var below *state.Table
		if k == 0 {
			below = s.stems[s.order[0]]
		} else {
			below = s.inter[prefixes[k-1]]
		}
		stem := s.stems[s.order[k+1]]
		var l, r tuple.Tuple
		for _, key := range below.Keys(nil) {
			ls, rs := below.Probe(key), stem.Probe(key)
			for i := range ls.Len() {
				for j := range rs.Len() {
					st.InsertJoin(ls.View(i, &l), rs.View(j, &r))
					s.met.MigrationWork++
				}
			}
		}
		st.MarkComplete()
	}
}

var _ engine.Executor = (*Stairs)(nil)
