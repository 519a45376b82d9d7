package enginetest

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// Reference is the naive answer of a query: the one definition of what
// an engine fed the same events must emit, against which every Theorem 1
// referee holds its subjects. It is built from the subject's own
// engine.Config, so the query is described once, and keeps nothing but
// raw per-stream windows — it calls no window, state or engine code —
// from which it recomputes, on every arrival, the results the arrival
// adds and, under EmitExpiry or for a set difference, the ones expiry
// takes back:
//
//   - a count window holds its stream's last W tuples; under a time span
//     a tuple is live while its tick lies in (now − span, now], and every
//     arrival expires every stream;
//   - a join result is one live tuple per stream, matched plan node by
//     plan node: a hash node by key equality, a theta node (every node of
//     an NLJoin plan, the ThetaNodes of a hybrid one) by Theta(left,
//     right) in plan order, its composite keyed by its lowest stream's
//     constituent (DESIGN.md §6.9);
//   - a set difference passes the outer (leftmost) stream's live tuples
//     whose key is live in no inner stream.
//
// Only theta answers depend on the plan: Migrate switches the plan the
// Reference evaluates. It is not safe for concurrent use.
type Reference struct {
	cfg     engine.Config
	plan    *plan.Plan
	shardOf func(tuple.Value, int) int
	parts   []*part
}

// part is one partition's windows and the additions it has emitted.
type part struct {
	wins   [][]*tuple.Tuple // live base tuples per stream, oldest first
	seqs   []uint64
	tick   uint64
	outs   map[string]int
	added  uint64 // the sum of outs
	deltas []engine.Delta
}

// NewReference returns the Reference of the query cfg describes. It
// reads Plan, WindowSize, WindowSizes, TimeSpan, Kind, Theta, ThetaNodes
// and EmitExpiry; strategy, outputs and tiers are the subject's.
func NewReference(cfg engine.Config) *Reference {
	if cfg.WindowSize == 0 {
		cfg.WindowSize = 10_000
	}
	return (&Reference{cfg: cfg, plan: cfg.Plan}).Sharded(1, nil)
}

// Sharded partitions r the way a sharded runtime partitions its input:
// n parts, each event to part shardOf(key, n) — pass runtime.ShardOf —
// and each part with its own windows, sequence numbers and ticks, as
// each shard's engine has. It empties r and returns it.
func (r *Reference) Sharded(n int, shardOf func(tuple.Value, int) int) *Reference {
	streams := int(r.plan.Streams.Streams()[r.plan.Streams.Count()-1]) + 1
	r.shardOf, r.parts = shardOf, make([]*part, n)
	for i := range r.parts {
		r.parts[i] = &part{
			wins: make([][]*tuple.Tuple, streams),
			seqs: make([]uint64, streams),
			outs: map[string]int{},
		}
	}
	return r
}

// Migrate switches the plan r evaluates from the next arrival on.
func (r *Reference) Migrate(p *plan.Plan) { r.plan = p }

// Feed admits ev and returns the deltas its arrival makes, in the
// engine's order: what the window slide takes back (or, for a set
// difference, requalifies), then what the new tuple adds or suppresses.
// The slice is reused by the next Feed; the tuples are not.
func (r *Reference) Feed(ev workload.Event) []engine.Delta {
	p := r.parts[0]
	if r.shardOf != nil {
		p = r.parts[r.shardOf(ev.Key, len(r.parts))]
	}
	p.deltas = p.deltas[:0]
	p.tick++
	s := ev.Stream
	if r.cfg.TimeSpan > 0 {
		for i, w := range p.wins {
			for len(w) > 0 && w[0].Arrival+r.cfg.TimeSpan <= p.tick {
				r.expire(p, tuple.StreamID(i))
				w = p.wins[i]
			}
		}
	} else if len(p.wins[s]) == r.size(s) {
		r.expire(p, s)
	}
	p.seqs[s]++
	t := tuple.NewBase(s, p.seqs[s], ev.Key, p.tick)
	if r.cfg.Kind == engine.SetDiff {
		r.setDiff(p, func() { p.wins[s] = append(p.wins[s], t) })
		return p.deltas
	}
	p.wins[s] = append(p.wins[s], t)
	for _, c := range r.eval(p, r.plan.Root, t, nil) {
		p.emit(false, c)
	}
	return p.deltas
}

// size is stream s's count window.
func (r *Reference) size(s tuple.StreamID) int {
	if w, ok := r.cfg.WindowSizes[s]; ok {
		return w
	}
	return r.cfg.WindowSize
}

// expire drops stream s's oldest tuple, retracting what held it.
func (r *Reference) expire(p *part, s tuple.StreamID) {
	drop := func() { p.wins[s] = p.wins[s][1:] }
	switch {
	case r.cfg.Kind == engine.SetDiff:
		r.setDiff(p, drop)
		return
	case r.cfg.EmitExpiry:
		for _, c := range r.eval(p, r.plan.Root, p.wins[s][0], nil) {
			p.emit(true, c)
		}
	}
	drop()
}

// emit records one delta; additions count into the part's multiset.
func (p *part) emit(retract bool, t *tuple.Tuple) {
	if !retract {
		p.outs[t.Fingerprint()]++
		p.added++
	}
	p.deltas = append(p.deltas, engine.Delta{Tuple: t, Retraction: retract})
}

// eval returns the results of plan node n over p's windows: only those
// holding pin where n covers pin's stream, and only those keyed in keys
// when keys is non-nil. The child covering pin goes first, so the other
// is filtered by what can still match: by its keys under a hash node,
// and under a theta node only the child holding the lowest stream, the
// one whose key the composite takes.
func (r *Reference) eval(p *part, n *plan.Node, pin *tuple.Tuple, keys []tuple.Value) []*tuple.Tuple {
	if n.IsLeaf() {
		w := p.wins[n.Stream]
		if pin != nil && pin.Set.Has(n.Stream) {
			w = []*tuple.Tuple{pin}
		}
		if keys != nil {
			w = slices.DeleteFunc(slices.Clone(w), func(t *tuple.Tuple) bool { return !slices.Contains(keys, t.Key) })
		}
		return w
	}
	set := n.Set()
	theta := r.cfg.Kind == engine.NLJoin || r.cfg.ThetaNodes != nil && r.cfg.ThetaNodes(set)
	a, b := n.Left, n.Right
	if pin != nil && b.Set().Contains(pin.Set) {
		a, b = b, a
	}
	ak, bk := keys, keys
	if theta && a.Set().Contains(set&-set) {
		bk = nil
	} else if theta {
		ak = nil
	}
	as := r.eval(p, a, pin, ak)
	if len(as) == 0 {
		return nil
	}
	if !theta {
		bk = bk[:0:0]
		for _, x := range as {
			if !slices.Contains(bk, x.Key) {
				bk = append(bk, x.Key)
			}
		}
	}
	bs := r.eval(p, b, pin, bk)
	var out []*tuple.Tuple
	for _, x := range as {
		for _, y := range bs {
			l, rt := x, y
			if a != n.Left {
				l, rt = y, x
			}
			if theta && !r.cfg.Theta(l, rt) || !theta && x.Key != y.Key {
				continue
			}
			// tuple.Join keys the composite by its first argument: the
			// side holding the lowest stream.
			if l.Set&-l.Set > rt.Set&-rt.Set {
				l, rt = rt, l
			}
			out = append(out, tuple.Join(l, rt))
		}
	}
	return out
}

// setDiff applies change to p's windows and emits how the passing set
// moved: retractions for the tuples that left it, additions for those
// that joined it.
func (r *Reference) setDiff(p *part, change func()) {
	before := r.passing(p)
	change()
	after := r.passing(p)
	for _, t := range before {
		if !slices.Contains(after, t) {
			p.emit(true, t)
		}
	}
	for _, t := range after {
		if !slices.Contains(before, t) {
			p.emit(false, t)
		}
	}
}

// passing returns the outer stream's live tuples whose key is live in no
// inner stream, oldest first.
func (r *Reference) passing(p *part) []*tuple.Tuple {
	outer := r.plan.Root
	for !outer.IsLeaf() {
		outer = outer.Left
	}
	inner := map[tuple.Value]bool{}
	for s, w := range p.wins {
		for _, u := range w {
			if tuple.StreamID(s) != outer.Stream {
				inner[u.Key] = true
			}
		}
	}
	return slices.DeleteFunc(slices.Clone(p.wins[outer.Stream]), func(t *tuple.Tuple) bool { return inner[t.Key] })
}

// Output is the number of additions across every part: what the
// subject's Output counter must read.
func (r *Reference) Output() uint64 {
	var n uint64
	for _, p := range r.parts {
		n += p.added
	}
	return n
}

// Check holds a subject's additions — one multiset per part, in part
// order, a Sink's Outs for an engine — to r's and describes the first
// part that differs.
func (r *Reference) Check(got ...map[string]int) error {
	if len(got) != len(r.parts) {
		return fmt.Errorf("%d output multisets for %d parts", len(got), len(r.parts))
	}
	for i, p := range r.parts {
		if maps.Equal(p.outs, got[i]) {
			continue
		}
		err := fmt.Errorf("output multiset diverges from the reference (want, got):\n%s", Diff(p.outs, got[i]))
		if len(r.parts) > 1 {
			err = fmt.Errorf("shard %d of %d: %w", i, len(r.parts), err)
		}
		return err
	}
	return nil
}

// Diff renders the difference between two output multisets, at most a
// dozen lines in fingerprint order, empty when they are equal. The order
// is stable so that reruns of a failing case print the same report.
func Diff(want, got map[string]int) string {
	var lines []string
	for k, n := range want {
		if got[k] != n {
			lines = append(lines, fmt.Sprintf("    %s: %d, %d\n", k, n, got[k]))
		}
	}
	for k, n := range got {
		if _, ok := want[k]; !ok {
			lines = append(lines, fmt.Sprintf("    %s: 0, %d\n", k, n))
		}
	}
	slices.Sort(lines)
	if len(lines) > 12 {
		lines = append(lines[:12], "    ...\n")
	}
	return strings.Join(lines, "")
}
