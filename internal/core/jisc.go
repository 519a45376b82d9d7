// Package core implements Just-In-Time State Completion (JISC), the
// paper's contribution: a lazy plan-migration strategy for continuous
// queries. At a plan transition nothing is computed; the new plan's
// states are classified complete/incomplete per Definition 1 (and the
// §4.5 overlapped-transition rule), completion-detection counters are
// armed per §4.3, and missing state entries are computed on demand —
// one join-attribute value at a time — the first time a probe needs
// them (Procedures 1–3). The query never halts, so output stays
// steady (§5.1.1).
package core

import (
	"time"

	"jisc/internal/engine"
	"jisc/internal/obs"
	"jisc/internal/tuple"
)

// JISC is the lazy migration strategy. The zero value is ready to use
// with default options; use New for explicit construction.
type JISC struct {
	// DisableLeftDeepFastPath forces the generic recursive completion
	// (Procedure 2) even on left-deep plans, for the Procedure 2 vs 3
	// ablation. Default false: left-deep plans use the iterative
	// spine walk of Procedure 3.
	DisableLeftDeepFastPath bool

	// FaultSkipEveryNth, when positive, deliberately skips every Nth
	// completion episode: the state is marked attempted without its
	// entries being materialized, silently losing the results those
	// entries would have produced. Test-only — the simulation
	// harness's self-test injects this fault to prove the differential
	// oracle catches it and shrinks it to a minimal repro. Never set
	// in production code.
	FaultSkipEveryNth int
	faultEpisodes     int
}

// faultSkip reports whether fault injection swallows this completion
// episode (see FaultSkipEveryNth).
func (c *JISC) faultSkip() bool {
	if c.FaultSkipEveryNth <= 0 {
		return false
	}
	c.faultEpisodes++
	return c.faultEpisodes%c.FaultSkipEveryNth == 0
}

// New returns a JISC strategy with default options.
func New() *JISC { return &JISC{} }

// Name implements engine.Strategy.
func (c *JISC) Name() string { return "jisc" }

// OnTransition implements engine.Strategy. The engine has already
// re-attached surviving states (keeping §4.5 completeness) and created
// the incomplete states. JISC only arms the §4.3 completion counters,
// bottom-up so Case 1/2 classification sees children first.
func (c *JISC) OnTransition(e *engine.Engine) error {
	for _, n := range e.Nodes() {
		if n.IsLeaf() {
			continue
		}
		if !n.St.Complete() && !n.St.CounterArmed() {
			e.ArmCounter(n)
		}
	}
	return nil
}

// BeforeProbe implements engine.Strategy: when a tuple is about to
// probe an incomplete state whose entries for the tuple's join
// attribute value were never computed, complete exactly those entries
// (Procedure 1 lines 5–6). The per-state attempted set is Definition
// 2's classification and the §4.4 at-most-once guarantee in one place:
// it is asked only while the state is incomplete, is bounded by the
// state's keys, and is dropped when the state completes. A
// nested-loops state has no key to complete by; its first probe
// completes it whole.
func (c *JISC) BeforeProbe(e *engine.Engine, j, opp *engine.Node, t *tuple.Tuple) {
	if opp.St.Complete() {
		return
	}
	if opp.Kind == engine.NLJoin {
		ep := beginEpisode(e, t.Key)
		c.completeNLState(e, opp)
		ep.end(e)
		return
	}
	if opp.St.Attempted(t.Key) {
		return
	}
	if c.faultSkip() {
		if opp.St.MarkAttempted(t.Key) {
			e.MarkNodeComplete(opp)
		}
		return
	}
	ep := beginEpisode(e, t.Key)
	if !c.DisableLeftDeepFastPath && isLeftSpine(opp) {
		c.completeKeyLD(e, opp, t.Key)
	} else {
		c.completeKey(e, opp, t.Key)
	}
	ep.end(e)
}

// episode is one open just-in-time completion episode — the unit the
// paper trades the migration stall into. It is a value, so opening one
// allocates nothing; the zero episode (instrumentation off) records
// nothing.
type episode struct {
	o      *obs.Recorder
	key    tuple.Value
	before uint64 // CompletedEntries when the episode began
	start  time.Time
}

// beginEpisode opens a completion episode for key, reading the clock
// once.
func beginEpisode(e *engine.Engine, key tuple.Value) episode {
	o := e.Obs()
	if o == nil {
		return episode{}
	}
	return episode{o: o, key: key, before: e.Collector().CompletedEntries, start: e.Now()}
}

// end closes the episode. Every episode's duration lands in the
// Completion histogram, so its count is exact; one episode in the
// recorder's sampling period (Recorder.SampleEpisode) also goes to the
// tracer as start/end events (with the triggering key and the tuples
// materialized), stamped with the two instants the duration was
// measured between: an episode reads the clock twice, not once more per
// event, and times the completion, not the tracing. The closing read is
// Engine.Since, one monotonic read on the default clock; the end stamp
// is the start plus the duration.
func (ep episode) end(e *engine.Engine) {
	if ep.o == nil {
		return
	}
	dur := e.Since(ep.start)
	end := ep.start.Add(dur)
	ep.o.Completion.Record(dur)
	if !ep.o.SampleEpisode() {
		return
	}
	ev := obs.Event{
		Kind: obs.EvCompletionStart, Time: ep.start, Query: ep.o.Query, Shard: ep.o.Shard,
		Tick: e.Tick(), Key: int64(ep.key),
	}
	ep.o.Tracer.Emit(ev)
	ev.Kind, ev.Time, ev.Dur = obs.EvCompletionEnd, end, dur
	ev.Count = e.Collector().CompletedEntries - ep.before
	ep.o.Tracer.Emit(ev)
}

// EvictContinue implements engine.Strategy: window-slide removals keep
// propagating past an incomplete state when the removed key's entries
// were never materialized there (§4.2), and stop per the standard rule
// once the entries are guaranteed to exist (§4.4's optimization). A
// nested-loops state never marks a key, so the walk passes it while it
// is incomplete.
func (c *JISC) EvictContinue(e *engine.Engine, j *engine.Node, key tuple.Value) bool {
	return !j.St.Complete() && !j.St.Attempted(key)
}

// completeKey is Procedure 2: recursive state completion for bushy
// plans. It materializes the entries of key at node n by first
// completing both children for the key, then joining the children's
// pre-Born entries. Entries whose newest constituent arrived after the
// state was born are produced by normal processing and must not be
// regenerated.
func (c *JISC) completeKey(e *engine.Engine, n *engine.Node, key tuple.Value) {
	if n.IsLeaf() || n.St.Complete() || n.St.Attempted(key) {
		return
	}
	c.completeKey(e, n.Left, key)
	c.completeKey(e, n.Right, key)
	c.joinInto(e, n, key)
	if n.St.MarkAttempted(key) {
		e.MarkNodeComplete(n)
	}
}

// completeKeyLD is Procedure 3: iterative state completion for
// left-deep plans. Starting from the highest operator with a complete
// (or already attempted) state on the left spine below n, it walks
// upward joining each level's entries with the inner scan's entries,
// completing every state on the way up to and including n.
func (c *JISC) completeKeyLD(e *engine.Engine, n *engine.Node, key tuple.Value) {
	// The spine lives on the stack up to eight levels, the common case;
	// a deeper one moves to the heap on the ninth append.
	var levels [8]*engine.Node
	spine := levels[:0]
	cur := n
	for !cur.IsLeaf() && !cur.St.Complete() && !cur.St.Attempted(key) {
		spine = append(spine, cur)
		cur = cur.Left
	}
	for i := len(spine) - 1; i >= 0; i-- {
		o := spine[i]
		c.joinInto(e, o, key)
		if o.St.MarkAttempted(key) {
			e.MarkNodeComplete(o)
		}
	}
}

// joinInto materializes the pre-Born entries of key at join node n
// from its children's states, each row built straight into n's run
// from the children's lent views.
func (c *JISC) joinInto(e *engine.Engine, n *engine.Node, key tuple.Value) {
	met := e.Collector()
	met.Completions++
	born := n.St.Born()
	left := n.Left.St.Probe(key)
	right := n.Right.St.Probe(key)
	var l, r tuple.Tuple
	for i := range left.Len() {
		if left.View(i, &l).Arrival > born {
			continue
		}
		for j := range right.Len() {
			if right.View(j, &r).Arrival > born {
				continue
			}
			n.St.InsertJoin(&l, &r)
			met.CompletedEntries++
		}
	}
}

// isLeftSpine reports whether the subtree under n is a left-deep
// chain (every right descendant a leaf), the shape Procedure 3
// requires.
func isLeftSpine(n *engine.Node) bool {
	for !n.IsLeaf() {
		if !n.Right.IsLeaf() {
			return false
		}
		n = n.Left
	}
	return true
}

// completeNLState completes a nested-loops state in full (recursively
// completing its children first). Nested-loops states have no join-key
// granularity to complete at, so JISC amortizes by completing a state
// the first time any probe needs it rather than all states at
// transition time. In hybrid plans (§2.1) a nested-loops node may have
// hash-join children; those are completed in full too.
func (c *JISC) completeNLState(e *engine.Engine, n *engine.Node) {
	if n.IsLeaf() || n.St.Complete() {
		return
	}
	c.completeChildFull(e, n.Left)
	c.completeChildFull(e, n.Right)
	met := e.Collector()
	met.Completions++
	born := n.St.Born()
	pred := e.Theta()
	n.Left.St.Each(func(l *tuple.Tuple) bool {
		if l.Arrival > born {
			return true
		}
		n.Right.St.Each(func(r *tuple.Tuple) bool {
			if r.Arrival <= born && pred(l, r) {
				n.InsertTheta(l, r)
				met.CompletedEntries++
			}
			return true
		})
		return true
	})
	e.MarkNodeComplete(n)
}

// completeChildFull brings a child's whole state up to date, whatever
// operator backs it — the recursion step a full nested-loops
// completion needs in hybrid plans.
func (c *JISC) completeChildFull(e *engine.Engine, n *engine.Node) {
	switch {
	case n.IsLeaf():
	case n.Kind == engine.NLJoin:
		c.completeNLState(e, n)
	default:
		c.completeHashFull(e, n)
	}
}

// completeHashFull completes every missing key of a hash-join state —
// used when a nested-loops parent needs the child's full extent. The
// per-key work is identical to on-demand completion, just driven over
// the remaining unattempted keys of the smaller child side.
func (c *JISC) completeHashFull(e *engine.Engine, n *engine.Node) {
	if n.St.Complete() {
		return
	}
	c.completeChildFull(e, n.Left)
	c.completeChildFull(e, n.Right)
	small, other := n.Left.St, n.Right.St
	if other.DistinctKeys() < small.DistinctKeys() {
		small = other
	}
	for _, key := range e.IterKeys(small) {
		if n.St.Attempted(key) {
			continue
		}
		c.joinInto(e, n, key)
		n.St.MarkAttempted(key)
	}
	e.MarkNodeComplete(n)
}

// BeforeDiffEvent implements engine.DiffCompleter: materialize the
// entries of key at set-difference node j (§4.7), completing the chain
// below first, deduplicating against entries already inserted by
// normal post-transition processing, and ignoring the in-flight tuple
// `exclude` so the books reflect the instant before the triggering
// event.
func (c *JISC) BeforeDiffEvent(e *engine.Engine, j *engine.Node, key tuple.Value, exclude tuple.Ref, haveExclude bool) {
	ep := beginEpisode(e, key)
	c.completeDiffKey(e, j, key, exclude, haveExclude)
	ep.end(e)
}

func (c *JISC) completeDiffKey(e *engine.Engine, j *engine.Node, key tuple.Value, exclude tuple.Ref, haveExclude bool) {
	if j.IsLeaf() || j.St.Complete() || j.St.Attempted(key) {
		return
	}
	c.completeDiffKey(e, j.Left, key, exclude, haveExclude)
	met := e.Collector()
	met.Completions++
	// Does the inner stream suppress this key (ignoring the excluded
	// in-flight tuple)?
	var t tuple.Tuple
	suppressed := false
	inner := j.Right.St.Probe(key)
	for i := range inner.Len() {
		if haveExclude && inner.View(i, &t).First() == exclude {
			continue
		}
		suppressed = true
		break
	}
	if !suppressed {
		existing := make(map[tuple.Ref]bool)
		stored := j.St.Probe(key)
		for i := range stored.Len() {
			existing[stored.View(i, &t).First()] = true
		}
		outer := j.Left.St.Probe(key)
		for i := range outer.Len() {
			ref := outer.View(i, &t).First()
			if haveExclude && ref == exclude || existing[ref] {
				continue
			}
			j.St.Insert(&t)
			met.CompletedEntries++
		}
	}
	if j.St.MarkAttempted(key) {
		e.MarkNodeComplete(j)
	}
}
