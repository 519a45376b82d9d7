package core

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"jisc/internal/engine"
	"jisc/internal/migrate"
	"jisc/internal/obs"
	"jisc/internal/plan"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

func ev(s tuple.StreamID, k tuple.Value) workload.Event {
	return workload.Event{Stream: s, Key: k}
}

func newJISC(t *testing.T, p *plan.Plan, win int, out *[]engine.Delta) *engine.Engine {
	t.Helper()
	cfg := engine.Config{Plan: p, WindowSize: win, Strategy: New()}
	if out != nil {
		cfg.Output = func(d engine.Delta) { d.Tuple = d.Tuple.Clone(); *out = append(*out, d) }
	}
	return engine.MustNew(cfg)
}

// Scenario 1 of the introduction: r should join with s, t, u that all
// arrived before the transition. Without state completion the output
// (r,s,t,u) would be missed.
func TestPaperScenario1NoMissedOutput(t *testing.T) {
	var out []engine.Delta
	// Old plan ((R S) T) U with R=0 S=1 T=2 U=3.
	e := newJISC(t, plan.MustLeftDeep(0, 1, 2, 3), 100, &out)
	e.Feed(ev(1, 7)) // s
	e.Feed(ev(2, 7)) // t
	e.Feed(ev(3, 7)) // u
	// Transition to ((S T) U) R.
	if err := e.Migrate(plan.MustLeftDeep(1, 2, 3, 0)); err != nil {
		t.Fatal(err)
	}
	e.Feed(ev(0, 7)) // r arrives after the transition
	if len(out) != 1 {
		t.Fatalf("output (r,s,t,u) missed: %d results", len(out))
	}
	if fp := out[0].Tuple.Fingerprint(); fp != "0#1|1#1|2#1|3#1" {
		t.Errorf("fingerprint = %q", fp)
	}
}

// Scenario 3 / §4.2: after the transition, the window of S slides so s
// expires; the quadruple must NOT be produced even though state ST was
// empty when the removal passed through it.
func TestPaperScenario3WindowSlideThroughIncompleteState(t *testing.T) {
	var out []engine.Delta
	e := newJISC(t, plan.MustLeftDeep(0, 1, 2, 3), 2, &out)
	e.Feed(ev(0, 7)) // r
	e.Feed(ev(1, 7)) // s
	e.Feed(ev(2, 7)) // t
	if err := e.Migrate(plan.MustLeftDeep(1, 2, 3, 0)); err != nil {
		t.Fatal(err)
	}
	// Slide S's window (size 2) so s (key 7) falls out.
	e.Feed(ev(1, 99))
	e.Feed(ev(1, 98))
	// Now u arrives; (r,s,t,u) must not appear.
	e.Feed(ev(3, 7))
	for _, d := range out {
		if !d.Retraction && d.Tuple.Set.Count() == 4 {
			t.Fatalf("invalid output produced after s expired: %v", d.Tuple)
		}
	}
}

func TestLazyCompletionOnDemand(t *testing.T) {
	var out []engine.Delta
	e := newJISC(t, plan.MustLeftDeep(0, 1, 2, 3), 100, &out)
	for _, k := range []tuple.Value{1, 2, 3} {
		e.Feed(ev(0, k))
		e.Feed(ev(1, k))
		e.Feed(ev(2, k))
		e.Feed(ev(3, k))
	}
	if got := len(out); got != 3 {
		t.Fatalf("pre-transition outputs = %d, want 3", got)
	}
	if err := e.Migrate(plan.MustLeftDeep(1, 2, 3, 0)); err != nil {
		t.Fatal(err)
	}
	// Nothing was computed eagerly.
	if c := e.Metrics().Completions; c != 0 {
		t.Fatalf("eager completions at transition: %d", c)
	}
	n123 := e.NodeBySet(tuple.NewStreamSet(1, 2, 3))
	if n123.St.Complete() || n123.St.Size() != 0 {
		t.Fatalf("{1,2,3} should be incomplete and empty, size=%d", n123.St.Size())
	}
	// A probe with key 2 completes exactly key 2's entries.
	out = nil
	e.Feed(ev(0, 2))
	if len(out) != 1 {
		t.Fatalf("results after completion = %d, want 1", len(out))
	}
	if e.Metrics().Completions == 0 {
		t.Fatal("no completion recorded")
	}
	if n123.St.Size() != 1 {
		t.Fatalf("{1,2,3} materialized %d entries, want only key 2's single entry", n123.St.Size())
	}
	// Keys 1 and 3 remain unmaterialized until probed.
	if n123.St.ContainsKey(1) || n123.St.ContainsKey(3) {
		t.Fatal("unprobed keys were materialized")
	}
}

func TestRepeatedProbesCompleteOnce(t *testing.T) {
	var out []engine.Delta
	e := newJISC(t, plan.MustLeftDeep(0, 1, 2), 100, &out)
	e.Feed(ev(1, 5))
	e.Feed(ev(2, 5))
	if err := e.Migrate(plan.MustLeftDeep(1, 2, 0)); err != nil {
		t.Fatal(err)
	}
	e.Feed(ev(0, 5))
	c1 := e.Metrics().Completions
	if c1 == 0 {
		t.Fatal("first probe did not complete")
	}
	e.Feed(ev(0, 5)) // same key again: §4.4 at-most-once
	if c2 := e.Metrics().Completions; c2 != c1 {
		t.Fatalf("repeated completion: %d -> %d", c1, c2)
	}
	if len(out) != 2 {
		t.Fatalf("outputs = %d, want 2", len(out))
	}
}

// Definition 2 is read off the probed state's attempted set and nothing
// else: while the state stays incomplete, the first tuple with a key
// after a transition starts a completion episode and marks the key, the
// second with the same key starts none; a later transition that builds
// the state anew starts with nothing attempted, and the same key
// completes again.
func TestAttemptedKeyCompletesOncePerTransition(t *testing.T) {
	var out []engine.Delta
	rec := &obs.Recorder{}
	e := engine.MustNew(engine.Config{
		Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 100, Strategy: New(), Obs: rec,
		Output: func(d engine.Delta) { d.Tuple = d.Tuple.Clone(); out = append(out, d) },
	})
	defer e.Close()
	// Two keys on both sides of the state to come, so completing one
	// leaves the other pending and the state incomplete.
	for _, k := range []tuple.Value{5, 6} {
		e.Feed(ev(0, k))
		e.Feed(ev(2, k))
	}
	with02, without := plan.MustLeftDeep(0, 2, 1), plan.MustLeftDeep(0, 1, 2)
	migrate := func(p *plan.Plan) {
		t.Helper()
		if err := e.Migrate(p); err != nil {
			t.Fatal(err)
		}
	}
	check := func(step string, episodes uint64, attempted bool) {
		t.Helper()
		st := e.NodeBySet(tuple.NewStreamSet(0, 2)).St
		if st.Complete() {
			t.Fatalf("%s: {0,2} completed; the attempted set is no longer what decides", step)
		}
		if got := rec.Completion.Count(); got != episodes || st.Attempted(5) != attempted {
			t.Fatalf("%s: %d episodes, attempted(5)=%v; want %d and %v", step, got, st.Attempted(5), episodes, attempted)
		}
	}
	migrate(with02)
	check("after the transition", 0, false)
	e.Feed(ev(1, 5))
	check("first key-5 probe", 1, true)
	e.Feed(ev(1, 5))
	check("second key-5 probe", 1, true)
	migrate(without) // {0,2} is discarded …
	migrate(with02)  // … and born again, empty
	check("after the next transition", 1, false)
	e.Feed(ev(1, 5))
	check("first key-5 probe of the new state", 2, true)
	if len(out) != 3 {
		t.Fatalf("%d results, want one per stream-1 tuple", len(out))
	}
}

// A post-transition tuple inserts entries into an incomplete state via
// normal processing; a later probe of the same key must still complete
// the pre-transition entries (the contains-check fast path of the
// paper's Procedure 1 pseudo-code would lose this output).
func TestPartialEntriesDoNotSuppressCompletion(t *testing.T) {
	var out []engine.Delta
	e := newJISC(t, plan.MustLeftDeep(0, 1, 2), 100, &out)
	e.Feed(ev(1, 5)) // s_old
	e.Feed(ev(2, 5)) // t_old
	if err := e.Migrate(plan.MustLeftDeep(1, 2, 0)); err != nil {
		t.Fatal(err)
	}
	// New S tuple flows into incomplete {1,2} normally.
	e.Feed(ev(1, 5)) // s_new joins t_old -> {1,2} now has a post-transition entry for key 5
	n12 := e.NodeBySet(tuple.NewStreamSet(1, 2))
	if n12.St.Size() != 1 {
		t.Fatalf("normal processing should insert 1 entry, got %d", n12.St.Size())
	}
	// r probes {1,2}: must find BOTH (s_old,t_old) and (s_new,t_old).
	e.Feed(ev(0, 5))
	if len(out) != 2 {
		t.Fatalf("outputs = %d, want 2 (pre-transition pair lost?)", len(out))
	}
}

func TestCompletionCounterDetectsCompleteState(t *testing.T) {
	e := newJISC(t, plan.MustLeftDeep(0, 1, 2), 100, nil)
	e.Feed(ev(1, 1))
	e.Feed(ev(1, 2))
	e.Feed(ev(2, 1))
	e.Feed(ev(2, 2))
	if err := e.Migrate(plan.MustLeftDeep(1, 2, 0)); err != nil {
		t.Fatal(err)
	}
	n12 := e.NodeBySet(tuple.NewStreamSet(1, 2))
	if n12.St.Complete() {
		t.Fatal("{1,2} should start incomplete")
	}
	if !n12.St.CounterArmed() || n12.St.Counter() != 2 {
		t.Fatalf("counter = %d armed=%v, want 2 armed", n12.St.Counter(), n12.St.CounterArmed())
	}
	e.Feed(ev(0, 1)) // completes key 1
	if n12.St.Complete() || n12.St.Counter() != 1 {
		t.Fatalf("counter after key 1 = %d", n12.St.Counter())
	}
	e.Feed(ev(0, 2)) // completes key 2 -> drained -> complete
	if !n12.St.Complete() {
		t.Fatal("{1,2} should be complete after all designated keys attempted")
	}
}

func TestCounterDropsEvictedKeys(t *testing.T) {
	e := newJISC(t, plan.MustLeftDeep(0, 1, 2), 2, nil)
	e.Feed(ev(1, 1))
	e.Feed(ev(1, 2))
	e.Feed(ev(2, 1))
	e.Feed(ev(2, 2))
	if err := e.Migrate(plan.MustLeftDeep(1, 2, 0)); err != nil {
		t.Fatal(err)
	}
	n12 := e.NodeBySet(tuple.NewStreamSet(1, 2))
	side := n12.St.CounterSide().Streams()[0]
	if n12.St.Counter() != 2 {
		t.Fatalf("counter = %d", n12.St.Counter())
	}
	// Evict both keys of the designated side by sliding its window.
	e.Feed(ev(side, 50))
	e.Feed(ev(side, 51))
	// Keys 1 and 2 left the designated side; counter pending dropped.
	// Keys 50,51 are post-transition and were never pending.
	if !n12.St.Complete() {
		t.Fatalf("state should complete once pending keys evicted; counter=%d", n12.St.Counter())
	}
}

func TestBestCaseTransitionNoWork(t *testing.T) {
	// Swap just below the root (positions n-1, n): only one state
	// changes. Everything else must be reusable with zero work.
	order := []tuple.StreamID{0, 1, 2, 3, 4, 5}
	e := newJISC(t, plan.MustLeftDeep(order...), 50, nil)
	src := workload.MustNewSource(workload.Config{Streams: 6, Domain: 20, Seed: 3})
	for i := 0; i < 600; i++ {
		e.Feed(src.Next())
	}
	newPlan, err := e.Plan().Swap(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Migrate(newPlan); err != nil {
		t.Fatal(err)
	}
	incomplete := 0
	for _, n := range e.Nodes() {
		if !n.IsLeaf() && !n.St.Complete() {
			incomplete++
		}
	}
	if incomplete != 1 {
		t.Fatalf("best-case transition: %d incomplete states, want 1", incomplete)
	}
}

func TestWorstCaseTransitionAllIncomplete(t *testing.T) {
	order := []tuple.StreamID{0, 1, 2, 3, 4, 5}
	e := newJISC(t, plan.MustLeftDeep(order...), 50, nil)
	src := workload.MustNewSource(workload.Config{Streams: 6, Domain: 20, Seed: 5})
	for i := 0; i < 600; i++ {
		e.Feed(src.Next())
	}
	newPlan, err := e.Plan().Swap(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Migrate(newPlan); err != nil {
		t.Fatal(err)
	}
	incomplete := 0
	for _, n := range e.Nodes() {
		if !n.IsLeaf() && !n.St.Complete() {
			incomplete++
		}
	}
	// Joins 1..4 change; the root keeps the full stream set.
	if incomplete != 4 {
		t.Fatalf("worst-case transition: %d incomplete states, want 4", incomplete)
	}
}

func TestBushyPlanCompletion(t *testing.T) {
	var out []engine.Delta
	// Old: left-deep; new: bushy (0 1) (2 3).
	e := newJISC(t, plan.MustLeftDeep(0, 1, 2, 3), 100, &out)
	for _, k := range []tuple.Value{1, 2} {
		e.Feed(ev(0, k))
		e.Feed(ev(1, k))
		e.Feed(ev(2, k))
		e.Feed(ev(3, k))
	}
	pre := len(out)
	bushy := plan.MustNew(plan.Join(
		plan.Join(plan.Leaf(0), plan.Leaf(1)),
		plan.Join(plan.Leaf(2), plan.Leaf(3)),
	))
	if err := e.Migrate(bushy); err != nil {
		t.Fatal(err)
	}
	// {2,3} incomplete; a new stream-0 tuple forms a composite {0,1}
	// that probes {2,3} and must trigger recursive completion.
	e.Feed(ev(0, 1))
	if len(out) != pre+1 {
		t.Fatalf("bushy completion missed output: got %d new", len(out)-pre)
	}
	n23 := e.NodeBySet(tuple.NewStreamSet(2, 3))
	if !n23.St.ContainsKey(1) {
		t.Fatal("{2,3} not completed for key 1")
	}
}

func TestNLJoinLazyCompletion(t *testing.T) {
	var out []engine.Delta
	band := func(a, b *tuple.Tuple) bool {
		d := a.Key - b.Key
		return d >= -2 && d <= 2
	}
	e := engine.MustNew(engine.Config{
		Plan: plan.MustLeftDeep(0, 1, 2), Kind: engine.NLJoin, Theta: band,
		Strategy: New(),
		Output:   func(d engine.Delta) { out = append(out, d) },
	})
	e.Feed(ev(0, 10))
	e.Feed(ev(1, 11))
	e.Feed(ev(2, 12))
	if len(out) != 1 {
		t.Fatalf("pre-transition outputs = %d", len(out))
	}
	if err := e.Migrate(plan.MustLeftDeep(1, 2, 0)); err != nil {
		t.Fatal(err)
	}
	out = nil
	e.Feed(ev(0, 11)) // probes incomplete {1,2}: completes it on demand
	if len(out) != 1 {
		t.Fatalf("post-transition outputs = %d, want 1", len(out))
	}
	if e.Metrics().Completions == 0 {
		t.Fatal("NL completion not recorded")
	}
}

func TestJISCName(t *testing.T) {
	if New().Name() != "jisc" {
		t.Fatal("name")
	}
}

// §4.7: a group-by count on top of the QEP is unaffected by plan
// transitions — the aggregate over a JISC-migrated run matches the
// aggregate over a static run of the same input exactly.
func TestAggregateUnaffectedByTransition(t *testing.T) {
	run := func(strat engine.Strategy, migrate bool) *engine.GroupCount {
		g := engine.NewGroupCount(nil)
		e := engine.MustNew(engine.Config{
			Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 8,
			Strategy: strat, Output: g.Consume,
		})
		src := workload.MustNewSource(workload.Config{Streams: 3, Domain: 5, Seed: 77})
		for i := 0; i < 400; i++ {
			if migrate && i > 0 && i%90 == 0 {
				target := plan.MustLeftDeep(2, 0, 1)
				if i%180 == 0 {
					target = plan.MustLeftDeep(0, 1, 2)
				}
				if err := e.Migrate(target); err != nil {
					t.Fatal(err)
				}
			}
			e.Feed(src.Next())
		}
		return g
	}
	static := run(engine.Static{}, false)
	jisc := run(New(), true)
	if static.Total() != jisc.Total() || static.Groups() != jisc.Groups() {
		t.Fatalf("aggregates diverge: static total=%d groups=%d, jisc total=%d groups=%d",
			static.Total(), static.Groups(), jisc.Total(), jisc.Groups())
	}
	for _, e := range static.Top(100) {
		if jisc.Count(e.Key) != e.Count {
			t.Fatalf("group %d: static %d vs jisc %d", e.Key, e.Count, jisc.Count(e.Key))
		}
	}
}

// Revision streams (EmitExpiry) under migration: the live result set
// maintained from additions minus retractions must agree between JISC
// and Moving State at the end of a scenario with transitions.
func TestRevisionStreamEquivalence(t *testing.T) {
	run := func(strat engine.Strategy, golden uint64) map[string]bool {
		live := map[string]bool{}
		stream := fnv.New64a()
		e := engine.MustNew(engine.Config{
			Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 6,
			Strategy: strat, EmitExpiry: true,
			Output: func(d engine.Delta) {
				fp := d.Tuple.Fingerprint()
				fmt.Fprintf(stream, "%v %s\n", d.Retraction, fp)
				if d.Retraction {
					if !live[fp] {
						t.Errorf("%s: retraction of non-live %s", strat.Name(), fp)
					}
					delete(live, fp)
				} else {
					if live[fp] {
						t.Errorf("%s: duplicate addition of %s", strat.Name(), fp)
					}
					live[fp] = true
				}
			},
		})
		src := workload.MustNewSource(workload.Config{Streams: 3, Domain: 4, Seed: 61})
		for i := 0; i < 400; i++ {
			if i > 0 && i%120 == 0 {
				target := plan.MustLeftDeep(2, 1, 0)
				if (i/120)%2 == 0 {
					target = plan.MustLeftDeep(0, 1, 2)
				}
				if err := e.Migrate(target); err != nil {
					t.Fatal(err)
				}
			}
			e.Feed(src.Next())
		}
		if h := stream.Sum64(); h != golden {
			t.Errorf("%s: revision stream hashes to %#x, recorded %#x", strat.Name(), h, golden)
		}
		return live
	}
	// The recorded hashes are the delta streams (results and
	// retractions, in order) at commit 382bfb7, before the root state
	// became conditional on EmitExpiry: byte-identical with it on.
	const golden = 0xc11118ea4e821842
	a := run(New(), golden)
	b := run(migrate.MovingState{}, golden)
	if len(a) != len(b) {
		t.Fatalf("live sets differ: %d vs %d", len(a), len(b))
	}
	for fp := range a {
		if !b[fp] {
			t.Fatalf("live set mismatch at %s", fp)
		}
	}
	if len(a) == 0 {
		t.Fatal("empty live set")
	}
}

// Regression: found by the simulation harness (seed 3285 shrunk). When
// a window slide removes the last counter-side tuple of a key, the
// completion counter drops the key and may complete the state — but if
// that happened before the eviction walk ascended past the state,
// EvictContinue saw "complete", stopped, and an adopted ancestor state
// (same stream set carried across the transition, §4.5) kept an entry
// referencing the expired tuple. The next probe then emitted a result
// built from a tuple no longer in any window.
func TestEvictWalkPassesCounterDropCompletedState(t *testing.T) {
	var out []engine.Delta
	e := engine.MustNew(engine.Config{
		Plan: plan.MustLeftDeep(1, 0, 2, 3),
		// Stream 2's window is 2 so its first tuple expires quickly;
		// the other windows never slide in this test.
		WindowSize:  100,
		WindowSizes: map[tuple.StreamID]int{2: 2},
		Strategy:    New(),
		Output:      func(d engine.Delta) { d.Tuple = d.Tuple.Clone(); out = append(out, d) },
	})
	e.Feed(ev(0, 2))
	e.Feed(ev(2, 2))
	e.Feed(ev(1, 2))
	// New plan's {0,1,2} node adopts the old ((1⋈0)⋈2) state holding
	// 0#1|1#1|2#1; the fresh (2⋈1) node is born empty with its counter
	// armed on leaf 2's only key (2).
	if err := e.Migrate(plan.MustLeftDeep(2, 1, 0, 3)); err != nil {
		t.Fatal(err)
	}
	// Two stream-2 arrivals slide 2#1 (key 2) out: the counter drops
	// key 2 and completes (2⋈1); the walk must still reach the adopted
	// {0,1,2} state and remove 0#1|1#1|2#1.
	e.Feed(ev(2, 4))
	e.Feed(ev(2, 5))
	// 3#1 (key 2) probes the adopted state: no result may appear — a
	// never-migrated engine evicted the triple when 2#1 expired.
	e.Feed(ev(3, 2))
	for _, d := range out {
		if !d.Retraction && d.Tuple.Set.Count() == 4 {
			t.Fatalf("stale adopted-state entry produced output %s after 2#1 expired", d.Tuple.Fingerprint())
		}
	}
}

// TestEpisodeReadsClockTwice: a completion episode reads the engine's
// clock at its start and at its end and nowhere else, and every episode
// is recorded, so on a clock that advances one tick per read every
// recorded episode lasts exactly one tick. Exactly every sixteenth
// episode is traced, and its two events carry the instants the
// duration was measured between instead of each reading a clock of
// their own, so they bracket the recorded duration.
func TestEpisodeReadsClockTwice(t *testing.T) {
	set := obs.NewSet("q", 1<<12)
	var reads, tracerReads int
	set.Tracer.Now = func() time.Time { tracerReads++; return time.Unix(1, 0) }
	e := engine.MustNew(engine.Config{
		Plan: plan.MustLeftDeep(0, 1, 2, 3), WindowSize: 1000, Strategy: New(),
		Obs: set.Recorder(0),
		Now: func() time.Time { reads++; return time.Unix(0, int64(reads)) },
	})
	defer e.Close()
	const keys = 160
	for k := 0; k < keys; k++ {
		for s := 0; s < 4; s++ {
			e.Feed(ev(tuple.StreamID(s), tuple.Value(k)))
		}
	}
	if err := e.Migrate(plan.MustLeftDeep(3, 2, 1, 0)); err != nil {
		t.Fatal(err)
	}
	tracerBefore := tracerReads
	// Each arrival of stream 0 opens one episode, for its own key: the
	// i-th episode (from 1) completes key i-1.
	for k := 0; k < keys; k++ {
		e.Feed(ev(0, tuple.Value(k)))
	}
	if tracerReads != tracerBefore {
		t.Errorf("the tracer read its own clock %d times during the episodes", tracerReads-tracerBefore)
	}
	rec := set.Snapshot().Completion
	if rec.Count != keys || rec.Sum != keys || rec.Max != 1 {
		t.Fatalf("recorded %d episodes lasting %d ns in all (max %d ns), want %d of one tick each", rec.Count, rec.Sum, rec.Max, keys)
	}
	var start obs.Event
	var traced []int64
	for _, ev := range set.Tracer.Events() {
		switch ev.Kind {
		case obs.EvCompletionStart:
			start = ev
		case obs.EvCompletionEnd:
			traced = append(traced, ev.Key)
			if ev.Dur != time.Nanosecond {
				t.Fatalf("episode for key %d lasted %v on a one-tick-per-read clock: something read the clock inside it", ev.Key, ev.Dur)
			}
			if start.Key != ev.Key || !start.Time.Add(ev.Dur).Equal(ev.Time) {
				t.Fatalf("events at %v and %v do not bracket the recorded %v", start.Time, ev.Time, ev.Dur)
			}
		}
	}
	var want []int64
	for i := 16; i <= keys; i += 16 {
		want = append(want, int64(i-1))
	}
	if fmt.Sprint(traced) != fmt.Sprint(want) {
		t.Fatalf("traced the episodes of keys %v, want every 16th: %v", traced, want)
	}
}
