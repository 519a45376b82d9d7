package engine

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strings"
	"testing"
	"time"

	"jisc/internal/obs"
	"jisc/internal/plan"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// collect keeps every delta: a Clone, since an unstored root only lends
// its result for the call.
func collect(dst *[]Delta) Output {
	return func(d Delta) { d.Tuple = d.Tuple.Clone(); *dst = append(*dst, d) }
}

func feedAll(e *Engine, evs []workload.Event) {
	for _, ev := range evs {
		e.Feed(ev)
	}
}

func ev(s tuple.StreamID, k tuple.Value) workload.Event {
	return workload.Event{Stream: s, Key: k}
}

func TestConfigValidation(t *testing.T) {
	p := plan.MustLeftDeep(0, 1)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil plan", Config{}},
		{"negative window", Config{Plan: p, WindowSize: -1}},
		{"nljoin without theta", Config{Plan: p, Kind: NLJoin}},
		{"theta without nljoin", Config{Plan: p, Theta: func(a, b *tuple.Tuple) bool { return true }}},
		{"bushy setdiff", Config{
			Plan: plan.MustNew(plan.Join(plan.Join(plan.Leaf(0), plan.Leaf(1)), plan.Join(plan.Leaf(2), plan.Leaf(3)))),
			Kind: SetDiff,
		}},
	}
	for _, c := range cases {
		if _, err := New(c.cfg); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestTwoWayJoinBasics(t *testing.T) {
	var out []Delta
	e := MustNew(Config{Plan: plan.MustLeftDeep(0, 1), Output: collect(&out)})
	e.Feed(ev(0, 7))
	if len(out) != 0 {
		t.Fatalf("output before any match: %v", out)
	}
	e.Feed(ev(1, 7))
	if len(out) != 1 {
		t.Fatalf("want 1 result, got %d", len(out))
	}
	if fp := out[0].Tuple.Fingerprint(); fp != "0#1|1#1" {
		t.Errorf("fingerprint = %q", fp)
	}
	e.Feed(ev(1, 7)) // second match with the same stored tuple
	e.Feed(ev(0, 9)) // no match
	if len(out) != 2 {
		t.Fatalf("want 2 results, got %d", len(out))
	}
}

func TestThreeWayJoinMultiplicity(t *testing.T) {
	var out []Delta
	e := MustNew(Config{Plan: plan.MustLeftDeep(0, 1, 2), Output: collect(&out)})
	// Two tuples on stream 0, one on 1, one on 2, all key 5:
	// results = 2 × 1 × 1.
	feedAll(e, []workload.Event{ev(0, 5), ev(0, 5), ev(1, 5), ev(2, 5)})
	if len(out) != 2 {
		t.Fatalf("want 2 results, got %d", len(out))
	}
}

func TestJoinRespectsWindowEviction(t *testing.T) {
	var out []Delta
	e := MustNew(Config{Plan: plan.MustLeftDeep(0, 1), WindowSize: 2, Output: collect(&out)})
	e.Feed(ev(0, 1))
	e.Feed(ev(0, 2))
	e.Feed(ev(0, 3)) // evicts seq 1 (key 1)
	e.Feed(ev(1, 1)) // key 1 expired: no match
	if len(out) != 0 {
		t.Fatalf("expired tuple joined: %v", out)
	}
	e.Feed(ev(1, 3))
	if len(out) != 1 {
		t.Fatalf("live tuple missed: %d", len(out))
	}
	if e.Metrics().Evictions == 0 {
		t.Fatal("evictions not counted")
	}
}

func TestEvictionPropagatesToJoinStates(t *testing.T) {
	e := MustNew(Config{Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 2})
	feedAll(e, []workload.Event{ev(0, 5), ev(1, 5)})
	join01 := e.NodeBySet(tuple.NewStreamSet(0, 1))
	if join01.St.Size() != 1 {
		t.Fatalf("join state size = %d, want 1", join01.St.Size())
	}
	// Push two more stream-0 tuples: seq 1 (key 5) leaves the window.
	feedAll(e, []workload.Event{ev(0, 8), ev(0, 9)})
	if join01.St.Size() != 0 {
		t.Fatalf("join state size after eviction = %d, want 0", join01.St.Size())
	}
}

func TestRootStateBounded(t *testing.T) {
	e := MustNew(Config{Plan: plan.MustLeftDeep(0, 1), WindowSize: 4, EmitExpiry: true})
	for i := 0; i < 200; i++ {
		e.Feed(ev(0, 1))
		e.Feed(ev(1, 1))
	}
	root := e.Root()
	// Root holds at most window² results for a single hot key.
	if root.St.Size() > 16 {
		t.Fatalf("root state grew unbounded: %d", root.St.Size())
	}
}

func TestStaticRejectsMigration(t *testing.T) {
	e := MustNew(Config{Plan: plan.MustLeftDeep(0, 1, 2)})
	if err := e.Migrate(plan.MustLeftDeep(0, 2, 1)); err == nil {
		t.Fatal("static engine accepted migration")
	}
}

func TestMigrateRejectsDifferentStreams(t *testing.T) {
	e := MustNew(Config{Plan: plan.MustLeftDeep(0, 1, 2), Strategy: nopStrategy{}})
	if err := e.Migrate(plan.MustLeftDeep(0, 1, 3)); err == nil {
		t.Fatal("migration to different stream set accepted")
	}
}

// nopStrategy allows transitions but performs no state work, leaving
// incomplete states incomplete — useful to observe the engine's
// classification directly.
type nopStrategy struct{}

func (nopStrategy) Name() string                                    { return "nop" }
func (nopStrategy) OnTransition(*Engine) error                      { return nil }
func (nopStrategy) BeforeProbe(*Engine, *Node, *Node, *tuple.Tuple) {}
func (nopStrategy) EvictContinue(*Engine, *Node, tuple.Value) bool  { return false }

func TestMigrationClassifiesStates(t *testing.T) {
	e := MustNew(Config{Plan: plan.MustLeftDeep(0, 1, 2, 3), Strategy: nopStrategy{}})
	feedAll(e, []workload.Event{ev(0, 1), ev(1, 1), ev(2, 1), ev(3, 1)})
	if err := e.Migrate(plan.MustLeftDeep(0, 1, 3, 2)); err != nil {
		t.Fatal(err)
	}
	// {0,1} existed: complete, content preserved.
	n01 := e.NodeBySet(tuple.NewStreamSet(0, 1))
	if !n01.St.Complete() || n01.St.Size() != 1 {
		t.Errorf("{0,1}: complete=%v size=%d", n01.St.Complete(), n01.St.Size())
	}
	// {0,1,3} is new: incomplete and empty.
	n013 := e.NodeBySet(tuple.NewStreamSet(0, 1, 3))
	if n013.St.Complete() || n013.St.Size() != 0 {
		t.Errorf("{0,1,3}: complete=%v size=%d", n013.St.Complete(), n013.St.Size())
	}
	// Root {0,1,2,3} existed: complete. Its one result was emitted, not
	// stored — nothing reads a root state unless EmitExpiry does.
	root := e.Root()
	if !root.St.Complete() || root.St.Size() != 0 {
		t.Errorf("root: complete=%v size=%d", root.St.Complete(), root.St.Size())
	}
	if got := e.Metrics(); got.Output != 1 || got.Inserts != 4+2 {
		t.Errorf("output=%d inserts=%d, want 1 result and 4 scan + 2 intermediate inserts", got.Output, got.Inserts)
	}
	// Old state {0,1,2} must be discarded from the store.
	if e.NodeBySet(tuple.NewStreamSet(0, 1, 2)) != nil {
		t.Error("old state {0,1,2} still wired")
	}
}

// §4.5: a state surviving two transitions while incomplete must stay
// incomplete.
func TestOverlappedTransitionKeepsIncomplete(t *testing.T) {
	e := MustNew(Config{Plan: plan.MustLeftDeep(0, 1, 2, 3), Strategy: nopStrategy{}})
	feedAll(e, []workload.Event{ev(0, 1), ev(1, 1), ev(2, 1), ev(3, 1)})
	if err := e.Migrate(plan.MustLeftDeep(1, 2, 0, 3)); err != nil {
		t.Fatal(err)
	}
	n12 := e.NodeBySet(tuple.NewStreamSet(1, 2))
	if n12.St.Complete() {
		t.Fatal("{1,2} should be incomplete after first transition")
	}
	born := n12.St.Born()
	if err := e.Migrate(plan.MustLeftDeep(1, 2, 3, 0)); err != nil {
		t.Fatal(err)
	}
	n12b := e.NodeBySet(tuple.NewStreamSet(1, 2))
	if n12b.St.Complete() {
		t.Fatal("{1,2} must stay incomplete across overlapped transition")
	}
	if n12b.St.Born() != born {
		t.Fatalf("Born changed across overlapped transition: %d -> %d", born, n12b.St.Born())
	}
}

func TestNLJoinBasics(t *testing.T) {
	var out []Delta
	// Band theta join: |a.Key - b.Key| <= 1.
	band := func(a, b *tuple.Tuple) bool {
		d := a.Key - b.Key
		return d >= -1 && d <= 1
	}
	e := MustNew(Config{
		Plan: plan.MustLeftDeep(0, 1), Kind: NLJoin, Theta: band,
		Output: collect(&out),
	})
	e.Feed(ev(0, 10))
	e.Feed(ev(1, 11)) // within band
	e.Feed(ev(1, 12)) // outside band
	if len(out) != 1 {
		t.Fatalf("band join results = %d, want 1", len(out))
	}
}

func TestNLJoinPredicateOrientation(t *testing.T) {
	var out []Delta
	less := func(a, b *tuple.Tuple) bool { return a.Key < b.Key }
	e := MustNew(Config{
		Plan: plan.MustLeftDeep(0, 1), Kind: NLJoin, Theta: less,
		Output: collect(&out),
	})
	e.Feed(ev(0, 1))
	e.Feed(ev(1, 5)) // probe from right: pred(left=1, right=5) = true
	if len(out) != 1 {
		t.Fatalf("results = %d, want 1", len(out))
	}
	e.Feed(ev(0, 9)) // probe from left: pred(9, 5) = false
	if len(out) != 1 {
		t.Fatalf("orientation violated: %d results", len(out))
	}
}

func TestMetricsCounters(t *testing.T) {
	e := MustNew(Config{Plan: plan.MustLeftDeep(0, 1)})
	e.Feed(ev(0, 1))
	e.Feed(ev(1, 1))
	s := e.Metrics()
	if s.Input != 2 {
		t.Errorf("Input = %d", s.Input)
	}
	if s.Output != 1 {
		t.Errorf("Output = %d", s.Output)
	}
	if s.Probes == 0 || s.Inserts == 0 {
		t.Errorf("probes/inserts not counted: %+v", s)
	}
}

// TestOutputLatencyMeasured: transition-to-first-output latency is the
// caller's measurement (package bench), taken on the Output callback.
// Without Obs the engine reads its clock neither in Migrate nor in
// Feed, and the first result after a transition reaches Output from
// the Feed that produces it, so a caller's stamp before Migrate and at
// the first result measures exactly the time between them.
func TestOutputLatencyMeasured(t *testing.T) {
	clock := time.Unix(0, 0)
	reads := 0
	var firstAt time.Time
	var out []Delta
	keep := collect(&out)
	e := MustNew(Config{
		Plan: plan.MustLeftDeep(0, 1), Strategy: nopStrategy{},
		Output: func(d Delta) {
			if len(out) == 0 {
				firstAt = clock
			}
			keep(d)
		},
		Now: func() time.Time { reads++; return clock },
	})
	reads = 0
	e.Feed(ev(0, 1))
	start := clock
	if err := e.Migrate(plan.MustLeftDeep(1, 0)); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(3 * time.Second)
	e.Feed(ev(1, 1))
	if len(out) != 1 || firstAt.Sub(start) != 3*time.Second {
		t.Fatalf("%d results, first %v after the transition; want 1 and 3s", len(out), firstAt.Sub(start))
	}
	if reads != 0 {
		t.Fatalf("engine read its clock %d times without Obs, want 0", reads)
	}
}

func TestNodesBottomUp(t *testing.T) {
	e := MustNew(Config{Plan: plan.MustLeftDeep(0, 1, 2)})
	nodes := e.Nodes()
	if len(nodes) != 5 {
		t.Fatalf("nodes = %d, want 5", len(nodes))
	}
	seen := map[tuple.StreamSet]bool{}
	for _, n := range nodes {
		if !n.IsLeaf() {
			if !seen[n.Left.Set] || !seen[n.Right.Set] {
				t.Fatal("parent visited before children")
			}
		}
		seen[n.Set] = true
	}
}

func TestDescribeAndTotalSize(t *testing.T) {
	e := MustNew(Config{Plan: plan.MustLeftDeep(0, 1)})
	e.Feed(ev(0, 1))
	if e.TotalStateSize() != 1 {
		t.Errorf("TotalStateSize = %d, want 1", e.TotalStateSize())
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{HashJoin: "hash-join", NLJoin: "nl-join", SetDiff: "set-difference", Kind(9): "Kind(9)"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

// TestFeedUnknownStreamPanics: a stream the plan does not scan — past
// the per-stream table or in a gap of it — panics with the one message,
// on every entry point, before anything is counted.
func TestFeedUnknownStreamPanics(t *testing.T) {
	for name, feed := range map[string]func(*Engine, workload.Event){
		"Feed":        (*Engine).Feed,
		"FeedBatch":   func(e *Engine, ev workload.Event) { e.FeedBatch([]workload.Event{ev}) },
		"FeedStamped": func(e *Engine, ev workload.Event) { e.FeedStamped(ev, 1, 1) },
	} {
		for _, stream := range []tuple.StreamID{1, 5} {
			e := MustNew(Config{Plan: plan.MustLeftDeep(0, 2)})
			func() {
				defer func() {
					want := fmt.Sprintf("engine: tuple for unknown stream %d", stream)
					if got := recover(); got != want {
						t.Errorf("%s on stream %d: panic %v, want %q", name, stream, got, want)
					}
				}()
				feed(e, ev(stream, 1))
			}()
			if m := e.Metrics(); m.Input != 0 || e.Scan(stream) != nil || e.Scan(2) == nil {
				t.Errorf("%s: input = %d after a rejected feed; scans %d, 2 = %v, %v", name, m.Input, stream, e.Scan(stream), e.Scan(2))
			}
		}
	}
}

// BenchmarkEngineSteadyState measures per-tuple cost on full windows as
// the plan deepens (joins-N, window 500) and as the windows widen
// (window-N, 3 joins). The key domain equals the window, so a probe
// matches ≈1 tuple per level: the substrate behind every figure's x-axis.
func BenchmarkEngineSteadyState(b *testing.B) {
	run := func(name string, streams, window int) {
		b.Run(name, func(b *testing.B) {
			order := make([]tuple.StreamID, streams)
			for i := range order {
				order[i] = tuple.StreamID(i)
			}
			e := MustNew(Config{Plan: plan.MustLeftDeep(order...), WindowSize: window})
			src := workload.MustNewSource(workload.Config{Streams: streams, Domain: int64(window), Seed: 1})
			for i := 0; i < streams*window; i++ {
				e.Feed(src.Next())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Feed(src.Next())
			}
		})
	}
	for _, joins := range []int{2, 4, 8, 16} {
		run(fmt.Sprintf("joins-%d", joins), joins+1, 500)
	}
	for _, window := range []int{100, 1000, 10000} {
		run(fmt.Sprintf("window-%d", window), 4, window)
	}
}

// The tracer's plan-installed event carries what a transition did: the
// two plans, the tick, and the Definition 1 classification of the new
// plan's join states (Count incomplete, Extra complete), followed by one
// event per state.
func TestMigrateTracesPlanInstalled(t *testing.T) {
	rec := obs.NewSet("q", 0).Recorder(0)
	e := MustNew(Config{Plan: plan.MustLeftDeep(0, 1, 2, 3), Strategy: nopStrategy{}, Obs: rec})
	feedAll(e, []workload.Event{ev(0, 1), ev(1, 1), ev(2, 1), ev(3, 1)})
	if err := e.Migrate(plan.MustLeftDeep(0, 1, 3, 2)); err != nil {
		t.Fatal(err)
	}
	events := rec.Tracer.Events()
	if len(events) != 4 {
		t.Fatalf("events = %+v, want plan-installed and three states", events)
	}
	got := events[0]
	if got.Kind != obs.EvPlanInstalled || got.Note != "(((0⋈1)⋈2)⋈3) -> (((0⋈1)⋈3)⋈2)" {
		t.Fatalf("plans: %+v", got)
	}
	if got.Count != 1 || got.Extra != 2 {
		t.Fatalf("classification: %+v", got)
	}
	if got.Tick != 4 {
		t.Fatalf("tick = %d", got.Tick)
	}
	incomplete := 0
	for _, ev := range events[1:] {
		if ev.Kind == obs.EvStateIncomplete {
			incomplete++
		}
	}
	if incomplete != 1 {
		t.Fatalf("state events: %+v", events[1:])
	}
}

func TestEmitExpiryRevisionStream(t *testing.T) {
	var out []Delta
	g := NewGroupCount(nil)
	e := MustNew(Config{
		Plan: plan.MustLeftDeep(0, 1), WindowSize: 2, EmitExpiry: true,
		Output: func(d Delta) { g.Consume(d); out = append(out, d) },
	})
	e.Feed(ev(0, 1))
	e.Feed(ev(1, 1)) // result (0#1,1#1)
	if g.Total() != 1 {
		t.Fatalf("live results = %d", g.Total())
	}
	// Slide stream 0's window past seq 1: the result is retracted and
	// the aggregate tracks the live window.
	e.Feed(ev(0, 8))
	e.Feed(ev(0, 9))
	if g.Total() != 0 {
		t.Fatalf("live results after expiry = %d (out=%v)", g.Total(), out)
	}
	retracts := 0
	for _, d := range out {
		if d.Retraction {
			retracts++
		}
	}
	if retracts != 1 {
		t.Fatalf("retractions = %d", retracts)
	}
	var keys []string
	for _, d := range out {
		keys = append(keys, deltaKey(d))
	}
	if h := deltaStreamHash(keys); h != emitExpiryDeltaStreamGolden {
		t.Errorf("revision stream %v hashes to %#x, recorded %#x", keys, h, uint64(emitExpiryDeltaStreamGolden))
	}
}

// The root join's output state is materialised only for retractions:
// the same input leaves the root table empty without EmitExpiry and
// populated with it, the results are the same, and the insert and
// eviction counters differ by exactly the root's share.
func TestRootStoredOnlyForRetractions(t *testing.T) {
	run := func(emitExpiry bool) (*Engine, []string) {
		var adds []string
		e := MustNew(Config{
			Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 3, EmitExpiry: emitExpiry,
			Output: func(d Delta) {
				if !d.Retraction {
					adds = append(adds, d.Tuple.Fingerprint())
				}
			},
		})
		for i := 0; i < 60; i++ {
			e.Feed(ev(tuple.StreamID(i%3), tuple.Value(i/3%2)))
		}
		return e, adds
	}
	plain, plainAdds := run(false)
	exp, expAdds := run(true)
	if len(plainAdds) == 0 || len(plainAdds) != len(expAdds) {
		t.Fatalf("results: %d without EmitExpiry, %d with", len(plainAdds), len(expAdds))
	}
	for i := range plainAdds {
		if plainAdds[i] != expAdds[i] {
			t.Fatalf("result %d: %s without EmitExpiry, %s with", i, plainAdds[i], expAdds[i])
		}
	}
	if n := plain.Root().St.Size(); n != 0 {
		t.Errorf("root state holds %d tuples without EmitExpiry, want 0", n)
	}
	if n := exp.Root().St.Size(); n == 0 {
		t.Error("root state empty with EmitExpiry")
	}
	pm, em := plain.Metrics(), exp.Metrics()
	if pm.Output != em.Output || pm.Probes != em.Probes {
		t.Errorf("output/probes %d/%d without EmitExpiry, %d/%d with", pm.Output, pm.Probes, em.Output, em.Probes)
	}
	if em.Inserts-pm.Inserts != em.Output {
		t.Errorf("inserts %d vs %d: want a difference of the %d root results", pm.Inserts, em.Inserts, em.Output)
	}
	rootEvicted := em.Output - uint64(exp.Root().St.Size())
	if em.Evictions-pm.Evictions != rootEvicted {
		t.Errorf("evictions %d vs %d: want a difference of the %d expired root results", pm.Evictions, em.Evictions, rootEvicted)
	}
}

func TestNoExpiryEmissionByDefault(t *testing.T) {
	var retracts int
	e := MustNew(Config{
		Plan: plan.MustLeftDeep(0, 1), WindowSize: 2,
		Output: func(d Delta) {
			if d.Retraction {
				retracts++
			}
		},
	})
	e.Feed(ev(0, 1))
	e.Feed(ev(1, 1))
	e.Feed(ev(0, 8))
	e.Feed(ev(0, 9))
	if retracts != 0 {
		t.Fatalf("unexpected retractions: %d", retracts)
	}
}

func TestPerStreamWindowSizes(t *testing.T) {
	var out []Delta
	e := MustNew(Config{
		Plan: plan.MustLeftDeep(0, 1), WindowSize: 100,
		WindowSizes: map[tuple.StreamID]int{0: 1},
		Output:      collect(&out),
	})
	e.Feed(ev(0, 1))
	e.Feed(ev(0, 2)) // stream 0's window of 1: key 1 expires
	e.Feed(ev(1, 1)) // must not match
	e.Feed(ev(1, 2)) // matches
	if len(out) != 1 || out[0].Tuple.Key != 2 {
		t.Fatalf("out = %v", out)
	}
	if _, err := New(Config{
		Plan: plan.MustLeftDeep(0, 1), WindowSize: 10,
		WindowSizes: map[tuple.StreamID]int{1: -4},
	}); err == nil {
		t.Fatal("negative per-stream window accepted")
	}
}

// A rejected migration must leave the engine fully functional on the
// OLD plan (the rejection happens before any state is touched).
func TestStaticRejectionLeavesEngineIntact(t *testing.T) {
	var out []Delta
	e := MustNew(Config{Plan: plan.MustLeftDeep(0, 1), Output: collect(&out)})
	e.Feed(ev(0, 1))
	if err := e.Migrate(plan.MustLeftDeep(1, 0)); err == nil {
		t.Fatal("static migration accepted")
	}
	e.Feed(ev(1, 1))
	if len(out) != 1 {
		t.Fatalf("engine broken after rejected migration: %d outputs", len(out))
	}
	if e.Plan().String() != "(0⋈1)" {
		t.Fatalf("plan changed: %s", e.Plan())
	}
	if e.Metrics().Transitions != 0 {
		t.Fatalf("transition counted despite rejection")
	}
}

func TestFeedStampedIdentity(t *testing.T) {
	var out []Delta
	a := MustNew(Config{Plan: plan.MustLeftDeep(0, 1), Output: collect(&out)})
	// Two engines fed the same externally stamped tuples must agree
	// on identity (the Parallel Track invariant).
	b := MustNew(Config{Plan: plan.MustLeftDeep(1, 0), Output: collect(&out)})
	a.FeedStamped(ev(0, 5), 7, 100)
	b.FeedStamped(ev(0, 5), 7, 100)
	a.FeedStamped(ev(1, 5), 3, 101)
	b.FeedStamped(ev(1, 5), 3, 101)
	if len(out) != 2 {
		t.Fatalf("outputs = %d", len(out))
	}
	if out[0].Tuple.Fingerprint() != out[1].Tuple.Fingerprint() {
		t.Fatalf("identity mismatch: %s vs %s",
			out[0].Tuple.Fingerprint(), out[1].Tuple.Fingerprint())
	}
	if out[0].Tuple.Fingerprint() != "0#7|1#3" {
		t.Fatalf("fingerprint = %s", out[0].Tuple.Fingerprint())
	}
	if a.Tick() != 101 {
		t.Fatalf("tick: %d", a.Tick())
	}
}

func TestNodeStatsCount(t *testing.T) {
	e := MustNew(Config{Plan: plan.MustLeftDeep(0, 1)})
	e.Feed(ev(0, 1))
	e.Feed(ev(1, 1)) // probes scan 0: 1 probe, 1 match
	e.Feed(ev(1, 2)) // probes scan 0: 1 probe, 0 matches
	s0 := e.Scan(0)
	if s0.Probes != 2 || s0.Matches != 1 {
		t.Fatalf("scan0 stats: probes=%d matches=%d", s0.Probes, s0.Matches)
	}
}

// Restore names the versions it reads: 4 (counts in slices), 3
// (RootStored recorded) and 2 (root entries always present); anything
// else is refused.
func TestRestoreRejectsUnknownSnapVersion(t *testing.T) {
	for _, v := range []int{1, snapVersion + 1} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(engineSnap{Version: v, Plan: "(0⋈1)"}); err != nil {
			t.Fatal(err)
		}
		_, err := Restore(&buf, Config{})
		if err == nil || !strings.Contains(err.Error(), "snapVersion") {
			t.Errorf("version %d: err = %v, want a snapVersion refusal", v, err)
		}
	}
}

// A checkpointed tuple lists its refs in strictly ascending stream
// order and covers the set its table's rows cover — the node's own, or
// the outer stream at a set-difference node. Restore reads every
// well-formed checkpoint back to the same bytes, and refuses a crafted
// one that breaks either rule rather than misplacing seqs or panicking.
func TestRestoreChecksTupleShape(t *testing.T) {
	evs := []workload.Event{ev(0, 1), ev(1, 2), ev(2, 1), ev(0, 2), ev(1, 1), ev(0, 3), ev(2, 3)}
	checkpoint := func(e *Engine) []byte {
		var buf bytes.Buffer
		if err := e.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, cfg := range []Config{
		{Kind: HashJoin, WindowSize: 50},
		{Kind: SetDiff, WindowSize: 50},
		{Kind: HashJoin, TimeSpan: 5}, // the windows hold readings ≠ seqs
	} {
		cfg.Plan = plan.MustLeftDeep(0, 1, 2)
		e := MustNew(cfg)
		feedAll(e, evs)
		ckpt := checkpoint(e)
		e.Close()
		cfg.Plan = nil
		back, err := Restore(bytes.NewReader(ckpt), cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Kind, err)
		}
		if again := checkpoint(back); !bytes.Equal(again, ckpt) {
			t.Fatalf("%v, timespan %d: restored engine checkpoints to %d bytes, not the %d it read", cfg.Kind, cfg.TimeSpan, len(again), len(ckpt))
		}
		back.Close()
	}

	cfg := Config{Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 50}
	e := MustNew(cfg)
	feedAll(e, evs)
	ckpt := checkpoint(e)
	e.Close()
	cfg.Plan = nil
	for name, edit := range map[string]func([]tuple.Ref) []tuple.Ref{
		"repeated stream": func(r []tuple.Ref) []tuple.Ref { return []tuple.Ref{r[0], r[0]} },
		"descending":      func(r []tuple.Ref) []tuple.Ref { return []tuple.Ref{r[1], r[0]} },
		"other set":       func(r []tuple.Ref) []tuple.Ref { return r[:1] },
		"no refs":         func([]tuple.Ref) []tuple.Ref { return nil },
	} {
		var snap engineSnap
		if err := gob.NewDecoder(bytes.NewReader(ckpt)).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		edited := false
		for i := range snap.Tables {
			if ts := &snap.Tables[i]; ts.Set == tuple.NewStreamSet(0, 1) && len(ts.Entries) > 0 {
				ts.Entries[0].Refs = edit(ts.Entries[0].Refs)
				edited = true
			}
		}
		if !edited {
			t.Fatal("the checkpoint holds no {0,1} join result to edit")
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
			t.Fatal(err)
		}
		if _, err := Restore(&buf, cfg); err == nil || !strings.Contains(err.Error(), "checkpoint") {
			t.Errorf("%s: Restore err = %v, want a refusal", name, err)
		}
	}
}
