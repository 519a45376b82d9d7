package enginetest

import (
	"slices"
	"strings"
	"testing"

	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// feed runs evs, each a (stream, key) pair, through r and renders each
// arrival's deltas: fingerprints, a retraction prefixed with '-', one
// arrival's separated by spaces.
func feed(r *Reference, evs ...[2]int) []string {
	var out []string
	for _, x := range evs {
		var ds []string
		for _, d := range r.Feed(workload.Event{Stream: tuple.StreamID(x[0]), Key: tuple.Value(x[1])}) {
			fp := d.Tuple.Fingerprint()
			if d.Retraction {
				fp = "-" + fp
			}
			ds = append(ds, fp)
		}
		out = append(out, strings.Join(ds, " "))
	}
	return out
}

func wantDeltas(t *testing.T, got []string, want ...string) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("deltas per arrival:\n got %q\nwant %q", got, want)
	}
}

// A count window keeps its stream's last W tuples; a hash join adds one
// result per combination of the arrival with same-key tuples.
func TestReferenceCountWindowHashJoin(t *testing.T) {
	r := NewReference(engine.Config{Plan: plan.MustLeftDeep(0, 1), WindowSize: 2})
	got := feed(r, [2]int{0, 1}, [2]int{0, 1}, [2]int{1, 1}, [2]int{0, 1}, [2]int{1, 2}, [2]int{0, 2})
	wantDeltas(t, got, "", "", "0#1|1#1 0#2|1#1", "0#3|1#1", "", "0#4|1#2")
	if r.Output() != 4 {
		t.Fatalf("output %d, want 4", r.Output())
	}
	if err := r.Check(map[string]int{"0#1|1#1": 1, "0#2|1#1": 1, "0#3|1#1": 1, "0#4|1#2": 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.Check(map[string]int{"0#1|1#1": 1, "0#2|1#1": 1, "0#3|1#1": 1, "0#4|1#2": 2}); err == nil {
		t.Fatal("Check passed a duplicate result")
	}
}

// A time window's clock is global: a quiet stream's tuple leaves once
// span arrivals on other streams have passed it.
func TestReferenceQuietStreamExpires(t *testing.T) {
	r := NewReference(engine.Config{Plan: plan.MustLeftDeep(0, 1), TimeSpan: 3})
	evs := [][2]int{{0, 7}}
	for range 100 {
		evs = append(evs, [2]int{1, 9})
	}
	feed(r, append(evs, [2]int{1, 7})...)
	if r.Output() != 0 {
		t.Fatalf("%d results, want 0: the quiet stream's tuple outlived its span", r.Output())
	}
	// Within the span it still joins: ticks 1 and 3 with span 3.
	r = NewReference(engine.Config{Plan: plan.MustLeftDeep(0, 1), TimeSpan: 3})
	wantDeltas(t, feed(r, [2]int{0, 7}, [2]int{1, 9}, [2]int{1, 7}, [2]int{1, 7}), "", "", "0#1|1#2", "")
}

// A band theta is not transitive, so a 3-stream answer depends on which
// pair the plan joins first: s0=10, s1=11, s2=12 match under (1,2,0),
// whose {1,2} pair is keyed 11, and not under (0,1,2), whose {0,1} pair
// is keyed 10. Migrate switches the answer from the next arrival on.
func TestReferenceBandThetaDependsOnPlan(t *testing.T) {
	band := func(a, b *tuple.Tuple) bool { return a.Key-b.Key >= -1 && a.Key-b.Key <= 1 }
	cfg := func(order ...tuple.StreamID) engine.Config {
		return engine.Config{Plan: plan.MustLeftDeep(order...), Kind: engine.NLJoin, Theta: band}
	}
	evs := [][2]int{{0, 10}, {1, 11}, {2, 12}}
	wantDeltas(t, feed(NewReference(cfg(0, 1, 2)), evs...), "", "", "")
	wantDeltas(t, feed(NewReference(cfg(1, 2, 0)), evs...), "", "", "0#1|1#1|2#1")

	r := NewReference(cfg(0, 1, 2))
	feed(r, evs[:2]...)
	r.Migrate(plan.MustLeftDeep(1, 2, 0))
	wantDeltas(t, feed(r, evs[2]), "0#1|1#1|2#1")
}

// A set difference passes an outer tuple while its key is live in no
// inner stream: suppressed by an inner arrival, requalified when that
// inner tuple slides out, retracted when it slides out itself.
func TestReferenceSetDiffRequalifies(t *testing.T) {
	r := NewReference(engine.Config{Plan: plan.MustLeftDeep(0, 1, 2), Kind: engine.SetDiff, WindowSize: 2})
	got := feed(r, [2]int{0, 7}, [2]int{1, 7}, [2]int{1, 8}, [2]int{1, 9}, [2]int{0, 8}, [2]int{0, 3}, [2]int{2, 3})
	wantDeltas(t, got, "0#1", "-0#1", "", "0#1", "", "-0#1 0#3", "-0#3")
}

// Under EmitExpiry a slide retracts every result that held the tuple
// it removed, before the arrival adds its own.
func TestReferenceEmitExpiryRetracts(t *testing.T) {
	r := NewReference(engine.Config{Plan: plan.MustLeftDeep(0, 1), WindowSize: 1, EmitExpiry: true})
	got := feed(r, [2]int{0, 5}, [2]int{1, 5}, [2]int{0, 5}, [2]int{0, 6})
	wantDeltas(t, got, "", "0#1|1#1", "-0#1|1#1 0#2|1#1", "-0#2|1#1")
}

// A sharded Reference routes each key to its part, and each part counts
// its own sequence numbers, as each shard's engine does.
func TestReferenceSharded(t *testing.T) {
	odd := func(k tuple.Value, n int) int { return int(k) % n }
	r := NewReference(engine.Config{Plan: plan.MustLeftDeep(0, 1)}).Sharded(2, odd)
	feed(r, [2]int{0, 1}, [2]int{0, 2}, [2]int{1, 2}, [2]int{1, 1})
	err := r.Check(map[string]int{"0#1|1#1": 1}, map[string]int{"0#1|1#2": 1})
	if err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("Check = %v, want shard 1 to diverge", err)
	}
	if err := r.Check(map[string]int{"0#1|1#1": 1}, map[string]int{"0#1|1#1": 1}); err != nil {
		t.Fatal(err)
	}
	if d := Diff(map[string]int{"a": 1}, map[string]int{"b": 2}); d != "    a: 1, 0\n    b: 0, 2\n" {
		t.Fatalf("Diff = %q", d)
	}
}
