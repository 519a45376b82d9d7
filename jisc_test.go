package jisc

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestQueryQuickPath(t *testing.T) {
	var results []Delta
	q, err := NewQuery(QueryConfig{
		Plan:       LeftDeep(0, 1, 2),
		WindowSize: 100,
		Output:     func(d Delta) { d.Tuple = d.Tuple.Clone(); results = append(results, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []Event{{Stream: 0, Key: 7}, {Stream: 1, Key: 7}, {Stream: 2, Key: 7}} {
		q.Feed(ev)
	}
	if len(results) != 1 {
		t.Fatalf("results = %d", len(results))
	}
	if err := q.Migrate(LeftDeep(2, 1, 0)); err != nil {
		t.Fatal(err)
	}
	q.Feed(Event{Stream: 0, Key: 7})
	if len(results) != 2 {
		t.Fatalf("results after migration = %d", len(results))
	}
	if q.Metrics().Transitions != 1 {
		t.Fatalf("transitions = %d", q.Metrics().Transitions)
	}
	if q.Plan().String() != "((2⋈1)⋈0)" {
		t.Fatalf("plan = %s", q.Plan())
	}
}

func TestQueryStrategies(t *testing.T) {
	for _, s := range []Strategy{JISC, MovingState} {
		q, err := NewQuery(QueryConfig{Plan: LeftDeep(0, 1), Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		q.Feed(Event{Stream: 0, Key: 1})
		if err := q.Migrate(LeftDeep(1, 0)); err != nil {
			t.Fatalf("strategy %v: %v", s, err)
		}
	}
	q, err := NewQuery(QueryConfig{Plan: LeftDeep(0, 1), Strategy: Static})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Migrate(LeftDeep(1, 0)); err == nil {
		t.Fatal("static query accepted migration")
	}
}

func TestNewQueryValidation(t *testing.T) {
	if _, err := NewQuery(QueryConfig{}); err == nil {
		t.Fatal("nil plan accepted")
	}
}

func TestAsyncQuery(t *testing.T) {
	var n int
	q, err := NewAsyncQuery(QueryConfig{
		Plan:   LeftDeep(0, 1),
		Output: func(Delta) { n++ }, // worker goroutine only
	}, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if err := q.Feed(Event{Stream: 0, Key: 3}); err != nil {
		t.Fatal(err)
	}
	if err := q.Migrate(LeftDeep(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := q.Feed(Event{Stream: 1, Key: 3}); err != nil {
		t.Fatal(err)
	}
	if err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	m, err := q.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Input != 2 || n != 1 {
		t.Fatalf("input=%d outputs=%d", m.Input, n)
	}
}

func TestQueryCheckpointRestore(t *testing.T) {
	var results int
	q, err := NewQuery(QueryConfig{
		Plan: LeftDeep(0, 1), WindowSize: 10,
		Output: func(Delta) { results++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	q.Feed(Event{Stream: 0, Key: 4})
	var buf bytes.Buffer
	if err := q.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := RestoreQuery(&buf, QueryConfig{
		WindowSize: 10,
		Output:     func(Delta) { results++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Feed(Event{Stream: 1, Key: 4}) // joins the checkpointed tuple
	if results != 1 {
		t.Fatalf("results = %d, want 1", results)
	}
}

// rootRuleEvents is the input behind the checkpoints of
// TestRestoreQueryRootRule: every key on all three streams, eight keys,
// twice over, so the second pass joins (and, with a window of 8, expires)
// tuples of the first.
func rootRuleEvents() []Event {
	var evs []Event
	for pass := 0; pass < 2; pass++ {
		for k := 0; k < 8; k++ {
			for s := 0; s < 3; s++ {
				evs = append(evs, Event{Stream: StreamID(s), Key: Value(k)})
			}
		}
	}
	return evs
}

// A checkpoint carries the root join's output state only when the
// query retracts (EmitExpiry); restore follows the rule in both
// directions.
func TestRestoreQueryRootRule(t *testing.T) {
	const cut = 12 // tuples before the checkpoint, a MIGRATE before the tenth
	evs := rootRuleEvents()
	line := func(d Delta) string {
		if d.Retraction {
			return "-" + d.Tuple.Fingerprint()
		}
		return "+" + d.Tuple.Fingerprint()
	}
	// feed runs evs[from:to] through q, with the MIGRATE at its place.
	feed := func(t *testing.T, q *Query, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if i == 9 {
				if err := q.Migrate(LeftDeep(2, 0, 1)); err != nil {
					t.Fatal(err)
				}
			}
			q.Feed(evs[i])
		}
	}
	// reference returns the deltas an uninterrupted query emits after
	// the cut, and a checkpoint taken at the cut.
	reference := func(t *testing.T, window int, emitExpiry bool) (after []string, ckpt []byte) {
		t.Helper()
		var out []string
		q, err := NewQuery(QueryConfig{
			Plan: LeftDeep(0, 1, 2), WindowSize: window, EmitExpiry: emitExpiry,
			Output: func(d Delta) { out = append(out, line(d)) },
		})
		if err != nil {
			t.Fatal(err)
		}
		feed(t, q, 0, cut)
		var buf bytes.Buffer
		if err := q.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		before := len(out)
		feed(t, q, cut, len(evs))
		return out[before:], buf.Bytes()
	}
	resume := func(t *testing.T, ckpt []byte, window int, emitExpiry bool) (*Query, []string) {
		t.Helper()
		var out []string
		q, err := RestoreQuery(bytes.NewReader(ckpt), QueryConfig{
			WindowSize: window, EmitExpiry: emitExpiry,
			Output: func(d Delta) { out = append(out, line(d)) },
		})
		if err != nil {
			t.Fatal(err)
		}
		feed(t, q, cut, len(evs))
		return q, out
	}
	same := func(t *testing.T, got, want []string) {
		t.Helper()
		if len(want) == 0 || strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("deltas after restore:\n got %v\nwant %v", got, want)
		}
	}

	t.Run("v2 into plain drops root", func(t *testing.T) {
		// Written by the commit before the root rule (snapVersion 2, four
		// root entries), from evs[:cut] with a window of 1000.
		old, err := os.ReadFile("internal/engine/testdata/snap_v2_rootstored.gob")
		if err != nil {
			t.Fatal(err)
		}
		want, _ := reference(t, 1000, false)
		q, got := resume(t, old, 1000, false)
		same(t, got, want)
		if n := q.eng.Root().St.Size(); n != 0 {
			t.Fatalf("root state holds %d tuples after restore, want 0 (nothing would ever evict them)", n)
		}
	})
	t.Run("v2 into EmitExpiry keeps root", func(t *testing.T) {
		old, err := os.ReadFile("internal/engine/testdata/snap_v2_rootstored.gob")
		if err != nil {
			t.Fatal(err)
		}
		q, err := RestoreQuery(bytes.NewReader(old), QueryConfig{WindowSize: 1000, EmitExpiry: true})
		if err != nil {
			t.Fatal(err)
		}
		if n := q.eng.Root().St.Size(); n != 4 {
			t.Fatalf("root state holds %d tuples after restore, want the checkpoint's 4", n)
		}
	})
	t.Run("EmitExpiry into plain drops root", func(t *testing.T) {
		_, ckpt := reference(t, 8, true)
		want, _ := reference(t, 8, false)
		q, got := resume(t, ckpt, 8, false)
		same(t, got, want)
		if n := q.eng.Root().St.Size(); n != 0 {
			t.Fatalf("root state holds %d tuples after restore, want 0", n)
		}
	})
	t.Run("EmitExpiry into EmitExpiry resumes retractions", func(t *testing.T) {
		want, ckpt := reference(t, 8, true)
		_, got := resume(t, ckpt, 8, true)
		same(t, got, want)
		if !strings.Contains(strings.Join(got, "\n"), "-") {
			t.Fatalf("no retraction after restore: %v", got)
		}
	})
	t.Run("plain into EmitExpiry is refused", func(t *testing.T) {
		_, ckpt := reference(t, 8, false)
		_, err := RestoreQuery(bytes.NewReader(ckpt), QueryConfig{WindowSize: 8, EmitExpiry: true})
		if err == nil || !strings.Contains(err.Error(), "EmitExpiry") {
			t.Fatalf("err = %v, want a refusal naming EmitExpiry", err)
		}
	})
}

func TestSetDiffQueryFacade(t *testing.T) {
	var adds, retracts int
	q, err := NewSetDiffQuery(QueryConfig{
		Plan: LeftDeep(0, 1), WindowSize: 50,
		Output: func(d Delta) {
			if d.Retraction {
				retracts++
			} else {
				adds++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	q.Feed(Event{Stream: 0, Key: 1}) // passes
	q.Feed(Event{Stream: 1, Key: 1}) // vetoed
	if adds != 1 || retracts != 1 {
		t.Fatalf("adds=%d retracts=%d", adds, retracts)
	}
	if err := q.Migrate(LeftDeep(1, 0)); err == nil {
		t.Fatal("reordering the outer of a set-difference accepted")
	}
}

func TestRestoreQueryErrors(t *testing.T) {
	if _, err := RestoreQuery(bytes.NewReader([]byte("garbage")), QueryConfig{}); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
}

func TestQueryEmitExpiry(t *testing.T) {
	var retracts int
	q, err := NewQuery(QueryConfig{
		Plan: LeftDeep(0, 1), WindowSize: 2, EmitExpiry: true,
		Output: func(d Delta) {
			if d.Retraction {
				retracts++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	q.Feed(Event{Stream: 0, Key: 1})
	q.Feed(Event{Stream: 1, Key: 1})
	q.Feed(Event{Stream: 0, Key: 8})
	q.Feed(Event{Stream: 0, Key: 9}) // expires the matched stream-0 tuple
	if retracts != 1 {
		t.Fatalf("retractions = %d", retracts)
	}
}
