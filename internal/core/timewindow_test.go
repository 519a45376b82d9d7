package core

import (
	"testing"

	"jisc/internal/engine"
	"jisc/internal/migrate"
	"jisc/internal/plan"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// Time-based sliding windows with plan transitions: the paper's
// sliding-window handling (§2.1, §4.2) is window-shape agnostic; the
// engine's time windows must behave identically under JISC and Moving
// State.

func TestTimeWindowJoinSemantics(t *testing.T) {
	var out []engine.Delta
	e := engine.MustNew(engine.Config{
		Plan: plan.MustLeftDeep(0, 1), TimeSpan: 3,
		Output: func(d engine.Delta) { d.Tuple = d.Tuple.Clone(); out = append(out, d) },
	})
	// Ticks advance one per Feed.
	e.Feed(ev(0, 7)) // tick 1
	e.Feed(ev(1, 9)) // tick 2
	e.Feed(ev(1, 9)) // tick 3
	e.Feed(ev(1, 9)) // tick 4
	// tick 5: the stream-0 tuple from tick 1 is outside span 3 when
	// stream 0 next slides; a key-7 match must not appear.
	e.Feed(ev(0, 9)) // tick 5: slides stream 0, expiring tick-1 tuple
	e.Feed(ev(1, 7)) // tick 6: would join the expired tuple
	for _, d := range out {
		if d.Tuple.Key == 7 {
			t.Fatalf("expired tuple joined: %v", d.Tuple)
		}
	}
	// Live join still works within span.
	e.Feed(ev(1, 9)) // tick 7: joins the tick-5 stream-0 tuple (within 3)
	found := false
	for _, d := range out {
		if d.Tuple.Key == 9 {
			found = true
		}
	}
	if !found {
		t.Fatal("live time-window join missed")
	}
}

func TestTimeWindowEquivalenceAcrossStrategies(t *testing.T) {
	run := func(strat engine.Strategy) map[string]int {
		outs := map[string]int{}
		e := engine.MustNew(engine.Config{
			Plan: plan.MustLeftDeep(0, 1, 2), TimeSpan: 20, Strategy: strat,
			Output: func(d engine.Delta) { outs[d.Tuple.Fingerprint()]++ },
		})
		src := workload.MustNewSource(workload.Config{Streams: 3, Domain: 4, Seed: 31})
		for i := 0; i < 500; i++ {
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
		return outs
	}
	jisc := run(New())
	ms := run(migrate.MovingState{})
	if len(jisc) != len(ms) {
		t.Fatalf("distinct outputs differ: %d vs %d", len(jisc), len(ms))
	}
	for fp, n := range ms {
		if jisc[fp] != n {
			t.Fatalf("%s: jisc %d vs ms %d", fp, jisc[fp], n)
		}
	}
	if len(jisc) == 0 {
		t.Fatal("no outputs at all")
	}
}

func TestTimeWindowStateBounded(t *testing.T) {
	e := engine.MustNew(engine.Config{
		Plan: plan.MustLeftDeep(0, 1), TimeSpan: 10, Strategy: New(),
	})
	for i := 0; i < 5000; i++ {
		e.Feed(ev(tuple.StreamID(i%2), 1))
	}
	if total := e.TotalStateSize(); total > 200 {
		t.Fatalf("state grew unbounded under time windows: %d", total)
	}
}
