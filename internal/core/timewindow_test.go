package core

import (
	"math/rand"
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

// A time window's clock is global: every arrival expires every
// stream's window, so a stream that falls quiet does not keep its
// tuples joinable past the span.
func TestTimeWindowExpiresQuietStreams(t *testing.T) {
	results := 0
	e := engine.MustNew(engine.Config{
		Plan: plan.MustLeftDeep(0, 1), TimeSpan: 3, Strategy: New(),
		Output: func(engine.Delta) { results++ },
	})
	e.Feed(ev(0, 7)) // tick 1; stream 0 then stays quiet
	for i := 0; i < 100; i++ {
		e.Feed(ev(1, 9)) // ticks 2..101
	}
	e.Feed(ev(1, 7)) // tick 102: the tick-1 tuple left the window at tick 4
	if results != 0 {
		t.Fatalf("%d results, want 0: a quiet stream's tuple outlived its span", results)
	}
}

// Under skewed stream rates a time-window join emits exactly what a
// naive oracle does: at tick now, a result whose constituents all
// arrived in (now − span, now]. Run under JISC with migrations and
// under Moving State.
func TestTimeWindowMatchesOracleUnderSkew(t *testing.T) {
	const span, n = 12, 3000
	rng := rand.New(rand.NewSource(7))
	evs := make([]workload.Event, n)
	for i := range evs {
		s := tuple.StreamID(2) // stream 2 is the hose, 0 nearly quiet
		switch r := rng.Intn(100); {
		case r < 5:
			s = 0
		case r < 30:
			s = 1
		}
		evs[i] = ev(s, tuple.Value(rng.Intn(3)))
	}

	// The oracle keeps every arrival and joins the new one with each
	// combination of the other streams' same-key arrivals inside the span.
	want := map[string]int{}
	var seqs [3]uint64
	var past [3][]*tuple.Tuple
	for i, x := range evs {
		tick := uint64(i + 1)
		seqs[x.Stream]++
		combos := []*tuple.Tuple{tuple.NewBase(x.Stream, seqs[x.Stream], x.Key, tick)}
		for s := range past {
			if tuple.StreamID(s) == x.Stream {
				continue
			}
			var next []*tuple.Tuple
			for _, c := range combos {
				for _, p := range past[s] {
					if p.Key == x.Key && p.Arrival+span > tick {
						next = append(next, tuple.Join(c, p))
					}
				}
			}
			combos = next
		}
		for _, c := range combos {
			want[c.Fingerprint()]++
		}
		past[x.Stream] = append(past[x.Stream], tuple.NewBase(x.Stream, seqs[x.Stream], x.Key, tick))
	}
	if len(want) == 0 {
		t.Fatal("the oracle emits nothing; the test needs matches")
	}

	for _, strat := range []engine.Strategy{New(), migrate.MovingState{}} {
		got := map[string]int{}
		e := engine.MustNew(engine.Config{
			Plan: plan.MustLeftDeep(0, 1, 2), TimeSpan: span, Strategy: strat,
			Output: func(d engine.Delta) { got[d.Tuple.Fingerprint()]++ },
		})
		plans := []*plan.Plan{plan.MustLeftDeep(2, 1, 0), plan.MustLeftDeep(1, 2, 0), plan.MustLeftDeep(0, 1, 2)}
		for i, x := range evs {
			if i > 0 && i%500 == 0 {
				if err := e.Migrate(plans[(i/500)%len(plans)]); err != nil {
					t.Fatal(err)
				}
			}
			e.Feed(x)
		}
		if len(got) != len(want) {
			t.Errorf("%T: %d distinct results, oracle %d", strat, len(got), len(want))
		}
		for fp, c := range want {
			if got[fp] != c {
				t.Fatalf("%T: result %s emitted %d times, oracle %d", strat, fp, got[fp], c)
			}
		}
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
