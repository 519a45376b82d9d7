package core

import (
	"math/rand"
	"testing"

	"jisc/internal/eddy"
	"jisc/internal/engine"
	"jisc/internal/enginetest"
	"jisc/internal/migrate"
	"jisc/internal/plan"
	"jisc/internal/testseed"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// The equivalence suite is the empirical counterpart of the paper's
// Theorems 1–3 (complete, closed, duplicate-free): on randomized
// workloads with forced — and overlapped — plan transitions, every
// migration strategy, and CACQ, must produce exactly the output multiset
// of enginetest.Reference, which recomputes results from raw windows
// and shares no window, state or engine code with its subjects.

// runner adapts each executor to the test harness.
type runner struct {
	name    string
	feed    func(workload.Event)
	migrate func(*plan.Plan) error
	// sink receives an engine-backed executor's deltas — each result
	// lent, read, cloned and poisoned — and counts them into outs; CACQ
	// has none and hands its own tuples to add.
	sink *enginetest.Sink
	outs map[string]int
}

func newEngineRunner(name string) *runner {
	s := enginetest.NewSink()
	return &runner{name: name, sink: s, outs: s.Outs}
}

func (r *runner) add(t *tuple.Tuple) { r.outs[t.Fingerprint()]++ }

func newRunners(t *testing.T, p *plan.Plan, win int) []*runner {
	t.Helper()
	var rs []*runner

	mk := func(name string, strat engine.Strategy) {
		r := newEngineRunner(name)
		e := engine.MustNew(engine.Config{
			Plan: p, WindowSize: win, Strategy: strat,
			Output: r.sink.Output,
		})
		r.feed, r.migrate = e.Feed, e.Migrate
		rs = append(rs, r)
	}
	mk("jisc", New())
	mk("jisc-proc2", &JISC{DisableLeftDeepFastPath: true})
	mk("moving-state", migrate.MovingState{})

	{
		r := newEngineRunner("parallel-track")
		pt := migrate.MustNewParallelTrack(migrate.PTConfig{
			Plan: p, WindowSize: win, CheckEvery: 7,
			Output: r.sink.Output,
		})
		r.feed, r.migrate = pt.Feed, pt.Migrate
		rs = append(rs, r)
	}
	{
		r := &runner{name: "cacq", outs: map[string]int{}}
		c := eddy.MustNewCACQ(eddy.CACQConfig{Plan: p, WindowSize: win, Output: r.add})
		r.feed, r.migrate = c.Feed, c.Migrate
		rs = append(rs, r)
	}
	return rs
}

// scenario drives all runners and the reference through the same events
// and transitions and holds every runner to the reference's output
// multiset.
func scenario(t *testing.T, seed int64, streams, win, events, transitions int, overlapped bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(testseed.Seed(t, seed)))
	order := make([]tuple.StreamID, streams)
	for i := range order {
		order[i] = tuple.StreamID(i)
	}
	p := plan.MustLeftDeep(order...)
	rs := newRunners(t, p, win)
	ref := enginetest.NewReference(engine.Config{Plan: p, WindowSize: win})

	src := workload.MustNewSource(workload.Config{
		Streams: streams,
		Domain:  int64(3 + rng.Intn(8)),
		Seed:    rng.Int63(),
	})

	// Pick transition points. Overlapped scenarios cluster them so a
	// new transition lands while states are still incomplete.
	points := map[int]bool{}
	for len(points) < transitions {
		if overlapped && len(points) > 0 {
			base := 0
			for pt := range points {
				if pt > base {
					base = pt
				}
			}
			points[base+1+rng.Intn(4)] = true
		} else {
			points[1+rng.Intn(events-1)] = true
		}
	}

	cur := p
	for i := 0; i < events; i++ {
		if points[i] {
			next, err := cur.Swap(rng.Intn(streams), rng.Intn(streams))
			if err != nil {
				t.Fatal(err)
			}
			cur = next
			ref.Migrate(cur)
			for _, r := range rs {
				if err := r.migrate(cur); err != nil {
					t.Fatalf("%s: migrate: %v", r.name, err)
				}
			}
		}
		e := src.Next()
		ref.Feed(e)
		for _, r := range rs {
			r.feed(e)
		}
	}

	for _, r := range rs {
		if r.sink != nil {
			if err := r.sink.Check(); err != nil {
				t.Errorf("%s (seed %d): %v", r.name, seed, err)
			}
		}
		if err := ref.Check(r.outs); err != nil {
			t.Errorf("%s (seed %d): %v", r.name, seed, err)
		}
	}
}

func TestEquivalenceSingleTransition(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		scenario(t, seed, 3+int(seed%3), 8, 300, 1, false)
	}
}

func TestEquivalenceMultipleTransitions(t *testing.T) {
	for seed := int64(100); seed < 106; seed++ {
		scenario(t, seed, 4, 10, 400, 4, false)
	}
}

func TestEquivalenceOverlappedTransitions(t *testing.T) {
	for seed := int64(200); seed < 206; seed++ {
		scenario(t, seed, 5, 12, 350, 5, true)
	}
}

func TestEquivalenceTinyWindows(t *testing.T) {
	// Windows of 3 force constant eviction through incomplete states.
	for seed := int64(300); seed < 306; seed++ {
		scenario(t, seed, 4, 3, 300, 3, false)
	}
}

func TestEquivalenceManyStreams(t *testing.T) {
	scenario(t, 400, 7, 6, 500, 3, false)
	scenario(t, 401, 7, 6, 500, 4, true)
}

// Bushy-plan equivalence: only the engine strategies support bushy
// plans, so hold JISC and Moving State, with a bushy target, to the
// reference.
func TestEquivalenceBushy(t *testing.T) {
	base := testseed.Seed(t, 500)
	for seed := base; seed < base+5; seed++ {
		p := plan.MustLeftDeep(0, 1, 2, 3)
		bushy := plan.MustNew(plan.Join(
			plan.Join(plan.Leaf(0), plan.Leaf(2)),
			plan.Join(plan.Leaf(1), plan.Leaf(3)),
		))
		bushy2 := plan.MustNew(plan.Join(
			plan.Join(plan.Leaf(3), plan.Leaf(0)),
			plan.Join(plan.Leaf(2), plan.Leaf(1)),
		))
		plans := []*plan.Plan{bushy, bushy2, plan.MustLeftDeep(2, 3, 0, 1)}

		for _, strat := range []engine.Strategy{New(), migrate.MovingState{}} {
			sink := enginetest.NewSink()
			cfg := engine.Config{
				Plan: p, WindowSize: 6, Strategy: strat,
				Output: sink.Output,
			}
			e, ref := engine.MustNew(cfg), enginetest.NewReference(cfg)
			src := workload.MustNewSource(workload.Config{Streams: 4, Domain: 5, Seed: seed})
			for i := 0; i < 300; i++ {
				if i > 0 && i%80 == 0 {
					next := plans[(i/80-1)%len(plans)]
					if err := e.Migrate(next); err != nil {
						t.Fatal(err)
					}
					ref.Migrate(next)
				}
				x := src.Next()
				ref.Feed(x)
				e.Feed(x)
			}
			if err := sink.Check(); err != nil {
				t.Errorf("bushy %s (seed %d): %v", strat.Name(), seed, err)
			}
			if err := ref.Check(sink.Outs); err != nil {
				t.Errorf("bushy %s (seed %d): %v", strat.Name(), seed, err)
			}
		}
	}
}

// FuzzEquivalence drives random workload/transition scenarios through
// every strategy and holds each to the reference — continuous fuzzing
// over the same invariant the fixed-seed suite checks.
func FuzzEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(6), uint8(2))
	f.Add(int64(99), uint8(5), uint8(3), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, streamsRaw, winRaw, transRaw uint8) {
		streams := 3 + int(streamsRaw%4)
		win := 3 + int(winRaw%12)
		transitions := 1 + int(transRaw%4)
		scenario(t, seed, streams, win, 150, transitions, seed%2 == 0)
	})
}
