// Package sim is the deterministic simulation harness: a seeded
// scenario generator, a differential executor held to the naive
// enginetest.Reference, and a shrinker that reduces any divergence to a
// minimal reproducible scenario.
//
// One uint64 seed fully determines a Scenario — query shape, window
// sizes, key distribution, event interleaving, migration schedule, and
// which of the six optional layers (the layers table) are on with what
// parameters. Run executes a scenario once, in one driver loop over
// its events. The subjects are the three strategy executors that exist
// only engine-direct (JISC lazy completion, Moving State, Parallel
// Track), held to the naive enginetest.Reference, which recomputes the
// multi-way join from raw window contents on every arrival, and one
// runtime.Runtime
// whose Config is composed from every layer the scenario drew at once
// — shards, batched ingest, a WAL over a crashing filesystem, a spill
// budget, an admission controller on a logical clock, a single-stepped
// autopilot — held to a Reference partitioned like its shards, fed
// exactly the tuples the admission model says were admitted. After every tuple
// batch the loop asserts identical output multisets and identical
// STATS-visible counters. A crash is an event inside that loop: the
// runtime is closed, reopened on what reached the disk, and the
// reference is reconciled from the recovered counters.
//
// On mismatch the harness shrinks (Shrink) and prints a one-line
// repro: go test ./internal/sim -run 'TestSim$' -sim.seed=N.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"jisc/internal/plan"
	"jisc/internal/runtime"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// Migration is one scheduled plan switch: Plan is installed before
// event index At is fed. Two Migrations with equal At are applied
// back-to-back with no tuple between them — a switch landing mid-
// completion-episode, the overlapped-transition case of §4.5.
type Migration struct {
	At   int
	Plan string
}

// Scenario is one fully-determined simulation input. Generate derives
// every field from the seed; the shrinker then edits Events and
// Migrations directly, so Run must treat the struct — not the seed —
// as the source of truth.
type Scenario struct {
	Seed uint64
	// Forced names the layer GenerateForced turned on regardless of the
	// seed's own draw ("" for none); Repro prints the sweep that forces
	// it again.
	Forced  string
	Streams int
	// InitPlan is the initial plan's infix form; Migrations hold the
	// switch targets (ascending At).
	InitPlan   string
	Migrations []Migration
	// Windows is the per-stream count-window size.
	Windows []int
	Dist    workload.KeyDist
	Domain  int64
	// Weights skews per-stream arrival rates; nil means round-robin.
	Weights []float64
	Events  []workload.Event
	// BatchSize is the tuple-batch length between differential
	// comparisons, and the FeedBatch chunk length under UseFeedBatch.
	BatchSize int
	// CheckEvery is the Parallel Track discard-scan period.
	CheckEvery int
	// FaultSkip is test-only fault injection: every FaultSkip-th JISC
	// completion episode is skipped (core.JISC.FaultSkipEveryNth). The
	// self-test sets it to prove the reference catches the lost results.
	FaultSkip int

	// The six layers. Each configures the one runtime under test; all
	// that are on are on at once.

	// Shards is the runtime's worker count; each shard is held to its
	// own part of the reference.
	Shards int
	// UseFeedBatch feeds the runtime through FeedBatch (the scatter path,
	// FEEDB WAL frames) instead of per-event Feed, and the bare JISC
	// engine through engine.FeedBatch with scheduled migrations landing
	// mid-batch from the AfterFeed hook.
	UseFeedBatch bool
	// CrashBudget, when > 0, runs the runtime durably over a CrashFS
	// that cuts writes after this many bytes; the runtime is then
	// rebooted from what survived. CheckpointAt, when > 0, takes a manual
	// checkpoint before feeding that event index.
	CrashBudget  int64
	CheckpointAt int
	// UseAutopilot single-steps an adaptive.Controller on the runtime
	// after every drained batch, on top of the scheduled Migrations.
	// Autopilot scenarios draw a left-deep InitPlan, since the advisor
	// only advises left-deep current plans.
	UseAutopilot bool
	// UseSpill bounds each shard's resident state to SpillBudget bytes:
	// cold buckets spill to an in-memory filesystem and fault back on
	// probe. Budgets of a few hundred bytes force nearly all state
	// through the spill/fault cycle.
	UseSpill    bool
	SpillBudget int64
	// UseOverload puts an admission.Controller on a logical clock in
	// front of the runtime: a token bucket of OverloadRate tuples/sec
	// (capacity OverloadBurst) sheds, an OverloadBudget-byte in-flight
	// budget rejects. The shard workers are held at their result
	// hand-off, so admitted bytes stay in flight, and let go every
	// OverloadDrainEvery batches.
	UseOverload        bool
	OverloadRate       float64
	OverloadBurst      float64
	OverloadBudget     int64
	OverloadDrainEvery int
}

// layer is one optional dimension of a scenario. The table is the one
// list of them: Generate rolls each from its own sub-seed, the forced
// sweeps turn one on for every seed, the shrinker turns each off, and
// the diversity test counts their co-occurrences.
type layer struct {
	// name labels the sub-seed, the forced sweep and the Describe dump.
	name string
	// odds: Generate turns the layer on for one seed in odds. Zero for
	// the shard count, which is drawn with the shape (1–4, so on for ¾).
	odds int
	// draw turns the layer on, taking its parameters from rng.
	draw func(sc *Scenario, rng *rand.Rand)
	on   func(sc *Scenario) bool
	off  func(sc *Scenario)
	// acts are the tallies of Acted that show the layer did something.
	acts []int
}

var layers = []layer{
	{name: "sharded",
		draw: func(sc *Scenario, rng *rand.Rand) {
			if sc.Shards == 1 {
				sc.Shards = 2 + rng.Intn(3)
			}
		},
		on:   func(sc *Scenario) bool { return sc.Shards > 1 },
		off:  func(sc *Scenario) { sc.Shards = 1 },
		acts: []int{actOffShard}},
	{name: "crash", odds: 3,
		draw: func(sc *Scenario, rng *rand.Rand) {
			n := len(sc.Events)
			sc.CrashBudget = 256 + rng.Int63n(int64(n)*30)
			if rng.Intn(2) == 0 {
				sc.CheckpointAt = 1 + rng.Intn(n)
			}
		},
		on:   func(sc *Scenario) bool { return sc.CrashBudget > 0 },
		off:  func(sc *Scenario) { sc.CrashBudget, sc.CheckpointAt = 0, 0 },
		acts: []int{actCrash, actCheckpointRecovery}},
	{name: "batched", odds: 2,
		draw: func(sc *Scenario, _ *rand.Rand) { sc.UseFeedBatch = true },
		on:   func(sc *Scenario) bool { return sc.UseFeedBatch },
		off:  func(sc *Scenario) { sc.UseFeedBatch = false },
		acts: []int{actScatter}},
	{name: "autopilot", odds: 4,
		draw: func(sc *Scenario, rng *rand.Rand) {
			sc.UseAutopilot = true
			sc.InitPlan = plan.MustLeftDeep(shuffledStreams(rng, sc.Streams)...).String()
		},
		on:   func(sc *Scenario) bool { return sc.UseAutopilot },
		off:  func(sc *Scenario) { sc.UseAutopilot = false },
		acts: []int{actInstall}},
	{name: "spill", odds: 3,
		draw: func(sc *Scenario, rng *rand.Rand) {
			sc.UseSpill = true
			sc.SpillBudget = 128 + rng.Int63n(4096)
		},
		on:   func(sc *Scenario) bool { return sc.UseSpill },
		off:  func(sc *Scenario) { sc.UseSpill = false },
		acts: []int{actSpill, actFault}},
	// The rate brackets the offered rate (BatchSize tuples per logical
	// millisecond) from ~0.3× to ~1.7×, so admit and shed interleave;
	// the burst spans one to four batches; the budget spans one to seven
	// batches' cost against a queue held for one to eight, so draws
	// below the hold back up into rejects.
	{name: "overload", odds: 4,
		draw: func(sc *Scenario, rng *rand.Rand) {
			sc.UseOverload = true
			sc.OverloadRate = (0.3 + 1.4*rng.Float64()) * float64(sc.BatchSize) * 1000
			sc.OverloadBurst = float64(sc.BatchSize) * (1 + 3*rng.Float64())
			sc.OverloadBudget = int64(sc.BatchSize) * runtime.EventBytes * int64(1+rng.Intn(7))
			sc.OverloadDrainEvery = 1 + rng.Intn(8)
		},
		on:   func(sc *Scenario) bool { return sc.UseOverload },
		off:  func(sc *Scenario) { sc.UseOverload = false },
		acts: []int{actShed, actReject}},
}

// Generate derives a complete Scenario from one seed. Independent
// sub-generators (shape, events, migrations, one per layer) use labeled
// derived seeds, so the draws are uncorrelated but each is a pure
// function of the scenario seed.
func Generate(seed uint64) Scenario { return GenerateForced(seed, "") }

// GenerateForced is Generate with the named layer on whatever the seed
// rolled for it. A layer forced on draws its parameters from the same
// sub-seed, so the forced sweeps see the generator's own distribution.
func GenerateForced(seed uint64, force string) Scenario {
	rng := rand.New(rand.NewSource(workload.DeriveSeed(seed, "shape")))
	sc := Scenario{Seed: seed, Forced: force}
	sc.Streams = 3 + rng.Intn(4)
	sc.Domain = int64(2 + rng.Intn(9))
	if rng.Intn(4) == 0 {
		sc.Dist = workload.Zipf
	}
	sc.Windows = make([]int, sc.Streams)
	for i := range sc.Windows {
		sc.Windows[i] = 2 + rng.Intn(14)
	}
	limitFanout(&sc)
	if rng.Intn(2) == 0 {
		sc.Weights = make([]float64, sc.Streams)
		for i := range sc.Weights {
			sc.Weights[i] = 0.25 + 1.75*rng.Float64()
		}
	}
	sc.InitPlan = randPlan(rng, sc.Streams)

	n := 60 + rng.Intn(240)
	src := workload.MustNewSource(workload.Config{
		Streams: sc.Streams,
		Domain:  sc.Domain,
		Dist:    sc.Dist,
		Seed:    workload.DeriveSeed(seed, "events"),
		Weights: sc.Weights,
	})
	sc.Events = src.Take(n)

	mrng := rand.New(rand.NewSource(workload.DeriveSeed(seed, "migrations")))
	k := mrng.Intn(5)
	ats := make([]int, 0, k)
	for i := 0; i < k; i++ {
		if len(ats) > 0 && mrng.Intn(3) == 0 {
			// Back-to-back switch: same index as the previous one, so
			// the second Migrate lands while the first transition's
			// states are still incomplete.
			ats = append(ats, ats[len(ats)-1])
		} else {
			ats = append(ats, 1+mrng.Intn(n))
		}
	}
	sort.Ints(ats)
	cur := sc.InitPlan
	for _, at := range ats {
		p := randPlan(mrng, sc.Streams)
		for tries := 0; p == cur && tries < 8; tries++ {
			p = randPlan(mrng, sc.Streams)
		}
		sc.Migrations = append(sc.Migrations, Migration{At: at, Plan: p})
		cur = p
	}
	sc.BatchSize = 5 + mrng.Intn(40)
	sc.CheckEvery = 3 + mrng.Intn(9)
	sc.Shards = 1 + mrng.Intn(4)

	for _, l := range layers {
		lrng := rand.New(rand.NewSource(workload.DeriveSeed(seed, l.name)))
		if rolled := l.odds > 0 && lrng.Intn(l.odds) == 0; rolled || l.name == force {
			l.draw(&sc, lrng)
		}
	}
	return sc
}

// limitFanout bounds the expected per-arrival output fan-out so a
// single scenario cannot draw a combination of tiny domain, wide
// windows, and many streams that multiplies into millions of results.
// The bound is on the product over streams of the per-stream match
// estimate window/domain; Zipf scenarios use an effective domain of 2
// because s=1.1 concentrates most mass on the smallest keys.
func limitFanout(sc *Scenario) {
	dom := float64(sc.Domain)
	if sc.Dist == workload.Zipf {
		dom = 2
	}
	for {
		fan := 1.0
		for _, w := range sc.Windows {
			if m := float64(w) / dom; m > 1 {
				fan *= m
			}
		}
		if fan <= 64 {
			return
		}
		// Halve the widest window (floor 2) and re-estimate.
		widest := 0
		for i, w := range sc.Windows {
			if w > sc.Windows[widest] {
				widest = i
			}
		}
		if sc.Windows[widest] <= 2 {
			return
		}
		sc.Windows[widest] /= 2
	}
}

// shuffledStreams draws a random order of streams 0..streams-1.
func shuffledStreams(rng *rand.Rand, streams int) []tuple.StreamID {
	ids := make([]tuple.StreamID, streams)
	for i := range ids {
		ids[i] = tuple.StreamID(i)
	}
	rng.Shuffle(streams, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}

// randPlan draws a random plan over streams 0..streams-1: a shuffled
// left-deep order two thirds of the time, a random bushy tree
// otherwise.
func randPlan(rng *rand.Rand, streams int) string {
	ids := shuffledStreams(rng, streams)
	if rng.Intn(3) > 0 {
		return plan.MustLeftDeep(ids...).String()
	}
	var build func(part []tuple.StreamID) *plan.Node
	build = func(part []tuple.StreamID) *plan.Node {
		if len(part) == 1 {
			return plan.Leaf(part[0])
		}
		cut := 1 + rng.Intn(len(part)-1)
		return plan.Join(build(part[:cut]), build(part[cut:]))
	}
	return plan.MustNew(build(ids)).String()
}

// Describe renders a scenario as a human-readable dump — the shape
// line, the migration schedule, and every event. Printed for shrunk
// (minimal) scenarios only; an unshrunk scenario is reproduced from
// its seed instead.
func Describe(sc Scenario) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  seed=%d streams=%d domain=%d dist=%d windows=%v batch=%d checkEvery=%d faultSkip=%d\n",
		sc.Seed, sc.Streams, sc.Domain, sc.Dist, sc.Windows, sc.BatchSize, sc.CheckEvery, sc.FaultSkip)
	fmt.Fprintf(&b, "  layers: forced=%q shards=%d feedBatch=%v crashBudget=%d ckptAt=%d autopilot=%v spill=%v spillBudget=%d overload=%v rate=%.1f oburst=%.1f obudget=%d drainEvery=%d\n",
		sc.Forced, sc.Shards, sc.UseFeedBatch, sc.CrashBudget, sc.CheckpointAt, sc.UseAutopilot, sc.UseSpill, sc.SpillBudget, sc.UseOverload, sc.OverloadRate, sc.OverloadBurst, sc.OverloadBudget, sc.OverloadDrainEvery)
	fmt.Fprintf(&b, "  plan %s\n", sc.InitPlan)
	for _, m := range sc.Migrations {
		fmt.Fprintf(&b, "  migrate@%d -> %s\n", m.At, m.Plan)
	}
	for i, ev := range sc.Events {
		fmt.Fprintf(&b, "  ev[%d] stream=%d key=%d\n", i, ev.Stream, ev.Key)
	}
	return b.String()
}
