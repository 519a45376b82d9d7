package sim

import (
	"flag"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

var (
	simN    = flag.Int("sim.n", 200, "scenarios per TestSim run (seeds sim.base..sim.base+sim.n-1)")
	simBase = flag.Uint64("sim.base", 1, "first scenario seed")
	simSeed = flag.Uint64("sim.seed", 0, "when non-zero, run exactly this scenario seed (repro mode)")
)

// runSeed generates the seed's scenario with one layer forced on (""
// for none), runs it, and on a divergence shrinks it and fails with a
// repro line that names the sweep to paste.
func runSeed(t *testing.T, seed uint64, forced string) Acted {
	t.Helper()
	sc := GenerateForced(seed, forced)
	acted, m := run(sc)
	if m != nil {
		min, mm := Shrink(sc, m, Run, 400)
		t.Fatalf("scenario %d: %s\nrepro: %s\nminimal failing scenario (%d events, %d migrations):\n%s",
			seed, mm, mm.Repro(), len(min.Events), len(min.Migrations), Describe(min))
	}
	return acted
}

// TestSim is the differential sweep: -sim.n seeded scenarios, each
// run once with every layer it drew. A single scenario can be replayed
// with -sim.seed=N — the repro line every failure prints.
func TestSim(t *testing.T) {
	if *simSeed != 0 {
		runSeed(t, *simSeed, "")
		return
	}
	for seed := *simBase; seed < *simBase+uint64(*simN); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runSeed(t, seed, "")
		})
	}
}

// TestGenerateDeterministic pins the harness's core contract: one
// seed, one scenario, bit for bit.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		a, b := Generate(seed), Generate(seed)
		if Describe(a) != Describe(b) {
			t.Fatalf("seed %d: Generate is not deterministic:\n%s\nvs\n%s", seed, Describe(a), Describe(b))
		}
	}
}

// TestScenarioDiversity checks the generator actually exercises the
// dimensions the harness exists for: migrations, back-to-back
// switches, zipf skew, every layer — and every combination of layers:
// each pair of the six must co-occur, and so must crash × spill ×
// overload, the three that change what a tuple's fate can be.
func TestScenarioDiversity(t *testing.T) {
	const n = 300
	counts := map[string]int{}
	for seed := uint64(1); seed <= n; seed++ {
		sc := Generate(seed)
		if len(sc.Migrations) > 0 {
			counts["migrations"]++
		}
		for i := 1; i < len(sc.Migrations); i++ {
			if sc.Migrations[i].At == sc.Migrations[i-1].At {
				counts["back-to-back"]++
				break
			}
		}
		if sc.Dist != 0 {
			counts["zipf"]++
		}
		for i, a := range layers {
			if !a.on(&sc) {
				continue
			}
			counts[a.name]++
			for _, b := range layers[i+1:] {
				if b.on(&sc) {
					counts[a.name+" × "+b.name]++
				}
			}
		}
		if sc.CrashBudget > 0 && sc.UseSpill && sc.UseOverload {
			counts["crash × spill × overload"]++
		}
	}
	floor := func(name string, min int) {
		t.Logf("%-26s %d", name, counts[name])
		if counts[name] < min {
			t.Errorf("generator drew %q in only %d/%d scenarios, want at least %d", name, counts[name], n, min)
		}
	}
	for _, name := range []string{"migrations", "back-to-back", "zipf"} {
		floor(name, n/20)
	}
	for i, a := range layers {
		floor(a.name, n/20)
		for _, b := range layers[i+1:] {
			floor(a.name+" × "+b.name, 5)
		}
	}
	floor("crash × spill × overload", 3)
}

// forcedSweep runs seeds 1..n with one layer forced on for every seed,
// whatever the generator rolled for it, so the layer gets dense
// coverage — in combination with whatever else each seed drew — even in
// a short sweep. Across the sweep the layer must actually act: a
// runtime that never spills, a cut that never fires, a limiter that
// never sheds covers nothing. pin holds tallies the full sweep must
// reach exactly. -sim.seed=N replays one seed of the sweep, which is
// the repro line its failures print.
func forcedSweep(t *testing.T, name string, n uint64, pin map[int]uint64) {
	if *simSeed != 0 {
		runSeed(t, *simSeed, name)
		return
	}
	var (
		mu  sync.Mutex
		sum Acted
		ran uint64
	)
	for seed := uint64(1); seed <= n; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			acted := runSeed(t, seed, name)
			mu.Lock()
			defer mu.Unlock()
			ran++
			for i, c := range acted {
				sum[i] += c
			}
		})
	}
	t.Cleanup(func() {
		for i, c := range sum {
			t.Logf("%-26s %d", actNames[i], c)
		}
		for act, want := range pin {
			if ran == n && sum[act] != want { // a -run filter that skips seeds skips the pin
				t.Errorf("%s across %d scenarios: %d, want %d", actNames[act], n, sum[act], want)
			}
		}
		for _, l := range layers {
			if l.name != name {
				continue
			}
			for _, act := range l.acts {
				if sum[act] == 0 {
					t.Errorf("no %s across %d scenarios with the %s layer forced on; the layer is inert", actNames[act], n, name)
				}
			}
		}
	})
}

// One sweep per row of the layers table; sweepName maps a layer to its
// test. Fewer seeds where thrashing spill budgets make a run slow, and
// where the layer is on for most seeds anyway.
func TestSimShardedEquivalence(t *testing.T)  { forcedSweep(t, "sharded", 40, nil) }
func TestSimCrashEquivalence(t *testing.T)    { forcedSweep(t, "crash", 120, nil) }
func TestSimBatchedEquivalence(t *testing.T)  { forcedSweep(t, "batched", 120, nil) }
func TestSimSpillEquivalence(t *testing.T)    { forcedSweep(t, "spill", 60, nil) }
func TestSimOverloadEquivalence(t *testing.T) { forcedSweep(t, "overload", 120, nil) }

// TestSimAutopilotEquivalence pins the controller's decisions: the
// autopilot is stepped on a logical clock, so the plans it installs
// across the sweep are a count that moves only if what it decides does.
func TestSimAutopilotEquivalence(t *testing.T) {
	forcedSweep(t, "autopilot", 120, map[int]uint64{actInstall: 43})
}

// TestSimCatchesInjectedFault is the harness's self-test (the
// acceptance criterion of the simulation PR): deliberately skipping
// completion episodes behind core.JISC's test-only fault flag must be
// caught by the reference and shrunk to a ≤20-event repro with a
// printable seed.
func TestSimCatchesInjectedFault(t *testing.T) {
	for seed := uint64(1); seed <= 400; seed++ {
		sc := Generate(seed)
		if len(sc.Migrations) == 0 {
			continue
		}
		sc.FaultSkip = 1 // skip every completion episode
		m := Run(sc)
		if m == nil {
			continue // no completion episode fired; try the next seed
		}
		min, mm := Shrink(sc, m, Run, 500)
		if len(min.Events) > 20 {
			t.Fatalf("shrink left %d events, want ≤ 20:\n%s", len(min.Events), Describe(min))
		}
		if !strings.Contains(mm.Repro(), fmt.Sprintf("-sim.seed=%d", seed)) {
			t.Fatalf("repro line %q does not name seed %d", mm.Repro(), seed)
		}
		t.Logf("injected fault caught (%s after %d events), shrunk to %d events / %d migrations; repro: %s",
			mm.Engine, m.Batch, len(min.Events), len(min.Migrations), mm.Repro())
		return
	}
	t.Fatal("no generated scenario triggered the injected completion-skip fault")
}

// TestShrinkPreservesMigrationPositions pins the index remapping of
// the event-chunk removal: a migration scheduled after a removed
// chunk slides left by the chunk size, one inside it clamps to the
// cut.
func TestShrinkPreservesMigrationPositions(t *testing.T) {
	sc := Generate(1)
	sc.Migrations = []Migration{{At: 2, Plan: sc.InitPlan}, {At: 10, Plan: sc.InitPlan}, {At: 30, Plan: sc.InitPlan}}
	c := without(sc, 5, 10)
	if len(c.Events) != len(sc.Events)-10 {
		t.Fatalf("removed %d events, want 10", len(sc.Events)-len(c.Events))
	}
	want := []int{2, 5, 20}
	for i, m := range c.Migrations {
		if m.At != want[i] {
			t.Errorf("migration %d: At=%d, want %d", i, m.At, want[i])
		}
	}
}

// TestShrinkDropsUnneededLayers holds the shrinker to its layer list:
// a failure that needs only the spill layer must come back with every
// other layer off.
func TestShrinkDropsUnneededLayers(t *testing.T) {
	sc := Generate(1)
	rng := rand.New(rand.NewSource(1))
	for _, l := range layers {
		l.draw(&sc, rng)
		if !l.on(&sc) {
			t.Fatalf("drawing the %s layer left it off", l.name)
		}
	}
	needsSpill := func(c Scenario) *Mismatch {
		if !c.UseSpill {
			return nil
		}
		return &Mismatch{Scenario: c, Engine: "fake"}
	}
	min, _ := Shrink(sc, needsSpill(sc), needsSpill, 400)
	for _, l := range layers {
		if on := l.on(&min); on != (l.name == "spill") {
			t.Errorf("shrunk scenario has the %s layer on=%v", l.name, on)
		}
	}
	if min.Shards != 1 || min.CrashBudget != 0 || min.CheckpointAt != 0 || min.UseFeedBatch {
		t.Errorf("shrunk scenario keeps shards=%d crashBudget=%d ckptAt=%d feedBatch=%v, want one shard, no crash, per-event feed",
			min.Shards, min.CrashBudget, min.CheckpointAt, min.UseFeedBatch)
	}
}
