package adaptive

import (
	"errors"
	"testing"
	"time"

	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/metrics"
	"jisc/internal/obs"
	"jisc/internal/plan"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// fakeTarget scripts the Target interface for policy tests: the test
// sets cumulative scan counters and obs snapshots between Step calls
// and records every Migrate.
type fakeTarget struct {
	stats      []engine.ScanStats
	input      uint64
	snap       obs.SetSnapshot
	cur        *plan.Plan
	migrated   []string
	migrateErr error
	scanErr    error
}

func (f *fakeTarget) ScanStats() ([]engine.ScanStats, error) { return f.stats, f.scanErr }
func (f *fakeTarget) Snapshot() metrics.Snapshot             { return metrics.Snapshot{Input: f.input} }
func (f *fakeTarget) ObsSnapshot() obs.SetSnapshot           { return f.snap }
func (f *fakeTarget) Plan() (*plan.Plan, error)              { return f.cur, nil }

func (f *fakeTarget) Migrate(p *plan.Plan) error {
	if f.migrateErr != nil {
		return f.migrateErr
	}
	f.cur = p
	f.migrated = append(f.migrated, p.String())
	return nil
}

// setSel sets the cumulative counters so that, with Decay 1, this
// tick's selectivity estimate for stream i is sel[i]. Each call adds
// 1000 probes per stream and input tuples.
func (f *fakeTarget) setSel(sel ...float64) {
	if f.stats == nil {
		f.stats = make([]engine.ScanStats, len(sel))
		for i := range f.stats {
			f.stats[i].Stream = tuple.StreamID(i)
		}
	}
	for i, s := range sel {
		f.stats[i].Probes += 1000
		f.stats[i].Matches += uint64(s * 1000)
	}
	f.input += 100
}

func newFake() *fakeTarget {
	return &fakeTarget{cur: plan.MustLeftDeep(0, 1, 2)}
}

// hist builds a feed-latency snapshot of n samples at each given
// nanosecond value.
func hist(n int, ns ...uint64) obs.SetSnapshot {
	var h obs.Histogram
	for _, v := range ns {
		for i := 0; i < n; i++ {
			h.Observe(v)
		}
	}
	return obs.SetSnapshot{Feed: h.Snapshot()}
}

var t0 = time.Unix(1000, 0)

func TestConfirmStreakGatesMigration(t *testing.T) {
	f := newFake()
	c := MustNew(f, Config{Confirm: 3, Decay: 1, MinProbes: 1, RegressionFactor: -1})
	for tick := 0; tick < 3; tick++ {
		f.setSel(1.0, 0.5, 0.0) // best order [2 1 0], current [0 1 2]
		c.Step(t0.Add(time.Duration(tick) * time.Second))
		if tick < 2 && c.Migrations() != 0 {
			t.Fatalf("migrated after %d confirmations, want %d", tick+1, 3)
		}
	}
	if c.Migrations() != 1 {
		t.Fatalf("Migrations = %d after 3 confirming ticks, want 1", c.Migrations())
	}
	if c.Proposals() != 3 {
		t.Fatalf("Proposals = %d, want 3", c.Proposals())
	}
	want := plan.MustLeftDeep(2, 1, 0).String()
	if len(f.migrated) != 1 || f.migrated[0] != want {
		t.Fatalf("migrated to %v, want [%s]", f.migrated, want)
	}
}

// TestHysteresisNoFlap: selectivities that oscillate between "the
// current plan is best" and "reverse it" on alternating ticks never
// produce Confirm consecutive identical proposals, so the controller
// never migrates — the §5.1.2 anti-thrashing property.
func TestHysteresisNoFlap(t *testing.T) {
	f := newFake()
	c := MustNew(f, Config{Confirm: 2, Decay: 1, MinProbes: 1, RegressionFactor: -1})
	for tick := 0; tick < 20; tick++ {
		if tick%2 == 0 {
			f.setSel(1.0, 0.5, 0.0) // would propose [2 1 0]
		} else {
			f.setSel(0.0, 0.5, 1.0) // current [0 1 2] is already best
		}
		c.Step(t0.Add(time.Duration(tick) * time.Second))
	}
	if c.Migrations() != 0 {
		t.Fatalf("oscillating statistics migrated %d times, want 0 (migrations: %v)", c.Migrations(), f.migrated)
	}
	if c.Proposals() == 0 {
		t.Fatal("no proposals at all; the oscillation never reached the advisor")
	}
}

func TestCooldownEnforced(t *testing.T) {
	f := newFake()
	c := MustNew(f, Config{Confirm: 1, Cooldown: 10 * time.Second, Decay: 1, MinProbes: 1, RegressionFactor: -1})
	f.setSel(1.0, 0.5, 0.0)
	c.Step(t0)
	if c.Migrations() != 1 {
		t.Fatalf("first migration did not happen: Migrations = %d", c.Migrations())
	}
	// Now the installed plan is [2 1 0]; flip the statistics so the
	// original order is best again.
	f.setSel(0.0, 0.5, 1.0)
	c.Step(t0.Add(time.Second))
	if c.Migrations() != 1 {
		t.Fatalf("migration inside the cooldown window: Migrations = %d", c.Migrations())
	}
	f.setSel(0.0, 0.5, 1.0)
	c.Step(t0.Add(11 * time.Second))
	if c.Migrations() != 2 {
		t.Fatalf("migration after the cooldown expired did not happen: Migrations = %d", c.Migrations())
	}
}

func TestRateLimitCapsMigrationsPerWindow(t *testing.T) {
	f := newFake()
	c := MustNew(f, Config{
		Confirm: 1, Cooldown: time.Nanosecond, MaxPerWindow: 2, RateWindow: time.Minute,
		Decay: 1, MinProbes: 1, RegressionFactor: -1,
	})
	// Alternate which order is best so every tick confirms a fresh
	// proposal; only the rate limit can stop the flapping now.
	for tick := 0; tick < 8; tick++ {
		if tick%2 == 0 {
			f.setSel(1.0, 0.5, 0.0)
		} else {
			f.setSel(0.0, 0.5, 1.0)
		}
		c.Step(t0.Add(time.Duration(tick) * time.Second))
	}
	if c.Migrations() != 2 {
		t.Fatalf("Migrations = %d inside one rate window, want 2", c.Migrations())
	}
	// A new window re-opens the budget.
	f.setSel(1.0, 0.5, 0.0)
	c.Step(t0.Add(2 * time.Minute))
	if c.Migrations() != 3 {
		t.Fatalf("Migrations = %d after the rate window rolled, want 3", c.Migrations())
	}
}

// TestRollbackOnRegression injects a feed-latency regression after a
// migration and checks the guard restores the previous plan, counts
// the rollback, and vetoes the regressed plan for VetoHold.
func TestRollbackOnRegression(t *testing.T) {
	f := newFake()
	c := MustNew(f, Config{
		Confirm: 1, Cooldown: time.Nanosecond, Decay: 1, MinProbes: 1,
		RegressionFactor: 2.0, RegressionWindow: 2 * time.Second, VetoHold: time.Hour,
	})
	// Tick 1: neutral statistics, just anchors the baseline window at
	// 10 samples of 1ms.
	f.snap = hist(10, 1e6)
	f.setSel(0.5, 0.5, 0.5)
	c.Step(t0)
	if c.Migrations() != 0 {
		t.Fatalf("neutral statistics migrated: %v", f.migrated)
	}
	// Tick 2 (inside the anchor window): a confirmed improvement
	// migrates; the baseline is the 10 further 1ms samples since tick 1.
	f.snap = hist(20, 1e6)
	f.setSel(1.0, 0.5, 0.0)
	c.Step(t0.Add(time.Second))
	if c.Migrations() != 1 {
		t.Fatalf("Migrations = %d, want 1", c.Migrations())
	}
	bad := f.cur.String()
	// Tick 3, one RegressionWindow later: everything fed since the
	// migration took 100ms — a 100× p99 regression.
	f.snap = hist(20, 1e6).Add(hist(20, 1e8))
	f.setSel(1.0, 0.5, 0.0)
	c.Step(t0.Add(3100 * time.Millisecond))
	if c.Rollbacks() != 1 {
		t.Fatalf("Rollbacks = %d, want 1", c.Rollbacks())
	}
	if got := f.cur.String(); got != plan.MustLeftDeep(0, 1, 2).String() {
		t.Fatalf("current plan after rollback is %s, want the previous plan", got)
	}
	// The regressed plan is vetoed: identical favorable statistics must
	// not reinstall it.
	migs := c.Migrations()
	for tick := 0; tick < 4; tick++ {
		f.setSel(1.0, 0.5, 0.0)
		c.Step(t0.Add(time.Duration(10+tick) * time.Second))
	}
	if c.Migrations() != migs {
		t.Fatalf("vetoed plan %s was reinstalled (migrations %v)", bad, f.migrated)
	}
}

// TestGuardSilentWithoutSamples: with obs instrumentation off the feed
// histogram is empty, and the guard must never roll back — the
// deterministic-simulation mode depends on it.
func TestGuardSilentWithoutSamples(t *testing.T) {
	f := newFake()
	c := MustNew(f, Config{Confirm: 1, Cooldown: time.Nanosecond, Decay: 1, MinProbes: 1,
		RegressionFactor: 2.0, RegressionWindow: time.Second})
	f.setSel(1.0, 0.5, 0.0)
	c.Step(t0)
	f.setSel(0.5, 0.5, 0.5)
	c.Step(t0.Add(5 * time.Second))
	if c.Rollbacks() != 0 {
		t.Fatalf("Rollbacks = %d with an empty feed histogram, want 0", c.Rollbacks())
	}
	if c.Migrations() != 1 {
		t.Fatalf("Migrations = %d, want 1", c.Migrations())
	}
}

func TestStepToleratesTargetErrors(t *testing.T) {
	f := newFake()
	c := MustNew(f, Config{Confirm: 1, Decay: 1, MinProbes: 1, RegressionFactor: -1})
	f.scanErr = errors.New("closing")
	f.setSel(1.0, 0.5, 0.0)
	c.Step(t0) // must not panic or migrate
	if c.Migrations() != 0 || c.Proposals() != 0 {
		t.Fatalf("Step acted on a failing target: proposals=%d migrations=%d", c.Proposals(), c.Migrations())
	}
	f.scanErr = nil
	f.migrateErr = errors.New("shard stopped")
	c.Step(t0.Add(time.Second))
	if c.Migrations() != 0 {
		t.Fatalf("a failed Migrate was counted: %d", c.Migrations())
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil target accepted")
	}
	f := newFake()
	if _, err := New(f, Config{Cooldown: -time.Second}); err == nil {
		t.Error("negative cooldown accepted")
	}
	if _, err := New(f, Config{Confirm: -1}); err == nil {
		t.Error("negative confirm accepted")
	}
	c := MustNew(f, Config{})
	if c.Running() {
		t.Error("controller running before Start")
	}
	if !c.LastMigration().IsZero() {
		t.Error("LastMigration non-zero before any migration")
	}
	c.Stop() // never started: must not hang
}

func TestStartStopLifecycle(t *testing.T) {
	f := newFake()
	c := MustNew(f, Config{Interval: time.Millisecond, RegressionFactor: -1})
	c.Start()
	c.Start() // idempotent
	if !c.Running() {
		t.Fatal("Running() false after Start")
	}
	time.Sleep(10 * time.Millisecond)
	c.Stop()
	c.Stop() // idempotent
	if c.Running() {
		t.Fatal("Running() true after Stop")
	}
}

// TestSingleEngineAutopilot closes the loop on a real engine: a skewed
// workload starts under the worst order, and single-stepped ticks must
// re-plan it so the hose stream leaves the front of the plan.
func TestSingleEngineAutopilot(t *testing.T) {
	e := engine.MustNew(engine.Config{
		Plan:       plan.MustLeftDeep(0, 1, 2),
		WindowSize: 200,
		Strategy:   core.New(),
	})
	c := MustNew(SingleEngine{E: e}, Config{
		Confirm: 2, Cooldown: time.Second, MinProbes: 16, RegressionFactor: -1,
	})
	src := workload.MustNewSource(workload.Config{
		Streams: 3, Domain: 200, Seed: 7, Domains: []int64{4, 2000, 2000},
	})
	clock := t0
	for i := 0; i < 30000; i++ {
		e.Feed(src.Next())
		if i%500 == 0 {
			clock = clock.Add(time.Second)
			c.Step(clock)
		}
	}
	if c.Migrations() == 0 {
		t.Fatal("the autopilot never re-planned a badly ordered skewed workload")
	}
	order, err := e.Plan().Order()
	if err != nil {
		t.Fatalf("installed plan is not left-deep: %v", err)
	}
	if order[0] == 0 {
		t.Fatalf("hose stream 0 still leads the plan %v after %d migrations", order, c.Migrations())
	}
}

const hoseShiftWindow = 300

// hoseShiftEvents is the two-phase workload no static plan is right
// for: 4 streams, 120 k tuples; in the first half stream 0 is the hose
// (its keys land in two buckets, so every probe against its window
// fans out to half of it), in the second half stream 3 is. The cold
// streams spread over ten windows of keys, so most of their keys miss
// — the contrast is what makes probe order matter.
func hoseShiftEvents() []workload.Event {
	const tuples, cold = 120_000, 10 * hoseShiftWindow
	phase := func(salt string, domains []int64) []workload.Event {
		return workload.MustNewSource(workload.Config{
			Streams: 4, Domain: hoseShiftWindow, Domains: domains,
			Seed: int64(workload.DeriveSeed(1, salt)),
		}).Take(tuples / 2)
	}
	evs := phase("adaptive-a", []int64{2, cold, cold, cold})
	return append(evs, phase("adaptive-b", []int64{cold, cold, cold, 2})...)
}

// TestAutopilotHoseShiftWork is the closed loop's payoff as a count,
// not a time: every left-deep rotation runs the hose-shift workload
// statically, then the autopilot runs it from the worst of them on a
// logical clock. The autopilot must probe less than the plan it was
// started on and within 5% of the best static plan, and emit the same
// results. Seed-deterministic — the numbers repeat exactly.
func TestAutopilotHoseShiftWork(t *testing.T) {
	evs := hoseShiftEvents()
	run := func(initial *plan.Plan, auto bool) (probes, output, migrations uint64) {
		e := engine.MustNew(engine.Config{Plan: initial, WindowSize: hoseShiftWindow, Strategy: core.New()})
		var c *Controller
		if auto {
			c = MustNew(SingleEngine{E: e}, Config{Confirm: 2, Cooldown: 2 * time.Second, RegressionFactor: -1})
		}
		clock := t0
		for i, ev := range evs {
			e.Feed(ev)
			if c != nil && i%500 == 0 {
				clock = clock.Add(time.Second)
				c.Step(clock)
			}
		}
		if c != nil {
			migrations = c.Migrations()
		}
		m := e.Metrics()
		return m.Probes, m.Output, migrations
	}
	var worst *plan.Plan
	var worstProbes, bestProbes, wantOutput uint64
	for r := 0; r < 4; r++ {
		p := plan.MustLeftDeep(tuple.StreamID(r), tuple.StreamID((r+1)%4), tuple.StreamID((r+2)%4), tuple.StreamID((r+3)%4))
		probes, output, _ := run(p, false)
		t.Logf("static %s: %d probes, %d outputs", p, probes, output)
		if r > 0 && output != wantOutput {
			t.Fatalf("static %s emitted %d results, the others %d", p, output, wantOutput)
		}
		wantOutput = output
		if probes > worstProbes {
			worst, worstProbes = p, probes
		}
		if bestProbes == 0 || probes < bestProbes {
			bestProbes = probes
		}
	}
	if want := plan.MustLeftDeep(3, 0, 1, 2); !worst.Equal(want) {
		t.Fatalf("worst static rotation is %s, the workload was built for %s", worst, want)
	}
	probes, output, migrations := run(worst, true)
	t.Logf("autopilot from %s: %d probes (%.2fx worst, %.2fx best), %d outputs, %d migrations",
		worst, probes, float64(probes)/float64(worstProbes), float64(probes)/float64(bestProbes), output, migrations)
	if output != wantOutput {
		t.Errorf("autopilot emitted %d results, the static plans %d", output, wantOutput)
	}
	if migrations == 0 {
		t.Error("the autopilot never left the worst plan")
	}
	if probes >= worstProbes {
		t.Errorf("autopilot probed %d times, no fewer than the worst static plan's %d", probes, worstProbes)
	}
	if float64(probes) > 1.05*float64(bestProbes) {
		t.Errorf("autopilot probed %d times, more than 5%% over the best static plan's %d", probes, bestProbes)
	}
}
