package adaptive

import (
	"errors"
	"testing"
	"time"

	"jisc/internal/core"
	"jisc/internal/engine"
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
	snap       obs.SetSnapshot
	cur        *plan.Plan
	migrated   []string
	migrateErr error
}

func (f *fakeTarget) ScanStats() []engine.ScanStats { return f.stats }
func (f *fakeTarget) ObsSnapshot() obs.SetSnapshot  { return f.snap }
func (f *fakeTarget) Plan() *plan.Plan              { return f.cur }

func (f *fakeTarget) Migrate(p *plan.Plan) error {
	if f.migrateErr != nil {
		return f.migrateErr
	}
	f.cur = p
	f.migrated = append(f.migrated, p.String())
	return nil
}

// setSel adds one observation window to the cumulative counters: 1000
// probes per stream, stream i matching at sel[i]. The advisor folds
// each window in at half weight, so an estimate reaches sel[i] at once
// when it is the stream's first and halves its distance every tick
// after.
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

// at is t0 plus sec seconds.
func at(sec float64) time.Time { return t0.Add(time.Duration(sec * float64(time.Second))) }

func TestConfirmStreakGatesMigration(t *testing.T) {
	f := newFake()
	c := MustNew(f, Config{MinProbes: 1})
	for tick := 0; tick < confirm; tick++ {
		f.setSel(1.0, 0.5, 0.0) // best order [2 1 0], current [0 1 2]
		c.Step(at(float64(tick)))
		if tick < confirm-1 && c.Migrations() != 0 {
			t.Fatalf("migrated after %d confirmations, want %d", tick+1, confirm)
		}
	}
	if c.Migrations() != 1 {
		t.Fatalf("Migrations = %d after %d confirming ticks, want 1", c.Migrations(), confirm)
	}
	if c.Proposals() != confirm {
		t.Fatalf("Proposals = %d, want %d", c.Proposals(), confirm)
	}
	want := plan.MustLeftDeep(2, 1, 0).String()
	if len(f.migrated) != 1 || f.migrated[0] != want {
		t.Fatalf("migrated to %v, want [%s]", f.migrated, want)
	}
}

// TestHysteresisNoFlap: selectivities that oscillate between "the
// current plan is best" and "reverse it" on alternating ticks never
// produce confirm consecutive identical proposals, so the controller
// never migrates — the §5.1.2 anti-thrashing property.
func TestHysteresisNoFlap(t *testing.T) {
	f := newFake()
	c := MustNew(f, Config{MinProbes: 1})
	for tick := 0; tick < 20; tick++ {
		if tick%2 == 0 {
			f.setSel(1.0, 0.5, 0.0) // would propose [2 1 0]
		} else {
			f.setSel(0.0, 0.5, 1.0) // current [0 1 2] is already best
		}
		c.Step(at(float64(tick)))
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
	c := MustNew(f, Config{Cooldown: 10 * time.Second, MinProbes: 1})
	step := func(sec float64, sel ...float64) {
		f.setSel(sel...)
		c.Step(at(sec))
	}
	step(0, 1.0, 0.5, 0.0)
	step(1, 1.0, 0.5, 0.0)
	if c.Migrations() != 1 {
		t.Fatalf("first migration did not happen: Migrations = %d", c.Migrations())
	}
	// Now the installed plan is [2 1 0]; flip the statistics so the
	// original order is best again, long enough for the advisor to
	// confirm it well inside the cooldown.
	for sec := 2.0; sec <= 6; sec++ {
		step(sec, 0.0, 0.5, 1.0)
	}
	if c.Proposals() < 2+confirm {
		t.Fatalf("Proposals = %d: the flipped order was never confirmed, so the cooldown was not tested", c.Proposals())
	}
	if c.Migrations() != 1 {
		t.Fatalf("migration inside the cooldown window: Migrations = %d", c.Migrations())
	}
	step(12, 0.0, 0.5, 1.0)
	if c.Migrations() != 2 {
		t.Fatalf("migration after the cooldown expired did not happen: Migrations = %d", c.Migrations())
	}
}

// TestRateLimitCapsMigrationsPerWindow: the cooldown is too short to
// pace anything and the statistics turn against each plan as soon as
// it is installed, so only the rate limit stops the flapping —
// maxPerWindow migrations in one rateWindow, and the budget re-opens
// when the window rolls.
func TestRateLimitCapsMigrationsPerWindow(t *testing.T) {
	f := newFake()
	c := MustNew(f, Config{Cooldown: time.Nanosecond, MinProbes: 1})
	forward := true
	step := func(sec float64) {
		if forward {
			f.setSel(1.0, 0.5, 0.0)
		} else {
			f.setSel(0.0, 0.5, 1.0)
		}
		before := c.Migrations()
		c.Step(at(sec))
		if c.Migrations() != before {
			forward = !forward
		}
	}
	for sec := 0.0; sec < 40; sec++ {
		step(sec)
	}
	if c.Migrations() != maxPerWindow {
		t.Fatalf("Migrations = %d inside one rate window, want %d", c.Migrations(), maxPerWindow)
	}
	// A new window re-opens the budget: the proposal the limit held
	// back installs.
	step((2 * rateWindow).Seconds())
	if c.Migrations() != maxPerWindow+1 {
		t.Fatalf("Migrations = %d after the rate window rolled, want %d", c.Migrations(), maxPerWindow+1)
	}
}

// TestRollbackOnRegression injects a feed-latency regression after a
// migration and checks the guard restores the previous plan, counts
// the rollback, and vetoes the regressed plan for vetoHoldCooldowns
// cooldowns — and no longer.
func TestRollbackOnRegression(t *testing.T) {
	f := newFake()
	c := MustNew(f, Config{Cooldown: time.Second, MinProbes: 1})
	// Tick 1: neutral statistics, just anchors the baseline window at
	// 10 samples of 1ms.
	f.snap = hist(10, 1e6)
	f.setSel(0.5, 0.5, 0.5)
	c.Step(t0)
	if c.Migrations() != 0 {
		t.Fatalf("neutral statistics migrated: %v", f.migrated)
	}
	// Ticks 2 and 3 (inside the anchor window): an improvement confirmed
	// on the second migrates; the baseline is the 10 further 1ms samples
	// since tick 1.
	f.snap = hist(20, 1e6)
	for _, sec := range []float64{0.5, 1} {
		f.setSel(1.0, 0.5, 0.0)
		c.Step(at(sec))
	}
	if c.Migrations() != 1 {
		t.Fatalf("Migrations = %d, want 1", c.Migrations())
	}
	bad := f.cur.String()
	// Tick 4, one regressionWindow later: everything fed since the
	// migration took 100ms — a 100× p99 regression.
	f.snap = hist(20, 1e6).Add(hist(20, 1e8))
	f.setSel(1.0, 0.5, 0.0)
	rolledBack := at(1).Add(regressionWindow + 100*time.Millisecond)
	c.Step(rolledBack)
	if c.Rollbacks() != 1 {
		t.Fatalf("Rollbacks = %d, want 1", c.Rollbacks())
	}
	if got := f.cur.String(); got != plan.MustLeftDeep(0, 1, 2).String() {
		t.Fatalf("current plan after rollback is %s, want the previous plan", got)
	}
	// The regressed plan is vetoed: identical favorable statistics,
	// confirmed and past the cooldown, must not reinstall it until the
	// veto lapses.
	migs := c.Migrations()
	vetoEnd := rolledBack.Add(vetoHoldCooldowns * time.Second)
	for now := rolledBack.Add(time.Second); now.Before(vetoEnd); now = now.Add(time.Second) {
		f.setSel(1.0, 0.5, 0.0)
		c.Step(now)
	}
	if c.Migrations() != migs {
		t.Fatalf("vetoed plan %s was reinstalled (migrations %v)", bad, f.migrated)
	}
	f.setSel(1.0, 0.5, 0.0)
	c.Step(vetoEnd)
	if c.Migrations() != migs+1 {
		t.Fatalf("Migrations = %d once the veto lapsed, want %d", c.Migrations(), migs+1)
	}
}

// TestGuardSilentWithoutSamples: with obs instrumentation off the feed
// histogram is empty, and the guard must never roll back — the
// deterministic-simulation mode depends on it.
func TestGuardSilentWithoutSamples(t *testing.T) {
	f := newFake()
	c := MustNew(f, Config{Cooldown: time.Nanosecond, MinProbes: 1})
	for tick := 0; tick < confirm; tick++ {
		f.setSel(1.0, 0.5, 0.0)
		c.Step(at(float64(tick)))
	}
	f.setSel(0.5, 0.5, 0.5)
	c.Step(at(5))
	if c.Rollbacks() != 0 {
		t.Fatalf("Rollbacks = %d with an empty feed histogram, want 0", c.Rollbacks())
	}
	if c.Migrations() != 1 {
		t.Fatalf("Migrations = %d, want 1", c.Migrations())
	}
}

// TestStepToleratesTargetErrors: a Migrate the target refuses is not
// counted as a migration. Reading the target cannot fail: its
// statistics and plan are what the shards last published.
func TestStepToleratesTargetErrors(t *testing.T) {
	f := newFake()
	c := MustNew(f, Config{MinProbes: 1})
	f.migrateErr = errors.New("shard stopped")
	for tick := 1; tick <= confirm; tick++ {
		f.setSel(1.0, 0.5, 0.0)
		c.Step(at(float64(tick)))
	}
	if c.Proposals() != confirm {
		t.Fatalf("Proposals = %d, want %d: the migration was never attempted", c.Proposals(), confirm)
	}
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
	if _, err := New(f, Config{Interval: -time.Second}); err == nil {
		t.Error("negative interval accepted")
	}
	c := MustNew(f, Config{})
	if c.started.Load() {
		t.Error("controller running before Start")
	}
	if !c.LastMigration().IsZero() {
		t.Error("LastMigration non-zero before any migration")
	}
	c.Stop() // never started: must not hang
}

func TestStartStopLifecycle(t *testing.T) {
	f := newFake()
	c := MustNew(f, Config{Interval: time.Millisecond})
	c.Start()
	c.Start() // idempotent
	if !c.started.Load() {
		t.Fatal("not started after Start")
	}
	time.Sleep(10 * time.Millisecond)
	c.Stop()
	c.Stop() // idempotent
	if c.started.Load() {
		t.Fatal("still started after Stop")
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
	c := MustNew(SingleEngine{Engine: e}, Config{Cooldown: time.Second, MinProbes: 16})
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
// results. Seed-deterministic, so every count is pinned exactly: a
// change to what the controller decides moves one of them.
func TestAutopilotHoseShiftWork(t *testing.T) {
	const wantOutput, wantAutoProbes, wantMigrations = 253, 126794, 14
	wantStatic := []uint64{125670, 127438, 128594, 150252}
	evs := hoseShiftEvents()
	run := func(initial *plan.Plan, auto bool) (probes, output, migrations uint64) {
		e := engine.MustNew(engine.Config{Plan: initial, WindowSize: hoseShiftWindow, Strategy: core.New()})
		var c *Controller
		if auto {
			c = MustNew(SingleEngine{Engine: e}, Config{Cooldown: 2 * time.Second})
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
	var worstProbes, bestProbes uint64
	for r := 0; r < 4; r++ {
		p := plan.MustLeftDeep(tuple.StreamID(r), tuple.StreamID((r+1)%4), tuple.StreamID((r+2)%4), tuple.StreamID((r+3)%4))
		probes, output, _ := run(p, false)
		t.Logf("static %s: %d probes, %d outputs", p, probes, output)
		if probes != wantStatic[r] || output != wantOutput {
			t.Errorf("static %s: %d probes, %d outputs; want %d and %d", p, probes, output, wantStatic[r], wantOutput)
		}
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
	if probes != wantAutoProbes || output != wantOutput || migrations != wantMigrations {
		t.Errorf("autopilot: %d probes, %d outputs, %d migrations; want %d, %d and %d",
			probes, output, migrations, wantAutoProbes, wantOutput, wantMigrations)
	}
	if probes >= worstProbes {
		t.Errorf("autopilot probed %d times, no fewer than the worst static plan's %d", probes, worstProbes)
	}
	if float64(probes) > 1.05*float64(bestProbes) {
		t.Errorf("autopilot probed %d times, more than 5%% over the best static plan's %d", probes, bestProbes)
	}
}
