// Package adaptive closes the paper's re-optimization loop: a
// per-query Controller periodically snapshots per-operator selectivity
// statistics (and the feed latency its regression guard reads) from
// the sharded runtime, asks its advisor (advisor.go) for a better
// plan, and installs accepted proposals through the runtime's normal
// migration path — so WAL MIGRATE records, JISC completion episodes,
// and migration tracing all work unchanged under autopilot.
//
// The paper treats the transition trigger as orthogonal (§2) but its
// §5.1.2 thrashing discussion makes the guard rails the interesting
// part. The controller layers four on top of the advisor's own
// improvement hysteresis:
//
//   - confirmation: a proposal must be re-derived on confirm
//     consecutive decision ticks before it is acted on, so a
//     selectivity blip that oscillates around the improvement
//     threshold never migrates;
//   - cooldown: accepted migrations are separated by at least Cooldown
//     of wall-clock time;
//   - rate limit: at most maxPerWindow migrations per rateWindow,
//     whatever the statistics do;
//   - regression guard: after each migration the controller compares
//     the post-migration feed p99 (over regressionWindow) against the
//     pre-migration window; if it worsened beyond regressionFactor×,
//     the previous plan is restored and the regressed plan is vetoed
//     for vetoHoldCooldowns × Cooldown.
//
// Cooldown is the only guard an operator sets (jiscd -auto-cooldown);
// the rest are constants.
//
// A Controller can run as a background goroutine (Start/Stop — the
// server and cmd/jiscd mode) or be single-stepped with an injected
// clock (Step — the simulation harness's deterministic mode and the
// policy unit tests).
package adaptive

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"jisc/internal/engine"
	"jisc/internal/obs"
	"jisc/internal/plan"
)

// Target is the slice of a runtime the controller observes and drives.
// *runtime.Runtime satisfies it; SingleEngine adapts a bare engine.
type Target interface {
	// ScanStats returns cumulative per-stream scan counters (summed
	// across shards), ascending by stream ID.
	ScanStats() []engine.ScanStats
	// ObsSnapshot returns the merged latency histograms; an empty
	// snapshot (Feed.Count == 0) disables the regression guard.
	ObsSnapshot() obs.SetSnapshot
	// Plan returns the plan last applied.
	Plan() *plan.Plan
	// Migrate transitions every shard to p.
	Migrate(p *plan.Plan) error
}

// Config parameterizes a Controller. The zero value of every field
// selects a sane default.
type Config struct {
	// Interval is the decision-tick period of the background loop
	// (default 500ms). Ignored when the controller is single-stepped.
	Interval time.Duration
	// Cooldown is the minimum wall-clock time between accepted
	// migrations (default 5s). It should not be shorter than
	// regressionWindow, or a new migration can supersede an unresolved
	// regression guard.
	Cooldown time.Duration
	// MinProbes is the number of probes a stream must have received
	// since the advisor's last observation before its selectivity
	// estimate is trusted (default 16).
	MinProbes uint64

	// Tracer receives EvAutoDecision/EvAutoRollback (and the advisor's
	// EvPlanProposed) events; Query labels them. May be nil.
	Tracer *obs.Tracer
	Query  string
}

// The controller's guard rails, each at the value the served autopilot
// has always run with.
const (
	confirm           = 2               // ticks that must re-derive a proposal, so a blip around the threshold never migrates
	maxPerWindow      = 4               // migrations (not rollbacks) allowed per rateWindow, whatever the statistics do
	rateWindow        = time.Minute     // the span maxPerWindow counts over
	regressionFactor  = 2.0             // feed-p99 growth past which a migration is rolled back
	regressionWindow  = 2 * time.Second // how long a migration runs before the guard judges it
	vetoHoldCooldowns = 5               // Cooldowns a rolled-back plan stays barred, so it cannot flap straight back
	minGuardSamples   = 8               // feed-latency samples either window needs before the guard judges at all
)

// Controller is one query's closed-loop autopilot. All methods are
// safe for concurrent use; decision state is serialized by an internal
// mutex, and the counters are atomic so STATS and /metrics read them
// without blocking behind a decision tick.
type Controller struct {
	cfg     Config
	target  Target
	advisor *advisor

	proposals  atomic.Uint64
	migrations atomic.Uint64
	rollbacks  atomic.Uint64
	lastMig    atomic.Int64 // unix nanos of the last accepted migration, 0 = never

	mu        sync.Mutex
	pending   *plan.Plan // current confirmation candidate
	confirms  int
	cooldown  time.Time   // start of the active cooldown period
	recent    []time.Time // accepted migrations inside rateWindow
	veto      string      // plan string barred until vetoUntil
	vetoUntil time.Time

	// Regression-guard state. anchor is a trailing cumulative snapshot
	// of the feed histogram, re-taken roughly every regressionWindow, so
	// feed.Sub(anchor) at migration time is the pre-migration window.
	guardArmed bool
	prevPlan   *plan.Plan
	installed  string
	migratedAt time.Time
	atFeed     obs.HistSnapshot
	baseline   obs.HistSnapshot
	anchor     obs.HistSnapshot
	anchorAt   time.Time

	paused    atomic.Bool
	started   atomic.Bool
	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New builds a Controller for target. The controller is idle until
// Start (background loop) or Step (manual ticks).
func New(target Target, cfg Config) (*Controller, error) {
	if target == nil {
		return nil, fmt.Errorf("adaptive: nil target")
	}
	if cfg.Interval < 0 || cfg.Cooldown < 0 {
		return nil, fmt.Errorf("adaptive: negative duration in config")
	}
	if cfg.Interval == 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.Cooldown == 0 {
		cfg.Cooldown = 5 * time.Second
	}
	if cfg.MinProbes == 0 {
		cfg.MinProbes = 16
	}
	c := &Controller{
		cfg:    cfg,
		target: target,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	c.advisor = newAdvisor(&c.cfg)
	return c, nil
}

// MustNew is New but panics on error.
func MustNew(target Target, cfg Config) *Controller {
	c, err := New(target, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Start launches the background decision loop: one Step per Interval
// until Stop. Start is idempotent.
func (c *Controller) Start() {
	c.startOnce.Do(func() {
		c.started.Store(true)
		go c.loop()
	})
}

func (c *Controller) loop() {
	defer close(c.done)
	t := time.NewTicker(c.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.Step(time.Now())
		}
	}
}

// Stop terminates the background loop and waits for any in-flight
// decision tick to finish. Idempotent; a never-started controller
// stops immediately. The target must still be accepting control
// messages when Stop is called (stop the autopilot before closing the
// runtime).
func (c *Controller) Stop() {
	c.stopOnce.Do(func() {
		close(c.stop)
		if c.started.Load() {
			<-c.done
		}
		c.started.Store(false)
	})
}

// Pause ends decision-making without stopping the background loop:
// Step returns immediately from then on, so no migration can start.
// The server pauses autopilots during a graceful drain — a plan
// transition racing the drain barrier would re-lengthen the queues the
// drain is emptying. Unlike Stop, Pause does not join the loop
// goroutine, so it is safe from any context.
func (c *Controller) Pause() { c.paused.Store(true) }

// Proposals returns how many plan changes the advisor has proposed
// (confirmed or not).
func (c *Controller) Proposals() uint64 { return c.proposals.Load() }

// Migrations returns how many proposals the controller has installed.
func (c *Controller) Migrations() uint64 { return c.migrations.Load() }

// Rollbacks returns how many installed plans the regression guard has
// reverted.
func (c *Controller) Rollbacks() uint64 { return c.rollbacks.Load() }

// LastMigration returns when the controller last installed a plan; the
// zero time when it never has.
func (c *Controller) LastMigration() time.Time {
	ns := c.lastMig.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// Step runs one decision tick at the given time: fold fresh statistics
// into the advisor, resolve a pending regression guard, and — when a
// proposal has been confirmed and clears cooldown, rate limit, and
// veto — migrate the target. Step is synchronous and deterministic
// given the target's statistics, so the simulation harness drives it
// with a logical clock between flush barriers.
func (c *Controller) Step(now time.Time) {
	if c.paused.Load() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	c.advisor.observeScanStats(c.target.ScanStats())
	feed := c.target.ObsSnapshot().Feed

	if c.guardArmed {
		if now.Sub(c.migratedAt) >= regressionWindow {
			c.guardArmed = false
			c.judge(now, feed)
			c.anchor, c.anchorAt = feed, now
		}
	} else if now.Sub(c.anchorAt) >= regressionWindow {
		// Keep the trailing anchor about one regressionWindow behind, so
		// the pre-migration baseline spans a window comparable to the
		// post-migration one.
		c.anchor, c.anchorAt = feed, now
	}

	cur := c.target.Plan()
	p, ok := c.advisor.propose(cur)
	if !ok {
		// The advisor no longer stands by the pending candidate (or the
		// current plan is already best): drop the confirmation streak.
		c.pending, c.confirms = nil, 0
		return
	}
	c.proposals.Add(1)
	if c.pending != nil && p.Equal(c.pending) {
		c.confirms++
	} else {
		c.pending, c.confirms = p, 1
	}
	if c.confirms < confirm {
		return
	}
	if p.String() == c.veto && now.Before(c.vetoUntil) {
		return
	}
	if !c.cooldown.IsZero() && now.Sub(c.cooldown) < c.cfg.Cooldown {
		return
	}
	keep := c.recent[:0]
	for _, t := range c.recent {
		if now.Sub(t) < rateWindow {
			keep = append(keep, t)
		}
	}
	c.recent = keep
	if len(c.recent) >= maxPerWindow {
		return
	}

	if err := c.target.Migrate(p); err != nil {
		return
	}
	n := c.migrations.Add(1)
	c.lastMig.Store(now.UnixNano())
	c.cooldown = now
	c.recent = append(c.recent, now)
	c.pending, c.confirms = nil, 0

	// Arm the regression guard: remember how to get back, what the feed
	// latency looked like before, and where the post-migration window
	// starts (a fresh snapshot, so the migration stall itself and the
	// pre-window samples stay out of the judged interval).
	c.prevPlan, c.installed = cur, p.String()
	c.baseline = feed.Sub(c.anchor)
	c.atFeed = c.target.ObsSnapshot().Feed
	c.migratedAt = now
	c.anchor, c.anchorAt = c.atFeed, now
	c.guardArmed = true

	c.cfg.Tracer.Emit(obs.Event{
		Kind: obs.EvAutoDecision, Query: c.cfg.Query, Count: n,
		Note: cur.String() + " -> " + p.String(),
	})
}

// judge resolves an armed regression guard: compare the post-migration
// feed p99 against the pre-migration baseline and roll back on a
// regression beyond regressionFactor.
func (c *Controller) judge(now time.Time, feed obs.HistSnapshot) {
	post := feed.Sub(c.atFeed)
	if c.baseline.Count < minGuardSamples || post.Count < minGuardSamples {
		return
	}
	baseP99 := c.baseline.Quantile(0.99)
	postP99 := post.Quantile(0.99)
	if float64(postP99) <= float64(baseP99)*regressionFactor {
		return
	}
	if err := c.target.Migrate(c.prevPlan); err != nil {
		return
	}
	n := c.rollbacks.Add(1)
	c.veto, c.vetoUntil = c.installed, now.Add(vetoHoldCooldowns*c.cfg.Cooldown)
	c.cooldown = now
	c.pending, c.confirms = nil, 0
	c.cfg.Tracer.Emit(obs.Event{
		Kind: obs.EvAutoRollback, Query: c.cfg.Query, Count: n,
		Dur:  postP99,
		Note: c.installed + " -> " + c.prevPlan.String(),
	})
}

// SingleEngine adapts a bare deterministic engine to the Target
// interface for in-process use (examples, tests): the engine's own
// ScanStats, Plan and Migrate, read and called by its owner. The engine
// is single-threaded: the caller must not feed it concurrently with
// controller steps, so pair SingleEngine with manual Step calls, not
// with Start.
type SingleEngine struct{ *engine.Engine }

func (s SingleEngine) ObsSnapshot() obs.SetSnapshot {
	if r := s.Obs(); r != nil {
		return r.Snapshot()
	}
	return obs.SetSnapshot{}
}
