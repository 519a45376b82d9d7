package sim

import (
	"fmt"

	"jisc/internal/core"
	"jisc/internal/durable"
	"jisc/internal/engine"
	"jisc/internal/enginetest"
	"jisc/internal/metrics"
	"jisc/internal/migrate"
	"jisc/internal/plan"
	"jisc/internal/runtime"
	"jisc/internal/storage"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// Mismatch describes one differential divergence: which engine, how
// many events had been fed when the comparison failed, and the
// multiset/counter difference.
type Mismatch struct {
	Scenario Scenario
	Engine   string
	Batch    int
	Detail   string
}

// Repro is the one-line reproduction command for the scenario's seed.
// Generate and Run are deterministic, so the seed reproduces both the
// failure and — after the harness shrinks — the same minimal
// scenario.
func (m *Mismatch) Repro() string {
	return fmt.Sprintf("go test ./internal/sim -run 'TestSim$' -sim.seed=%d", m.Scenario.Seed)
}

func (m *Mismatch) String() string {
	return fmt.Sprintf("%s diverged after %d events:\n%s", m.Engine, m.Batch, m.Detail)
}

// Run executes one scenario under every applicable comparison and
// returns the first divergence, or nil. The single-shard quartet
// (oracle, JISC, Moving State, Parallel Track) always runs; scenarios
// with Shards > 1 additionally compare the sharded runtime against
// per-shard oracles; scenarios with a crash budget additionally run
// crash/recovery equivalence over a fault-injection filesystem;
// scenarios with UseSpill additionally run a budget-governed
// spill-to-disk engine against the oracle; scenarios with UseOverload
// additionally run the event log through an admission controller
// under a logical clock, checked against an independent shed/reject
// model and a drop-aware oracle.
func Run(sc Scenario) *Mismatch {
	if m := runQuartet(sc); m != nil {
		return m
	}
	if sc.UseFeedBatch {
		if m := runBatched(sc); m != nil {
			return m
		}
	}
	if sc.Shards > 1 {
		if m := runSharded(sc); m != nil {
			return m
		}
		if sc.UseFeedBatch {
			if m := runShardedBatched(sc); m != nil {
				return m
			}
		}
	}
	if sc.CrashBudget > 0 {
		if m := runCrash(sc); m != nil {
			return m
		}
	}
	if sc.UseAutopilot {
		if m := runAutopilot(sc); m != nil {
			return m
		}
	}
	if sc.UseSpill {
		if m := runSpill(sc); m != nil {
			return m
		}
	}
	if sc.UseOverload {
		if m := runOverload(sc); m != nil {
			return m
		}
	}
	return nil
}

// runSpill drives a JISC engine whose state is governed by the
// scenario's tiny byte budget — cold buckets spilled to an in-memory
// filesystem and faulted back on demand — through the same
// event/migration interleaving as the quartet, comparing against the
// oracle after every batch. Small segments keep many files live so
// tombstone garbage and compaction get exercised too.
func runSpill(sc Scenario) *Mismatch {
	plans, err := parsePlans(sc)
	if err != nil {
		return harnessErr(sc, 0, err)
	}
	snk := enginetest.NewSink()
	outs := snk.Outs
	e := engine.MustNew(engine.Config{
		Plan:              plans[0],
		WindowSizes:       winMap(sc),
		Strategy:          core.New(),
		Deterministic:     true,
		StateBudget:       sc.SpillBudget,
		SpillFS:           storage.NewMemFS(),
		SpillSegmentBytes: 4 << 10,
		Output:            snk.Output,
	})
	defer e.Close()
	orc := newOracle(sc.Windows)

	compare := func(fed, transitions int) *Mismatch {
		if !multisetsEqual(orc.outs, outs) {
			return &Mismatch{Scenario: sc, Engine: "jisc-spill", Batch: fed,
				Detail: "output multiset diverges from oracle:\n" + diffMultisets(orc.outs, outs)}
		}
		s := e.Metrics()
		if s.Input != uint64(fed) || s.Transitions != uint64(transitions) || s.Output != total(outs) {
			return &Mismatch{Scenario: sc, Engine: "jisc-spill", Batch: fed,
				Detail: fmt.Sprintf("counters diverge: Input=%d (want %d) Transitions=%d (want %d) Output=%d (want %d)",
					s.Input, fed, s.Transitions, transitions, s.Output, total(outs))}
		}
		return nil
	}

	mig, transitions := 0, 0
	for i := 0; i <= len(sc.Events); i++ {
		for mig < len(sc.Migrations) && sc.Migrations[mig].At == i {
			p := plans[1+mig]
			if err := e.Migrate(p); err != nil {
				return harnessErr(sc, i, fmt.Errorf("jisc-spill: migrate to %s: %w", p, err))
			}
			mig++
			transitions++
		}
		if i == len(sc.Events) {
			break
		}
		ev := sc.Events[i]
		e.Feed(ev)
		orc.feed(ev)
		if (i+1)%sc.BatchSize == 0 {
			if m := compare(i+1, transitions); m != nil {
				return m
			}
		}
	}
	return lent(sc, compare(len(sc.Events), transitions), snk)
}

// lent closes a run: m when the run has already diverged, otherwise a
// mismatch for the first sink whose kept clones do not re-read to what
// it read inside the callbacks (the lending rule of engine.Output).
func lent(sc Scenario, m *Mismatch, sinks ...*enginetest.Sink) *Mismatch {
	if m != nil {
		return m
	}
	for _, s := range sinks {
		if err := s.Check(); err != nil {
			return &Mismatch{Scenario: sc, Engine: "output-lending", Batch: len(sc.Events), Detail: err.Error()}
		}
	}
	return nil
}

// harnessErr wraps an unexpected infrastructure error (plan parse,
// migrate failure) as a mismatch so it surfaces with a repro line.
func harnessErr(sc Scenario, batch int, err error) *Mismatch {
	return &Mismatch{Scenario: sc, Engine: "harness", Batch: batch, Detail: err.Error()}
}

func winMap(sc Scenario) map[tuple.StreamID]int {
	m := make(map[tuple.StreamID]int, len(sc.Windows))
	for i, w := range sc.Windows {
		m[tuple.StreamID(i)] = w
	}
	return m
}

// parsePlans returns the initial plan followed by each migration
// target.
func parsePlans(sc Scenario) ([]*plan.Plan, error) {
	ps := make([]*plan.Plan, 0, 1+len(sc.Migrations))
	p, err := plan.Parse(sc.InitPlan)
	if err != nil {
		return nil, fmt.Errorf("sim: initial plan %q: %w", sc.InitPlan, err)
	}
	ps = append(ps, p)
	for _, mg := range sc.Migrations {
		p, err := plan.Parse(mg.Plan)
		if err != nil {
			return nil, fmt.Errorf("sim: migration plan %q: %w", mg.Plan, err)
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// executor adapts each engine under test to the quartet loop.
type executor struct {
	name    string
	feed    func(workload.Event)
	migrate func(*plan.Plan) error
	metrics func() metrics.Snapshot
	sink    *enginetest.Sink
}

func newExecutor(name string) *executor {
	return &executor{name: name, sink: enginetest.NewSink()}
}

// runQuartet drives the three migration strategies and the oracle
// through the same event/migration interleaving, comparing cumulative
// output multisets and STATS counters after every batch.
func runQuartet(sc Scenario) *Mismatch {
	plans, err := parsePlans(sc)
	if err != nil {
		return harnessErr(sc, 0, err)
	}
	wm := winMap(sc)

	var exes []*executor
	mkEngine := func(name string, strat engine.Strategy) {
		ex := newExecutor(name)
		e := engine.MustNew(engine.Config{
			Plan:          plans[0],
			WindowSizes:   wm,
			Strategy:      strat,
			Deterministic: true,
			Output:        ex.sink.Output,
		})
		ex.feed = e.Feed
		ex.migrate = e.Migrate
		ex.metrics = e.Metrics
		exes = append(exes, ex)
	}
	mkEngine("jisc", &core.JISC{FaultSkipEveryNth: sc.FaultSkip})
	mkEngine("moving-state", migrate.MovingState{})
	{
		ex := newExecutor("parallel-track")
		pt := migrate.MustNewParallelTrack(migrate.PTConfig{
			Plan:          plans[0],
			WindowSizes:   wm,
			CheckEvery:    sc.CheckEvery,
			Deterministic: true,
			Output:        ex.sink.Output,
		})
		ex.feed = pt.Feed
		ex.migrate = pt.Migrate
		ex.metrics = pt.Metrics
		exes = append(exes, ex)
	}
	orc := newOracle(sc.Windows)

	compare := func(fed, transitions int) *Mismatch {
		for _, ex := range exes {
			if !multisetsEqual(orc.outs, ex.sink.Outs) {
				return &Mismatch{Scenario: sc, Engine: ex.name, Batch: fed,
					Detail: "output multiset diverges from oracle:\n" + diffMultisets(orc.outs, ex.sink.Outs)}
			}
			s := ex.metrics()
			if s.Input != uint64(fed) || s.Transitions != uint64(transitions) || s.Output != total(ex.sink.Outs) {
				return &Mismatch{Scenario: sc, Engine: ex.name, Batch: fed,
					Detail: fmt.Sprintf("counters diverge: Input=%d (want %d) Transitions=%d (want %d) Output=%d (want %d)",
						s.Input, fed, s.Transitions, transitions, s.Output, total(ex.sink.Outs))}
			}
		}
		return nil
	}

	mig, transitions := 0, 0
	for i := 0; i <= len(sc.Events); i++ {
		for mig < len(sc.Migrations) && sc.Migrations[mig].At == i {
			p := plans[1+mig]
			for _, ex := range exes {
				if err := ex.migrate(p); err != nil {
					return harnessErr(sc, i, fmt.Errorf("%s: migrate to %s: %w", ex.name, p, err))
				}
			}
			mig++
			transitions++
		}
		if i == len(sc.Events) {
			break
		}
		ev := sc.Events[i]
		for _, ex := range exes {
			ex.feed(ev)
		}
		orc.feed(ev)
		if (i+1)%sc.BatchSize == 0 {
			if m := compare(i+1, transitions); m != nil {
				return m
			}
		}
	}
	sinks := make([]*enginetest.Sink, len(exes))
	for i, ex := range exes {
		sinks[i] = ex.sink
	}
	return lent(sc, compare(len(sc.Events), transitions), sinks...)
}

// runSharded drives the sharded runtime (hash-partitioned by join
// key) against one oracle per shard, comparing per-shard output
// multisets at every batch's drain barrier (Flush). Per-stream
// sequence numbers restart per shard, so fingerprints are only
// comparable within a shard — which is exactly the granularity the
// oracle models.
func runSharded(sc Scenario) *Mismatch {
	plans, err := parsePlans(sc)
	if err != nil {
		return harnessErr(sc, 0, err)
	}
	shards := sc.Shards
	sinks := shardSinks(shards)
	oracles := make([]*oracle, shards)
	for i := range oracles {
		oracles[i] = newOracle(sc.Windows)
	}
	rt, err := runtime.New(runtime.Config{
		Engine: engine.Config{
			Plan:          plans[0],
			WindowSizes:   winMap(sc),
			Strategy:      core.New(),
			Deterministic: true,
			Output: func(d engine.Delta) {
				sinks[runtime.ShardOf(d.Tuple.Key, shards)].Output(d)
			},
		},
		Shards: shards,
	})
	if err != nil {
		return harnessErr(sc, 0, err)
	}
	defer rt.Close()

	compare := func(fed, transitions int) *Mismatch {
		if err := rt.Flush(); err != nil {
			return harnessErr(sc, fed, err)
		}
		var want uint64
		for i := range oracles {
			if !multisetsEqual(oracles[i].outs, sinks[i].Outs) {
				return &Mismatch{Scenario: sc, Engine: fmt.Sprintf("sharded/shard-%d", i), Batch: fed,
					Detail: "output multiset diverges from per-shard oracle:\n" + diffMultisets(oracles[i].outs, sinks[i].Outs)}
			}
			want += total(oracles[i].outs)
		}
		s, err := rt.Metrics()
		if err != nil {
			return harnessErr(sc, fed, err)
		}
		if s.Input != uint64(fed) || s.Transitions != uint64(transitions) || s.Output != want {
			return &Mismatch{Scenario: sc, Engine: "sharded", Batch: fed,
				Detail: fmt.Sprintf("counters diverge: Input=%d (want %d) Transitions=%d (want %d) Output=%d (want %d)",
					s.Input, fed, s.Transitions, transitions, s.Output, want)}
		}
		return nil
	}

	mig, transitions := 0, 0
	for i := 0; i <= len(sc.Events); i++ {
		for mig < len(sc.Migrations) && sc.Migrations[mig].At == i {
			if err := rt.Migrate(plans[1+mig]); err != nil {
				return harnessErr(sc, i, err)
			}
			mig++
			transitions++
		}
		if i == len(sc.Events) {
			break
		}
		ev := sc.Events[i]
		if err := rt.Feed(ev); err != nil {
			return harnessErr(sc, i, err)
		}
		oracles[runtime.ShardOf(ev.Key, shards)].feed(ev)
		if (i+1)%sc.BatchSize == 0 {
			if m := compare(i+1, transitions); m != nil {
				return m
			}
		}
	}
	return lent(sc, compare(len(sc.Events), transitions), sinks...)
}

// shardSinks returns one sink per shard: fingerprints are comparable
// only within a shard, so results are sorted by the shard their key
// hashes to.
func shardSinks(shards int) []*enginetest.Sink {
	sinks := make([]*enginetest.Sink, shards)
	for i := range sinks {
		sinks[i] = enginetest.NewSink()
	}
	return sinks
}

// crashOp is one operation of the crash schedule: a plan switch (when
// migrate is non-nil) or an event chunk. Per-event scenarios carry
// one event per op and feed it through Feed (per-event FEED frames);
// UseFeedBatch scenarios carry BatchSize chunks fed through FeedBatch
// (FEEDB frames).
type crashOp struct {
	migrate *plan.Plan
	evs     []workload.Event
	batched bool
}

func applyCrashOp(rt *runtime.Runtime, op crashOp) error {
	if op.migrate != nil {
		return rt.Migrate(op.migrate)
	}
	if op.batched {
		return rt.FeedBatch(op.evs)
	}
	return rt.Feed(op.evs[0])
}

// runCrash checks crash/recovery equivalence: the durable runtime
// (per-shard WAL, FsyncAlways) executes the scenario over a CrashFS
// that cuts writes after CrashBudget bytes; recovery rebuilds it from
// whatever survived and the remainder of the schedule is fed. The
// combined pre-crash + post-recovery output multiset and the final
// counters must match a reference run that never crashed. Acked
// operations form a strict prefix (the CrashFS fails every write
// after the cut, and a failed append is always a torn, unreplayable
// frame), with one genuinely partial case: a Migrate that logged on
// shard 0 but not on later shards. Recovery converges the laggards,
// so the reference treats such a migration as applied; the recovered
// Transitions counter says which case occurred.
func runCrash(sc Scenario) *Mismatch {
	plans, err := parsePlans(sc)
	if err != nil {
		return harnessErr(sc, 0, err)
	}
	ops := make([]crashOp, 0, len(sc.Events)+len(sc.Migrations))
	ckptOp := -1
	ckptPending := false
	var pend []workload.Event
	flushPend := func() {
		if len(pend) == 0 {
			return
		}
		if ckptPending {
			// The checkpoint lands before the chunk whose first event is
			// the draw point; flushPend was forced at the draw, so pend
			// starts there.
			ckptOp = len(ops)
			ckptPending = false
		}
		ops = append(ops, crashOp{evs: pend, batched: sc.UseFeedBatch})
		pend = nil
	}
	mig := 0
	for i := 0; i <= len(sc.Events); i++ {
		for mig < len(sc.Migrations) && sc.Migrations[mig].At == i {
			flushPend()
			ops = append(ops, crashOp{migrate: plans[1+mig]})
			mig++
		}
		if i == len(sc.Events) {
			break
		}
		if sc.CheckpointAt == i+1 {
			flushPend()
			ckptPending = true
		}
		pend = append(pend, sc.Events[i])
		if !sc.UseFeedBatch || len(pend) >= sc.BatchSize {
			flushPend()
		}
	}
	flushPend()

	engCfg := func(snk *enginetest.Sink) engine.Config {
		return engine.Config{
			Plan:          plans[0],
			WindowSizes:   winMap(sc),
			Strategy:      core.New(),
			Deterministic: true,
			Output:        snk.Output,
		}
	}

	inner := storage.NewMemFS()
	cfs := storage.NewCrashFS(inner, sc.CrashBudget)
	dopts := durable.Options{
		Dir:                "sim",
		Fsync:              durable.FsyncAlways,
		CheckpointInterval: -1,
		FS:                 cfs,
	}
	pre, post, ref := enginetest.NewSink(), enginetest.NewSink(), enginetest.NewSink()
	rt1, err := runtime.New(runtime.Config{Engine: engCfg(pre), Shards: sc.Shards, Durability: dopts})
	if err != nil {
		return harnessErr(sc, 0, fmt.Errorf("durable runtime: %w", err))
	}
	failed := -1
	for i, op := range ops {
		if i == ckptOp {
			rt1.CheckpointNow() //nolint:errcheck // a checkpoint crash is a valid draw; the next op observes it
		}
		if err := applyCrashOp(rt1, op); err != nil {
			failed = i
			break
		}
	}
	// Drain: after Close, preOuts holds exactly the outputs of every
	// acked operation (plus, for a batched op that failed mid-scatter,
	// the sub-batches delivered before the failing shard).
	rt1.Close()

	acked := ops
	if failed >= 0 {
		acked = ops[:failed]
	}
	ackedEvents, ackedMigs := 0, 0
	for _, op := range acked {
		if op.migrate != nil {
			ackedMigs++
		} else {
			ackedEvents += len(op.evs)
		}
	}

	// Reboot from what landed on the inner filesystem.
	ropts := dopts
	ropts.FS = inner
	rt2, err := runtime.New(runtime.Config{Engine: engCfg(post), Shards: sc.Shards, Durability: ropts})
	if err != nil {
		return &Mismatch{Scenario: sc, Engine: "recovery", Batch: ackedEvents,
			Detail: fmt.Sprintf("recovery failed: %v", err)}
	}
	defer rt2.Close()
	recSnap, err := rt2.Metrics()
	if err != nil {
		return harnessErr(sc, ackedEvents, err)
	}

	// A Migrate that crashed mid-fan-out logged on shard 0 first;
	// recovery converged the laggards, so it counts as applied.
	absorbed := failed >= 0 && ops[failed].migrate != nil && recSnap.Transitions > uint64(ackedMigs)

	rtRef, err := runtime.New(runtime.Config{Engine: engCfg(ref), Shards: sc.Shards})
	if err != nil {
		return harnessErr(sc, 0, err)
	}
	defer rtRef.Close()
	for _, op := range acked {
		if err := applyCrashOp(rtRef, op); err != nil {
			return harnessErr(sc, ackedEvents, err)
		}
	}
	if absorbed {
		if err := rtRef.Migrate(ops[failed].migrate); err != nil {
			return harnessErr(sc, ackedEvents, err)
		}
		ackedMigs++
	}
	// A batched op that failed mid-scatter delivered whole sub-batches
	// to shards below the failing one (FeedBatch scatters in ascending
	// shard order and a failed WAL append is a torn, unreplayable
	// frame, so a shard's sub-batch is all-or-nothing). The recovered
	// Input says how far the scatter got; the reference absorbs exactly
	// that sub-batch prefix. Any other excess is a durability bug.
	if extra := int(recSnap.Input) - ackedEvents; extra != 0 {
		if failed < 0 || ops[failed].migrate != nil || extra < 0 {
			return &Mismatch{Scenario: sc, Engine: "recovery", Batch: ackedEvents,
				Detail: fmt.Sprintf("recovered Input=%d, want %d: replay does not match the acked prefix", recSnap.Input, ackedEvents)}
		}
		subs := make([][]workload.Event, sc.Shards)
		for _, ev := range ops[failed].evs {
			i := runtime.ShardOf(ev.Key, sc.Shards)
			subs[i] = append(subs[i], ev)
		}
		cum, matched := 0, false
		for i := 0; i < sc.Shards && !matched; i++ {
			if len(subs[i]) == 0 {
				continue
			}
			for _, ev := range subs[i] {
				if err := rtRef.Feed(ev); err != nil {
					return harnessErr(sc, ackedEvents, err)
				}
			}
			cum += len(subs[i])
			matched = cum == extra
		}
		if !matched {
			return &Mismatch{Scenario: sc, Engine: "recovery", Batch: ackedEvents,
				Detail: fmt.Sprintf("recovered Input=%d exceeds the acked prefix by %d, which is not a whole-sub-batch prefix of the failed batch (sub-batch sizes of op %d in shard order)", recSnap.Input, extra, failed)}
		}
	}
	if err := rtRef.Flush(); err != nil {
		return harnessErr(sc, ackedEvents, err)
	}
	refMid, err := rtRef.Metrics()
	if err != nil {
		return harnessErr(sc, ackedEvents, err)
	}
	if recSnap.Input != refMid.Input || recSnap.Output != refMid.Output || recSnap.Transitions != refMid.Transitions {
		return &Mismatch{Scenario: sc, Engine: "recovery", Batch: ackedEvents,
			Detail: fmt.Sprintf("recovered counters diverge from reference at crash point: Input=%d (want %d) Output=%d (want %d) Transitions=%d (want %d)",
				recSnap.Input, refMid.Input, recSnap.Output, refMid.Output, recSnap.Transitions, refMid.Transitions)}
	}

	// Feed the rest of the schedule — retrying the failed operation
	// unless recovery absorbed it — to both runtimes.
	var rest []crashOp
	if failed >= 0 {
		rest = ops[failed:]
		if absorbed {
			rest = ops[failed+1:]
		}
	}
	for _, op := range rest {
		if err := applyCrashOp(rt2, op); err != nil {
			return harnessErr(sc, ackedEvents, fmt.Errorf("post-recovery %v: %w", op, err))
		}
		if err := applyCrashOp(rtRef, op); err != nil {
			return harnessErr(sc, ackedEvents, err)
		}
	}
	if err := rt2.Flush(); err != nil {
		return harnessErr(sc, len(sc.Events), err)
	}
	if err := rtRef.Flush(); err != nil {
		return harnessErr(sc, len(sc.Events), err)
	}
	finalRec, err := rt2.Metrics()
	if err != nil {
		return harnessErr(sc, len(sc.Events), err)
	}
	finalRef, err := rtRef.Metrics()
	if err != nil {
		return harnessErr(sc, len(sc.Events), err)
	}
	if finalRec.Input != finalRef.Input || finalRec.Output != finalRef.Output || finalRec.Transitions != finalRef.Transitions {
		return &Mismatch{Scenario: sc, Engine: "recovery", Batch: len(sc.Events),
			Detail: fmt.Sprintf("final counters diverge: Input=%d (want %d) Output=%d (want %d) Transitions=%d (want %d)",
				finalRec.Input, finalRef.Input, finalRec.Output, finalRef.Output, finalRec.Transitions, finalRef.Transitions)}
	}
	union := map[string]int{}
	for k, c := range pre.Outs {
		union[k] += c
	}
	for k, c := range post.Outs {
		union[k] += c
	}
	if !multisetsEqual(ref.Outs, union) {
		return &Mismatch{Scenario: sc, Engine: "recovery", Batch: len(sc.Events),
			Detail: "pre-crash + post-recovery output multiset diverges from uninterrupted reference:\n" + diffMultisets(ref.Outs, union)}
	}
	return lent(sc, nil, pre, post, ref)
}
