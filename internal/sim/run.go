package sim

import (
	"errors"
	"fmt"
	"maps"
	"strings"
	"sync"
	"time"

	"jisc/internal/adaptive"
	"jisc/internal/admission"
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

// Mismatch describes one differential divergence: which subject, how
// many events had been fed when the comparison failed, and the
// multiset/counter difference.
type Mismatch struct {
	Scenario Scenario
	Engine   string
	Batch    int
	Detail   string
}

// Repro is the one-line reproduction command for the scenario's seed,
// naming the sweep that forces the scenario's forced layer on again.
// Generate and Run are deterministic, so the seed reproduces both the
// failure and — after the harness shrinks — the same minimal
// scenario.
func (m *Mismatch) Repro() string {
	return fmt.Sprintf("go test ./internal/sim -run '%s$' -sim.seed=%d", sweepName(m.Scenario.Forced), m.Scenario.Seed)
}

// sweepName is the test that runs scenarios with the named layer
// forced on; TestSim forces none.
func sweepName(forced string) string {
	if forced == "" {
		return "TestSim"
	}
	return "TestSim" + strings.ToUpper(forced[:1]) + forced[1:] + "Equivalence"
}

func (m *Mismatch) String() string {
	return fmt.Sprintf("%s diverged after %d events:\n%s", m.Engine, m.Batch, m.Detail)
}

// Acted tallies what the layers of one run did, indexed by the act
// constants. A layer that is on and never acts covers nothing; the
// forced sweeps require each layer's tallies to be non-zero.
type Acted [numActs]uint64

const (
	actOffShard           = iota // tuples routed to a shard other than 0
	actScatter                   // FeedBatch calls that touched two or more shards
	actCrash                     // crash cuts that fired
	actCheckpointRecovery        // reboots that started from a checkpoint
	actInstall                   // plans the autopilot installed
	actSpill                     // buckets spilled
	actFault                     // buckets faulted back
	actShed                      // tuples the rate limiter shed
	actReject                    // tuples the in-flight budget rejected
	numActs
)

var actNames = [numActs]string{
	"tuples routed off shard 0", "multi-shard scatters", "crash cuts", "checkpoint recoveries",
	"autopilot installs", "spills", "faults", "shed tuples", "rejected tuples",
}

// overloadStep is the logical clock advance per batch: one batch
// offered per simulated millisecond, so OverloadRate is calibrated in
// tuples/sec against a known offered rate.
const overloadStep = int64(time.Millisecond)

// Run executes one scenario and returns the first divergence, or nil.
func Run(sc Scenario) *Mismatch {
	_, m := run(sc)
	return m
}

// run is the one executor. It walks sc.Events once, cutting the log
// at batch boundaries, at scheduled migrations and at the checkpoint,
// and hands each piece to every subject: the bare strategy engines,
// held to one oracle, and the runtime composed from the scenario's
// layers, held to one oracle per shard. compare runs after every
// batch.
func run(sc Scenario) (Acted, *Mismatch) {
	x, err := newExec(sc)
	if err != nil {
		return Acted{}, &Mismatch{Scenario: sc, Engine: "harness", Detail: err.Error()}
	}
	m := x.drive()
	x.shutdown()
	return x.acted, m
}

func (x *exec) drive() *Mismatch {
	sc := x.sc
	mig := 0
	for i := 0; ; {
		for ; mig < len(sc.Migrations) && sc.Migrations[mig].At <= i; mig++ {
			if m := x.migrate(i, x.plans[1+mig]); m != nil {
				return m
			}
		}
		if i == len(sc.Events) {
			return x.finish()
		}
		if i == sc.CheckpointAt-1 && sc.CrashBudget > 0 {
			if m := x.checkpoint(i); m != nil {
				return m
			}
		}
		end := min(len(sc.Events), (i/sc.BatchSize+1)*sc.BatchSize)
		if mig < len(sc.Migrations) {
			end = min(end, sc.Migrations[mig].At)
		}
		if sc.CheckpointAt-1 > i {
			end = min(end, sc.CheckpointAt-1)
		}
		if m := x.feed(i, sc.Events[i:end]); m != nil {
			return m
		}
		if i = end; i%sc.BatchSize == 0 {
			if m := x.compare(i); m != nil {
				return m
			}
		}
	}
}

// bareEngine is a strategy executor driven directly, without the
// runtime around it: *engine.Engine, *migrate.ParallelTrack, *batched.
type bareEngine interface {
	Feed(workload.Event)
	Migrate(*plan.Plan) error
	Metrics() metrics.Snapshot
}

// subject is one bare executor and the sink its results go to.
type subject struct {
	name string
	bareEngine
	sink *enginetest.Sink
}

// exec is the state of one run.
type exec struct {
	sc    Scenario
	plans []*plan.Plan // the initial plan, then each migration target
	acted Acted

	bare []subject
	orc  []*oracle // the one oracle every bare subject is held to

	// The runtime under test, one sink and one oracle per shard. input,
	// and scheduled switches (the bare subjects apply the same ones) plus
	// autopilot installs, are what its counters must read.
	rt        *runtime.Runtime
	sinks     []*enginetest.Sink
	shardOrc  []*oracle
	input     uint64
	scheduled uint64
	installs  uint64

	// Crash layer: cfs wraps inner until the cut has fired and the
	// runtime has been rebooted on inner, nil afterwards.
	inner storage.FS
	cfs   *storage.CrashFS

	// Autopilot layer: one controller per boot, stepped on a logical
	// clock, a second per drained batch, so its cooldown gates ticks, not
	// wall time.
	ctl       *adaptive.Controller
	autoClock time.Time

	// Overload layer. The controller sits in the runtime's Config; the
	// model and the shadow bucket are fed the same observations and must
	// predict it exactly. While held, the shard workers wait on gate at
	// batchEnd — after a message's results, before its reservation is
	// released — so between drains the in-flight bytes are exactly the
	// admitted ones.
	adm      *admission.Controller
	model    bucketModel
	shadow   *admission.TokenBucket
	clock    int64 // logical unix nanos
	gate     sync.WaitGroup
	held     bool
	batches  int   // compared since the last drain
	inflight int64 // model of adm.Inflight
	// Tuple counts: offered to the runtime, shed and rejected by the
	// model, and admitted but lost to the crash.
	offered, shed, rejected, rejectedOps, lost uint64
}

// hold makes the shard workers wait at batchEnd, if the overload layer
// is on; release lets them go. Both are called with the workers idle or
// already waiting, which is what lets one WaitGroup be the gate.
func (x *exec) hold() {
	if x.adm != nil && !x.held {
		x.gate.Add(1)
		x.held = true
	}
}

func (x *exec) release() {
	if x.held {
		x.gate.Done()
		x.held = false
	}
}

func newExec(sc Scenario) (*exec, error) {
	x := &exec{sc: sc, orc: []*oracle{newOracle(sc.Windows)}, clock: 1_000_000_000}
	for _, mg := range append([]Migration{{Plan: sc.InitPlan}}, sc.Migrations...) {
		p, err := plan.Parse(mg.Plan)
		if err != nil {
			return nil, fmt.Errorf("sim: plan %q: %w", mg.Plan, err)
		}
		x.plans = append(x.plans, p)
	}

	add := func(name string, mk func(engine.Output) bareEngine) {
		sink := enginetest.NewSink()
		x.bare = append(x.bare, subject{name, mk(sink.Output), sink})
	}
	add("jisc", func(out engine.Output) bareEngine {
		cfg := x.engineConfig(&core.JISC{FaultSkipEveryNth: sc.FaultSkip}, out)
		if sc.UseFeedBatch {
			return newBatched(cfg)
		}
		return engine.MustNew(cfg)
	})
	add("moving-state", func(out engine.Output) bareEngine {
		return engine.MustNew(x.engineConfig(migrate.MovingState{}, out))
	})
	add("parallel-track", func(out engine.Output) bareEngine {
		return migrate.MustNewParallelTrack(migrate.PTConfig{
			Plan:        x.plans[0],
			WindowSizes: x.windows(),
			CheckEvery:  sc.CheckEvery,
			Output:      out,
		})
	})

	for i := 0; i < sc.Shards; i++ {
		x.sinks = append(x.sinks, enginetest.NewSink())
		x.shardOrc = append(x.shardOrc, newOracle(sc.Windows))
	}
	if sc.UseOverload {
		now := func() time.Time { return time.Unix(0, x.clock) }
		x.adm = admission.MustNew(admission.Config{
			Rate:          sc.OverloadRate,
			Burst:         sc.OverloadBurst,
			InflightBytes: sc.OverloadBudget,
			Now:           now,
		})
		x.model = bucketModel{rate: sc.OverloadRate, burst: sc.OverloadBurst, tokens: sc.OverloadBurst, last: x.clock}
		x.shadow = admission.NewTokenBucket(sc.OverloadRate, sc.OverloadBurst, now())
	}
	var fs storage.FS
	if sc.CrashBudget > 0 {
		x.inner = storage.NewMemFS()
		x.cfs = storage.NewCrashFS(x.inner, sc.CrashBudget)
		fs = x.cfs
	}
	return x, x.boot(fs)
}

func (x *exec) windows() map[tuple.StreamID]int {
	m := make(map[tuple.StreamID]int, len(x.sc.Windows))
	for i, w := range x.sc.Windows {
		m[tuple.StreamID(i)] = w
	}
	return m
}

func (x *exec) engineConfig(strat engine.Strategy, out engine.Output) engine.Config {
	return engine.Config{
		Plan:        x.plans[0],
		WindowSizes: x.windows(),
		Strategy:    strat,
		Output:      out,
	}
}

// batched is a bare engine fed one FeedBatch per batch. The driver cuts
// a batch at its scheduled switches; batched puts it together again —
// Metrics, which every comparison starts with, feeds what has collected
// — and installs each switch mid-batch, from the AfterFeed hook, after
// exactly the tuples that preceded it: the hook-per-tuple contract
// FeedBatch guarantees.
type batched struct {
	e    *engine.Engine
	pend []workload.Event
	due  map[int][]*plan.Plan // tuples of pend fed → switches to install then
	fed  int
}

func newBatched(cfg engine.Config) *batched {
	b := &batched{due: map[int][]*plan.Plan{}}
	cfg.AfterFeed = func(uint64) {
		b.fed++
		for _, p := range b.due[b.fed] {
			if err := b.e.Migrate(p); err != nil {
				// A bug: the per-event subjects have taken p by now.
				panic(fmt.Sprintf("sim: mid-batch migrate to %s: %v", p, err))
			}
		}
	}
	b.e = engine.MustNew(cfg)
	return b
}

func (b *batched) Feed(ev workload.Event) { b.pend = append(b.pend, ev) }

func (b *batched) Migrate(p *plan.Plan) error {
	if len(b.pend) == 0 {
		return b.e.Migrate(p)
	}
	b.due[len(b.pend)] = append(b.due[len(b.pend)], p)
	return nil
}

func (b *batched) Metrics() metrics.Snapshot {
	b.fed = 0
	b.e.FeedBatch(b.pend)
	b.pend = b.pend[:0]
	clear(b.due)
	return b.e.Metrics()
}

// boot builds the runtime under test from every layer the scenario
// drew, durable on fs when fs is non-nil: once over the crashing
// filesystem, and once more on what survived it.
func (x *exec) boot(fs storage.FS) error {
	sc := x.sc
	cfg := runtime.Config{
		Engine:    x.engineConfig(core.New(), nil),
		Shards:    sc.Shards,
		Admission: x.adm,
		ShardOutput: func(i int) (engine.Sink, func()) {
			return x.sinks[i].Rows, x.gate.Wait
		},
	}
	// Negative keeps a GOMEMLIMIT in the environment from turning
	// spilling on in scenarios that did not draw it.
	cfg.Engine.StateBudget = -1
	if sc.UseSpill {
		// The runtime splits its budget evenly; SpillBudget is per shard.
		// Small segments keep many files live, so tombstone garbage and
		// compaction get exercised too.
		cfg.Engine.StateBudget = sc.SpillBudget * int64(sc.Shards)
		cfg.Engine.SpillFS = storage.NewMemFS()
		cfg.Engine.SpillSegmentBytes = 4 << 10
	}
	if fs != nil {
		cfg.Durability = durable.Options{Dir: "sim", Fsync: durable.FsyncAlways, CheckpointInterval: -1, FS: fs}
	}
	rt, err := runtime.New(cfg)
	if err != nil {
		return err
	}
	x.rt = rt
	if sc.UseAutopilot {
		// The regression guard stays silent: the runtime runs without
		// obs instrumentation, so its feed histogram is empty and the sim
		// never depends on wall-clock latency.
		x.ctl = adaptive.MustNew(rt, adaptive.Config{Cooldown: 2 * time.Second, MinProbes: 4})
	}
	return nil
}

// shutdown stops the runtime, letting its queues drain first, and
// folds what its layers did into the tallies. Idempotent.
func (x *exec) shutdown() {
	if x.rt == nil {
		return
	}
	x.release()
	x.rt.Close()
	if st, ok := x.rt.SpillStats(); ok {
		x.acted[actSpill] += st.Spills
		x.acted[actFault] += st.Faults
	}
	x.acted[actInstall], x.acted[actShed], x.acted[actReject] = x.installs, x.shed, x.rejected
	x.rt, x.inflight, x.batches = nil, 0, 0
}

// feed hands one piece of the event log to every subject. The runtime
// takes it as one FeedBatch or tuple by tuple, as the scenario drew.
func (x *exec) feed(at int, evs []workload.Event) *Mismatch {
	for _, ev := range evs {
		x.orc[0].feed(ev)
		for _, s := range x.bare {
			s.Feed(ev)
		}
	}
	if at%x.sc.BatchSize == 0 {
		x.clock += overloadStep
	}
	if x.sc.UseFeedBatch {
		return x.offer(at, evs)
	}
	for j := range evs {
		if m := x.offer(at+j, evs[j:j+1]); m != nil {
			return m
		}
	}
	return nil
}

// offer puts one admission unit — a FeedBatch or a single Feed — to
// the runtime. The admission model predicts the verdict first; only
// what it admits reaches the shard oracles. An admitted unit that fails
// is the crash: the runtime is rebooted and, as an at-least-once
// producer would, the whole unit is offered again.
func (x *exec) offer(at int, evs []workload.Event) *Mismatch {
	want, m := x.predict(at, len(evs))
	if m != nil {
		return m
	}
	x.hold()
	var err error
	if x.sc.UseFeedBatch {
		err = x.rt.FeedBatch(evs)
	} else {
		err = x.rt.Feed(evs[0])
	}
	crashed := err != nil && !errors.Is(err, admission.ErrBusy)
	if m := x.admission(at, want, err, crashed); m != nil {
		return m
	}
	switch {
	case want != admission.Admit:
		return nil // shed or rejected: the tuples never existed
	case crashed:
		x.lost += uint64(len(evs))
		if _, m := x.reboot(at, err, evs, false); m != nil {
			return m
		}
		return x.offer(at, evs)
	}
	x.admit(evs)
	return nil
}

// admit feeds admitted tuples to their shards' oracles.
func (x *exec) admit(evs []workload.Event) {
	first, spans := -1, false
	for _, ev := range evs {
		i := runtime.ShardOf(ev.Key, len(x.shardOrc))
		x.shardOrc[i].feed(ev)
		if i > 0 {
			x.acted[actOffShard]++
		}
		if first < 0 {
			first = i
		}
		spans = spans || i != first
	}
	x.input += uint64(len(evs))
	if spans {
		x.acted[actScatter]++
	}
}

// predict advances the admission model by one unit of n tuples and
// returns the verdict the controller must reach: identical float
// arithmetic on the token level (the shadow TokenBucket pins the
// trajectory claim on the real implementation, not just on the
// controller's observable verdicts), then the budget. Rate runs before
// budget, so a budget reject has already consumed the unit's tokens.
func (x *exec) predict(at, n int) (admission.Decision, *Mismatch) {
	if x.adm == nil {
		return admission.Admit, nil
	}
	x.offered += uint64(n)
	taken := x.model.take(float64(n), x.clock)
	if got := x.shadow.Take(float64(n), time.Unix(0, x.clock)); got != taken || x.shadow.Tokens() != x.model.tokens {
		return 0, x.mismatch("admission", at, "token trajectory diverges taking %d: bucket took=%v tokens=%v, model took=%v tokens=%v",
			n, got, x.shadow.Tokens(), taken, x.model.tokens)
	}
	cost := int64(n) * runtime.EventBytes
	switch {
	case !taken:
		x.shed += uint64(n)
		return admission.Shed, nil
	case x.sc.OverloadBudget > 0 && x.inflight+cost > x.sc.OverloadBudget:
		x.rejected += uint64(n)
		x.rejectedOps++
		return admission.Reject, nil
	}
	x.inflight += cost
	return admission.Admit, nil
}

// admission holds the controller to the model after one unit: a BUSY
// error exactly when the model rejected, and every Snapshot counter
// equal to the model's — each verdict moves a different one. The
// workers are held, so the in-flight gauge is exact too, except under a
// crash, which hands back the reservation of what it did not queue.
func (x *exec) admission(at int, want admission.Decision, err error, crashed bool) *Mismatch {
	if x.adm == nil {
		return nil
	}
	st := x.adm.Snapshot()
	if errors.Is(err, admission.ErrBusy) != (want == admission.Reject) ||
		st.ShedTuples != x.shed || st.RejectedTuples != x.rejected || st.RejectedBatches != x.rejectedOps ||
		!crashed && st.InflightBytes != x.inflight {
		return x.mismatch("admission", at, "controller diverges from the model's %v (tokens=%v): err=%v shed=%d (want %d) rejected=%d (want %d) rejectedBatches=%d (want %d) inflight=%d (want %d)",
			want, x.model.tokens, err, st.ShedTuples, x.shed, st.RejectedTuples, x.rejected, st.RejectedBatches, x.rejectedOps, st.InflightBytes, x.inflight)
	}
	return nil
}

// drain opens the gate and waits until every shard has emptied its
// queue: all results are in the sinks and every reserved byte is back.
func (x *exec) drain(at int) *Mismatch {
	x.release()
	x.batches = 0
	if err := x.rt.Flush(); err != nil {
		return x.mismatch("harness", at, "%v", err)
	}
	if got := x.adm.Inflight(); got != 0 {
		return x.mismatch("admission", at, "in-flight bytes did not return to zero after a drain: %d", got)
	}
	x.inflight = 0
	return nil
}

// migrate applies one scheduled switch to every subject.
func (x *exec) migrate(at int, p *plan.Plan) *Mismatch {
	for _, s := range x.bare {
		if err := s.Migrate(p); err != nil {
			return x.mismatch("harness", at, "%s: migrate to %s: %v", s.name, p, err)
		}
	}
	if m := x.drain(at); m != nil {
		return m
	}
	if err := x.rt.Migrate(p); err != nil {
		absorbed, m := x.reboot(at, err, nil, true)
		if m != nil {
			return m
		}
		if !absorbed {
			if err := x.rt.Migrate(p); err != nil {
				return x.mismatch("harness", at, "migrate to %s after recovery: %v", p, err)
			}
		}
	}
	x.scheduled++
	return nil
}

// checkpoint takes the scenario's manual checkpoint. A checkpoint the
// crash cuts short changes nothing recovery may count.
func (x *exec) checkpoint(at int) *Mismatch {
	if m := x.drain(at); m != nil {
		return m
	}
	if err := x.rt.CheckpointNow(); err != nil {
		_, m := x.reboot(at, err, nil, false)
		return m
	}
	return nil
}

// step runs one autopilot decision tick. The controller drops a failed
// install's error, so the crash filesystem is asked instead.
func (x *exec) step(at int) *Mismatch {
	x.autoClock = x.autoClock.Add(time.Second)
	before := x.ctl.Migrations()
	x.ctl.Step(x.autoClock)
	x.installs += x.ctl.Migrations() - before
	if x.cfs == nil || !x.cfs.Crashed() {
		return nil
	}
	absorbed, m := x.reboot(at, nil, nil, true)
	if absorbed {
		x.installs++
	}
	return m
}

// reboot is the crash: the operation that just failed with cause did
// so because the filesystem's write budget ran out. Acked operations
// form a strict prefix — every write after the cut fails, and a failed
// append is a torn, unreplayable frame. The runtime is closed (so the
// sinks hold the results of everything that was queued), reopened on
// what reached the inner filesystem with the same sinks, and its
// recovered counters must be the oracles', with two allowances for the
// operation in flight:
//
//   - a Migrate (transition set) that logged on shard 0 but not on a
//     later shard: recovery converges the laggards, so it counts as
//     applied — absorbed is returned true and the caller does not retry;
//   - a FeedBatch (evs) that died mid-scatter: it scatters in ascending
//     shard order and a shard's sub-batch is one frame, all or nothing,
//     so the recovered Input may exceed the acked count by a whole-
//     sub-batch prefix, which the oracles are then fed.
//
// Any other excess is a durability bug.
func (x *exec) reboot(at int, cause error, evs []workload.Event, transition bool) (absorbed bool, m *Mismatch) {
	if x.cfs == nil || !x.cfs.Crashed() {
		return false, x.mismatch("harness", at, "runtime: %v", cause)
	}
	x.shutdown()
	x.cfs = nil
	x.acted[actCrash]++
	if err := x.boot(x.inner); err != nil {
		return false, x.mismatch("recovery", at, "recovery failed: %v", err)
	}
	rec, err := x.rt.Metrics()
	if err != nil {
		return false, x.mismatch("harness", at, "%v", err)
	}
	if rec.Input > x.rt.DurableStats().RecoveredEvents {
		x.acted[actCheckpointRecovery]++
	}
	wantTransitions := x.scheduled + x.installs
	if transition && rec.Transitions == wantTransitions+1 {
		absorbed = true
		wantTransitions++
	}
	subs := make([][]workload.Event, len(x.shardOrc))
	for _, ev := range evs {
		i := runtime.ShardOf(ev.Key, len(subs))
		subs[i] = append(subs[i], ev)
	}
	for _, sub := range subs {
		n := uint64(len(sub))
		if n == 0 {
			continue
		}
		if x.input+n > rec.Input {
			break
		}
		x.admit(sub)
		x.lost -= n
	}
	if m := x.check("recovery", at, x.shardOrc, x.sinks, rec, x.input, wantTransitions); m != nil {
		m.Detail += "\n(recovered counters against the acked prefix, plus a whole-sub-batch prefix of the failed batch in shard order)"
		return false, m
	}
	return absorbed, nil
}

// compare is the one differential check, run after every batch: each
// bare subject against the oracle, then — unless the overload layer is
// holding the queues this batch — the drained runtime, stepped by its
// autopilot, against the shard oracles.
func (x *exec) compare(at int) *Mismatch {
	for _, s := range x.bare {
		if m := x.check(s.name, at, x.orc, []*enginetest.Sink{s.sink}, s.Metrics(), uint64(at), x.scheduled); m != nil {
			return m
		}
	}
	if x.batches++; x.adm != nil && x.batches < x.sc.OverloadDrainEvery && at < len(x.sc.Events) {
		return nil
	}
	if m := x.drain(at); m != nil {
		return m
	}
	if x.ctl != nil {
		if m := x.step(at); m != nil {
			return m
		}
	}
	s, err := x.rt.Metrics()
	if err != nil {
		return x.mismatch("harness", at, "%v", err)
	}
	return x.check("runtime", at, x.shardOrc, x.sinks, s, x.input, x.scheduled+x.installs)
}

// check holds one subject to its oracles: the output multiset of each
// sink equal to its oracle's, and the STATS-visible counters — Input,
// Transitions, Output — equal to what was fed, switched and emitted.
func (x *exec) check(name string, at int, want []*oracle, got []*enginetest.Sink, s metrics.Snapshot, input, transitions uint64) *Mismatch {
	var output uint64
	for i, o := range want {
		if !maps.Equal(o.outs, got[i].Outs) {
			if len(want) > 1 {
				name = fmt.Sprintf("%s/shard-%d", name, i)
			}
			return x.mismatch(name, at, "output multiset diverges from oracle:\n%s", diffMultisets(o.outs, got[i].Outs))
		}
		output += total(o.outs)
	}
	if s.Input != input || s.Transitions != transitions || s.Output != output {
		return x.mismatch(name, at, "counters diverge: Input=%d (want %d) Transitions=%d (want %d) Output=%d (want %d)",
			s.Input, input, s.Transitions, transitions, s.Output, output)
	}
	return nil
}

// finish closes a run that has not diverged: the last comparison, the
// lending rule of engine.Output on every sink (kept clones must re-read
// to what was read inside the callbacks), and conservation — every
// tuple offered to the runtime is in exactly one of its input, shed,
// rejected, or lost to the crash.
func (x *exec) finish() *Mismatch {
	n := len(x.sc.Events)
	if m := x.compare(n); m != nil {
		return m
	}
	sinks := x.sinks
	for _, s := range x.bare {
		sinks = append(sinks, s.sink)
	}
	for _, s := range sinks {
		if err := s.Check(); err != nil {
			return x.mismatch("output-lending", n, "%v", err)
		}
	}
	if st := x.adm.Snapshot(); x.adm != nil && x.offered != x.input+st.ShedTuples+st.RejectedTuples+x.lost {
		return x.mismatch("admission", n, "conservation broken: input %d + shed %d + rejected %d + lost to the crash %d != offered %d",
			x.input, st.ShedTuples, st.RejectedTuples, x.lost, x.offered)
	}
	return nil
}

// mismatch reports a divergence of the named subject; the name
// "harness" marks an unexpected infrastructure error (a plan that does
// not parse, a migrate the engine refuses), so it too surfaces with a
// repro line.
func (x *exec) mismatch(name string, at int, format string, args ...any) *Mismatch {
	return &Mismatch{Scenario: x.sc, Engine: name, Batch: at, Detail: fmt.Sprintf(format, args...)}
}
