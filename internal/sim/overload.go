package sim

// Differential comparison for the admission layer. The overload run
// puts an admission.Controller in front of a JISC engine and drives
// both from a logical clock, so the shed/reject schedule is a pure
// function of the scenario. Three things are checked:
//
//  1. Decision equivalence, bit for bit: an independent arithmetic
//     model of the token bucket and the in-flight budget — same float
//     operations in the same order, plus a shadow TokenBucket fed the
//     identical call sequence — must predict every AdmitBatch verdict
//     and every intermediate token level exactly. The TokenBucket doc
//     comment promises this determinism; here it is held to it.
//  2. Conservation: admitted + shed + rejected tuples equals the
//     tuples offered, the controller's Snapshot counters equal the
//     model's at every chunk boundary, and in-flight bytes return to
//     zero when the simulated queue drains.
//  3. Drop-aware output equivalence: the engine — scheduled
//     migrations included — must match an oracle fed exactly the
//     admitted events. Shed and rejected chunks simply never existed.

import (
	"fmt"
	"math/rand"
	"time"

	"jisc/internal/admission"
	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/enginetest"
	"jisc/internal/runtime"
)

// overloadStep is the logical clock advance per admission observation:
// one chunk offered per simulated millisecond, so OverloadRate is
// calibrated in tuples/sec against a known offered rate.
const overloadStep = int64(time.Millisecond)

// overloadDepth is the simulated queue depth in chunks: a chunk's
// budget reservation is released only after overloadDepth newer chunks
// have been offered, so small OverloadBudget draws actually back up
// and exercise the reject rung, not just the shed rung.
const overloadDepth = 4

// drawOverload fills the overload dimension's parameters from rng.
// The rate brackets the offered rate (BatchSize tuples per logical
// millisecond) from ~0.3× to ~1.7×, so admit and shed interleave; the
// burst spans one to four chunks; the budget spans one to seven
// chunks' cost against a queue depth of overloadDepth, so draws below
// the depth back up into rejects. Generate and the forced sweep share
// this so the forced dimension matches the generator's distribution.
func drawOverload(sc *Scenario, rng *rand.Rand) {
	sc.UseOverload = true
	sc.OverloadRate = (0.3 + 1.4*rng.Float64()) * float64(sc.BatchSize) * 1000
	sc.OverloadBurst = float64(sc.BatchSize) * (1 + 3*rng.Float64())
	sc.OverloadBudget = int64(sc.BatchSize) * runtime.EventBytes * int64(1+rng.Intn(7))
}

// bucketModel is the independent re-implementation of the TokenBucket
// arithmetic: identical float operations in identical order, so with
// the same observation timestamps its trajectory must equal the real
// bucket's bit for bit — any drift is a mismatch, not a tolerance.
type bucketModel struct {
	rate, burst, tokens float64
	last                int64
}

func (m *bucketModel) take(n float64, ns int64) bool {
	if elapsed := ns - m.last; elapsed > 0 {
		m.tokens += float64(elapsed) / 1e9 * m.rate
		if m.tokens > m.burst {
			m.tokens = m.burst
		}
		m.last = ns
	}
	if m.tokens < n {
		return false
	}
	m.tokens -= n
	return true
}

// runOverload is the dispatch wrapper; the forced sweep uses
// runOverloadCount to prove the shed and reject rungs actually fire.
func runOverload(sc Scenario) *Mismatch {
	m, _, _ := runOverloadCount(sc)
	return m
}

// runOverloadCount executes the overload comparison and returns the
// shed and rejected tuple totals alongside any mismatch.
func runOverloadCount(sc Scenario) (*Mismatch, uint64, uint64) {
	plans, err := parsePlans(sc)
	if err != nil {
		return harnessErr(sc, 0, err), 0, 0
	}
	// The logical clock: a fixed epoch advanced explicitly before each
	// admission observation. Injected into the controller, so its
	// refill arithmetic sees exactly the model's timestamps.
	clock := int64(1_000_000_000)
	now := func() time.Time { return time.Unix(0, clock) }

	burst := sc.OverloadBurst
	if burst == 0 {
		// Mirror admission.New's default so the model stays aligned
		// even if a hand-built scenario leaves Burst zero.
		burst = sc.OverloadRate
		if burst < 1 {
			burst = 1
		}
	}
	ctrl, err := admission.New(admission.Config{
		Rate:          sc.OverloadRate,
		Burst:         sc.OverloadBurst,
		InflightBytes: sc.OverloadBudget,
		Now:           now,
	})
	if err != nil {
		return harnessErr(sc, 0, err), 0, 0
	}
	model := &bucketModel{rate: sc.OverloadRate, burst: burst, tokens: burst, last: clock}
	shadow := admission.NewTokenBucket(sc.OverloadRate, burst, now())

	snk := enginetest.NewSink()
	outs := snk.Outs
	e := engine.MustNew(engine.Config{
		Plan:          plans[0],
		WindowSizes:   winMap(sc),
		Strategy:      core.New(),
		Deterministic: true,
		Output:        snk.Output,
	})
	defer e.Close()
	orc := newOracle(sc.Windows)

	var admitted, shedT, rejT, rejB int
	var inflight int64
	var fifo []int64
	mig, transitions := 0, 0

	for start := 0; start < len(sc.Events); start += sc.BatchSize {
		end := start + sc.BatchSize
		if end > len(sc.Events) {
			end = len(sc.Events)
		}
		// The oracle is plan-independent, so applying pending switches
		// at the chunk boundary (rather than mid-chunk) cannot change
		// what the output must be — only the Transitions counter cares.
		for mig < len(sc.Migrations) && sc.Migrations[mig].At <= start {
			if err := e.Migrate(plans[1+mig]); err != nil {
				return harnessErr(sc, start, fmt.Errorf("overload: migrate to %s: %w", plans[1+mig], err)), 0, 0
			}
			mig++
			transitions++
		}

		chunk := sc.Events[start:end]
		n := len(chunk)
		cost := int64(n) * runtime.EventBytes
		clock += overloadStep

		// Model first (pure arithmetic), then the real controller, then
		// the comparison. The shadow bucket pins the trajectory claim on
		// the actual TokenBucket implementation, not just on AdmitBatch's
		// observable verdicts.
		taken := model.take(float64(n), clock)
		if got := shadow.Take(float64(n), now()); got != taken {
			return &Mismatch{Scenario: sc, Engine: "overload", Batch: start,
				Detail: fmt.Sprintf("shadow bucket verdict %v, model %v at chunk [%d,%d)", got, taken, start, end)}, uint64(shedT), uint64(rejT)
		}
		if got, want := shadow.Tokens(), model.tokens; got != want {
			return &Mismatch{Scenario: sc, Engine: "overload", Batch: start,
				Detail: fmt.Sprintf("token trajectory diverges at chunk [%d,%d): bucket %v, model %v", start, end, got, want)}, uint64(shedT), uint64(rejT)
		}
		want := admission.Admit
		switch {
		case !taken:
			want = admission.Shed
		case sc.OverloadBudget > 0 && inflight+cost > sc.OverloadBudget:
			// AdmitBatch runs rate before budget, so a budget reject has
			// already consumed the chunk's tokens — the model did too.
			want = admission.Reject
		}
		got, _ := ctrl.AdmitBatch(n, cost)
		if got != want {
			return &Mismatch{Scenario: sc, Engine: "overload", Batch: start,
				Detail: fmt.Sprintf("admission decision diverges at chunk [%d,%d): controller %v, model %v (tokens=%v inflight=%d cost=%d)",
					start, end, got, want, model.tokens, inflight, cost)}, uint64(shedT), uint64(rejT)
		}

		switch want {
		case admission.Admit:
			admitted += n
			inflight += cost
			fifo = append(fifo, cost)
			for _, ev := range chunk {
				e.Feed(ev)
				orc.feed(ev)
			}
		case admission.Shed:
			shedT += n
		case admission.Reject:
			rejT += n
			rejB++
		}
		// Simulated queue drain: the oldest reservation is processed —
		// released — once overloadDepth newer chunks sit behind it.
		for len(fifo) > overloadDepth {
			ctrl.Release(fifo[0])
			inflight -= fifo[0]
			fifo = fifo[1:]
		}

		st := ctrl.Snapshot()
		if st.ShedTuples != uint64(shedT) || st.RejectedTuples != uint64(rejT) ||
			st.RejectedBatches != uint64(rejB) || st.InflightBytes != inflight {
			return &Mismatch{Scenario: sc, Engine: "overload", Batch: start,
				Detail: fmt.Sprintf("controller counters diverge from model at chunk [%d,%d): shed=%d (want %d) rejected=%d (want %d) rejectedBatches=%d (want %d) inflight=%d (want %d)",
					start, end, st.ShedTuples, shedT, st.RejectedTuples, rejT, st.RejectedBatches, rejB, st.InflightBytes, inflight)}, uint64(shedT), uint64(rejT)
		}
	}
	for mig < len(sc.Migrations) {
		if err := e.Migrate(plans[1+mig]); err != nil {
			return harnessErr(sc, len(sc.Events), fmt.Errorf("overload: migrate to %s: %w", plans[1+mig], err)), uint64(shedT), uint64(rejT)
		}
		mig++
		transitions++
	}
	// Drain the simulated queue; every reserved byte must come back.
	for _, c := range fifo {
		ctrl.Release(c)
		inflight -= c
	}
	if got := ctrl.Inflight(); got != 0 || inflight != 0 {
		return &Mismatch{Scenario: sc, Engine: "overload", Batch: len(sc.Events),
			Detail: fmt.Sprintf("in-flight bytes did not return to zero: controller %d, model %d", got, inflight)}, uint64(shedT), uint64(rejT)
	}

	// Conservation: every offered tuple in exactly one bin.
	if admitted+shedT+rejT != len(sc.Events) {
		return &Mismatch{Scenario: sc, Engine: "overload", Batch: len(sc.Events),
			Detail: fmt.Sprintf("conservation broken: admitted %d + shed %d + rejected %d != offered %d",
				admitted, shedT, rejT, len(sc.Events))}, uint64(shedT), uint64(rejT)
	}

	// Drop-aware output equivalence: the oracle saw exactly the
	// admitted events, so the multisets must match exactly.
	if !multisetsEqual(orc.outs, outs) {
		return &Mismatch{Scenario: sc, Engine: "overload", Batch: len(sc.Events),
			Detail: "output multiset diverges from drop-aware oracle:\n" + diffMultisets(orc.outs, outs)}, uint64(shedT), uint64(rejT)
	}
	s := e.Metrics()
	if s.Input != uint64(admitted) || s.Transitions != uint64(transitions) || s.Output != total(outs) {
		return &Mismatch{Scenario: sc, Engine: "overload", Batch: len(sc.Events),
			Detail: fmt.Sprintf("counters diverge: Input=%d (want %d) Transitions=%d (want %d) Output=%d (want %d)",
				s.Input, admitted, s.Transitions, transitions, s.Output, total(outs))}, uint64(shedT), uint64(rejT)
	}
	return lent(sc, nil, snk), uint64(shedT), uint64(rejT)
}
