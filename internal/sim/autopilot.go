package sim

import (
	"fmt"
	"time"

	"jisc/internal/adaptive"
	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/enginetest"
)

// runAutopilot drives a JISC engine whose plan is chosen by a
// single-stepped adaptive.Controller — not (only) by the scenario's
// migration schedule — against the plan-independent oracle. The
// controller runs in its deterministic mode: no goroutine, one Step on
// a logical clock after every comparison batch, regression guard
// disabled (the engine runs without obs instrumentation, and the sim
// must not depend on wall-clock latency). Whatever plans the
// controller installs, the output multiset must match the oracle and
// the Transitions counter must equal scheduled + autopilot migrations.
func runAutopilot(sc Scenario) *Mismatch {
	m, _ := runAutopilotCount(sc)
	return m
}

// runAutopilotCount is runAutopilot, also reporting how many plans the
// controller installed (for coverage assertions in the forced sweep).
func runAutopilotCount(sc Scenario) (*Mismatch, uint64) {
	plans, err := parsePlans(sc)
	if err != nil {
		return harnessErr(sc, 0, err), 0
	}
	snk := enginetest.NewSink()
	outs := snk.Outs
	e := engine.MustNew(engine.Config{
		Plan:          plans[0],
		WindowSizes:   winMap(sc),
		Strategy:      core.New(),
		Deterministic: true,
		Output:        snk.Output,
	})
	ctl := adaptive.MustNew(adaptive.SingleEngine{E: e}, adaptive.Config{
		Confirm:          2,
		Cooldown:         2 * time.Second,
		MinProbes:        4,
		RegressionFactor: -1,
	})
	orc := newOracle(sc.Windows)

	compare := func(fed, scheduled int) *Mismatch {
		if !multisetsEqual(orc.outs, outs) {
			return &Mismatch{Scenario: sc, Engine: "autopilot", Batch: fed,
				Detail: "output multiset diverges from oracle:\n" + diffMultisets(orc.outs, outs)}
		}
		s := e.Metrics()
		wantTrans := uint64(scheduled) + ctl.Migrations()
		if s.Input != uint64(fed) || s.Transitions != wantTrans || s.Output != total(outs) {
			return &Mismatch{Scenario: sc, Engine: "autopilot", Batch: fed,
				Detail: fmt.Sprintf("counters diverge: Input=%d (want %d) Transitions=%d (want %d scheduled + %d autopilot) Output=%d (want %d)",
					s.Input, fed, s.Transitions, scheduled, ctl.Migrations(), s.Output, total(outs))}
		}
		return nil
	}

	clock := time.Unix(0, 0)
	mig, scheduled := 0, 0
	for i := 0; i <= len(sc.Events); i++ {
		for mig < len(sc.Migrations) && sc.Migrations[mig].At == i {
			if err := e.Migrate(plans[1+mig]); err != nil {
				return harnessErr(sc, i, err), ctl.Migrations()
			}
			mig++
			scheduled++
		}
		if i == len(sc.Events) {
			break
		}
		e.Feed(sc.Events[i])
		orc.feed(sc.Events[i])
		if (i+1)%sc.BatchSize == 0 {
			// One decision tick per batch, a logical second apart so the
			// controller's cooldown gates ticks, not wall time.
			clock = clock.Add(time.Second)
			ctl.Step(clock)
			if m := compare(i+1, scheduled); m != nil {
				return m, ctl.Migrations()
			}
		}
	}
	return lent(sc, compare(len(sc.Events), scheduled), snk), ctl.Migrations()
}
