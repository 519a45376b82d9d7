package engine

import (
	"fmt"
	"time"

	"jisc/internal/obs"
	"jisc/internal/plan"
)

// Migrate implements Executor: transition to newPlan per §4.1 —
// rebuild the operator tree re-attaching surviving states, discard dead
// states, then let the strategy prepare the rest (eagerly or lazily).
// The buffer-clearing phase is the caller's: the runtime's shard queue
// runs Migrate after every tuple received before it.
func (e *Engine) Migrate(newPlan *plan.Plan) error {
	if newPlan.Streams != e.plan.Streams {
		return fmt.Errorf("engine: new plan covers %v, old covers %v", newPlan.Streams, e.plan.Streams)
	}
	if e.cfg.Kind == SetDiff {
		if !newPlan.Root.IsLeftDeep() {
			return fmt.Errorf("engine: set-difference pipelines must be left-deep, got %s", newPlan)
		}
		// Reordering inners is a plan change; replacing the outer
		// changes the query itself (A−B is not B−A).
		oldOrder, _ := e.plan.Order()
		newOrder, _ := newPlan.Order()
		if oldOrder[0] != newOrder[0] {
			return fmt.Errorf("engine: set-difference outer stream must stay %d, got %d", oldOrder[0], newOrder[0])
		}
	}
	if err := e.validateKinds(newPlan); err != nil {
		return err
	}
	if tr, ok := e.strategy.(TransitionRejector); ok && tr.RejectsTransitions() {
		return fmt.Errorf("engine: %s strategy does not support plan transitions", e.strategy.Name())
	}
	var start time.Time
	if e.obs != nil {
		start = e.now()
	}
	defer e.publish()
	e.met.Transitions++
	oldPlan := e.plan.String()
	e.install(newPlan, false)
	if err := e.strategy.OnTransition(e); err != nil {
		return err
	}
	if e.obs == nil {
		return nil
	}
	// The Migrate duration is the halt an eager strategy pays
	// (OnTransition); under JISC it stays near zero — the latency trade
	// the paper's Figures 7/8 are about.
	dur := e.Since(start)
	e.obs.Migrate.Record(dur)
	tracer := e.obs.Tracer
	if tracer == nil {
		return nil
	}
	// One plan-installed event carrying the Definition 1 classification
	// of the new plan's join states, then one event per state.
	var complete, incomplete uint64
	var stateEvents []obs.Event
	for _, n := range e.Nodes() {
		if n.IsLeaf() {
			continue
		}
		kind := obs.EvStateIncomplete
		if childComplete(n) {
			complete++
			kind = obs.EvStateComplete
		} else {
			incomplete++
		}
		stateEvents = append(stateEvents, obs.Event{
			Kind: kind, Query: e.obs.Query, Shard: e.obs.Shard,
			Tick: e.tick, Note: n.Set.String(),
		})
	}
	tracer.Emit(obs.Event{
		Kind: obs.EvPlanInstalled, Query: e.obs.Query, Shard: e.obs.Shard,
		Tick: e.tick, Count: incomplete, Extra: complete,
		Dur: dur, Note: oldPlan + " -> " + newPlan.String(),
	})
	for _, se := range stateEvents {
		tracer.Emit(se)
	}
	return nil
}

// TransitionRejector marks strategies that refuse plan transitions;
// the engine then rejects Migrate before touching any state.
type TransitionRejector interface {
	RejectsTransitions() bool
}
