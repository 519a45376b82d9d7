package adaptive

import (
	"math"
	"sort"

	"jisc/internal/engine"
	"jisc/internal/obs"
	"jisc/internal/plan"
	"jisc/internal/tuple"
)

// The advisor's two guards against thrashing on noisy estimates.
const (
	minImprovement = 0.2 // relative cost cut a proposal must promise, so near-ties never propose
	decay          = 0.5 // weight of a new selectivity sample, so one noisy window moves an estimate only halfway
)

// advisor is the controller's statistics collector: it watches
// per-operator selectivities in a running engine, estimates the cost of
// alternative left-deep orders, and proposes a transition when the
// current plan has drifted far enough from the best one. Its minimum
// improvement is the triggering side's share of the thrashing
// avoidance of §5.1.2 (the controller paces what it accepts); JISC's
// lazy migration handles it on the execution side.
type advisor struct {
	// cfg is the controller's: MinProbes gates an estimate, Tracer and
	// Query label the proposals.
	cfg *Config
	// sel holds the smoothed matches-per-probe estimate per stream.
	sel map[tuple.StreamID]float64
	// lastProbes/lastMatches are the previous cumulative counters, so
	// observations diff against them.
	lastProbes  map[tuple.StreamID]uint64
	lastMatches map[tuple.StreamID]uint64
}

func newAdvisor(cfg *Config) *advisor {
	return &advisor{
		cfg:         cfg,
		sel:         make(map[tuple.StreamID]float64),
		lastProbes:  make(map[tuple.StreamID]uint64),
		lastMatches: make(map[tuple.StreamID]uint64),
	}
}

// observeScanStats folds one cumulative per-stream counter reading —
// an engine's ScanStats, or runtime.ScanStats' cross-shard sums — into
// the estimates. Summed counters inherit observeSample's reset
// handling: a plan transition zeroes every shard's scan counters, the
// sums drop, and the advisor rebaselines.
func (a *advisor) observeScanStats(stats []engine.ScanStats) {
	for _, s := range stats {
		a.observeSample(s.Stream, s.Probes, s.Matches)
	}
}

// observeSample folds one cumulative (probes, matches) reading for a
// stream's scan state into the estimate. A reading below the previous one
// means the counters were reset — the engine rebuilds its operator
// tree (fresh Nodes, zeroed counters) at every plan transition — so
// the advisor rebaselines instead of folding in a huge bogus delta.
func (a *advisor) observeSample(id tuple.StreamID, probes, matches uint64) {
	lp, lm := a.lastProbes[id], a.lastMatches[id]
	a.lastProbes[id], a.lastMatches[id] = probes, matches
	if probes < lp || matches < lm || probes-lp < a.cfg.MinProbes {
		return
	}
	sample := float64(matches-lm) / float64(probes-lp)
	if old, ok := a.sel[id]; ok {
		a.sel[id] = old*(1-decay) + sample*decay
	} else {
		a.sel[id] = sample
	}
}

// costOf estimates the per-input-tuple processing cost of a left-deep
// order under the selectivity map: the sum of expected intermediate
// cardinalities Σ_{k≥2} Π_{i≤k} sel_i over the order's prefixes — the
// partial results materialized at each join level.
func costOf(order []tuple.StreamID, sel map[tuple.StreamID]float64) float64 {
	cost := 0.0
	card := selOf(sel, order[0])
	for _, id := range order[1:] {
		card *= selOf(sel, id)
		cost += card
	}
	return cost
}

// selOf is a stream's selectivity estimate in sel; a stream without
// one counts as selectivity 1.
func selOf(sel map[tuple.StreamID]float64, id tuple.StreamID) float64 {
	if s, ok := sel[id]; ok {
		return s
	}
	return 1
}

// bestOrder returns the left-deep order minimizing costOf: ascending
// selectivity. That is optimal by an exchange argument: swapping two
// adjacent streams at positions k, k+1 (k ≥ 1) changes only the k-th
// prefix product, by a positive multiple of sel_i − sel_j, and the
// bottom two positions are symmetric (every prefix contains both).
func bestOrder(streams []tuple.StreamID, sel map[tuple.StreamID]float64) []tuple.StreamID {
	order := append([]tuple.StreamID(nil), streams...)
	sort.SliceStable(order, func(i, j int) bool {
		if si, sj := selOf(sel, order[i]), selOf(sel, order[j]); si != sj {
			return si < sj
		}
		return order[i] < order[j]
	})
	return order
}

// propose returns a better plan for the current one, if the estimated
// improvement clears minImprovement. Accepted proposals are traced as
// EvPlanProposed when a Tracer is configured.
func (a *advisor) propose(current *plan.Plan) (*plan.Plan, bool) {
	order, err := current.Order()
	if err != nil {
		return nil, false // only left-deep plans are advised
	}
	best := bestOrder(order, a.sel)
	curCost := costOf(order, a.sel)
	bestCost := costOf(best, a.sel)
	if bestCost >= curCost {
		return nil, false
	}
	improvement := (curCost - bestCost) / curCost
	if math.IsNaN(improvement) || improvement < minImprovement {
		return nil, false
	}
	p, err := plan.LeftDeep(best...)
	if err != nil {
		return nil, false
	}
	if p.Equal(current) {
		return nil, false
	}
	a.cfg.Tracer.Emit(obs.Event{
		Kind: obs.EvPlanProposed, Query: a.cfg.Query,
		Count: uint64(improvement * 100),
		Note:  current.String() + " -> " + p.String(),
	})
	return p, true
}
