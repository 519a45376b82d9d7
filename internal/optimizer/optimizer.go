// Package optimizer provides the optimize-at-runtime trigger policy
// that the paper treats as orthogonal (§2: "we do not address the
// actual conditions that trigger a plan transition"): a statistics
// collector and advisor that watches per-operator selectivities in a
// running engine, estimates the cost of alternative left-deep orders,
// and proposes a transition when the current plan has drifted far
// enough from the best one. A minimum improvement is the advisor's
// share of the thrashing avoidance of §5.1.2 on the triggering side
// (package adaptive paces what it accepts); JISC's lazy migration
// handles it on the execution side.
package optimizer

import (
	"math"
	"sort"

	"jisc/internal/engine"
	"jisc/internal/obs"
	"jisc/internal/plan"
	"jisc/internal/tuple"
)

// Config parameterizes an Advisor.
type Config struct {
	// MinProbes is the number of probes a stream must have received
	// since the last observation before its selectivity estimate is
	// trusted. Default 16.
	MinProbes uint64
	// Tracer, when non-nil, receives an EvPlanProposed event for every
	// accepted proposal. Query labels those events.
	Tracer *obs.Tracer
	Query  string
}

// The advisor's two guards against thrashing on noisy estimates.
const (
	minImprovement = 0.2 // relative cost cut a proposal must promise, so near-ties never propose
	decay          = 0.5 // weight of a new selectivity sample, so one noisy window moves an estimate only halfway
)

// Advisor accumulates selectivity estimates and proposes plans.
type Advisor struct {
	cfg Config
	// sel holds the smoothed matches-per-probe estimate per stream.
	sel map[tuple.StreamID]float64
	// lastProbes/lastMatches are the previous cumulative counters, so
	// observations diff against them.
	lastProbes  map[tuple.StreamID]uint64
	lastMatches map[tuple.StreamID]uint64
}

// New returns an Advisor.
func New(cfg Config) *Advisor {
	if cfg.MinProbes == 0 {
		cfg.MinProbes = 16
	}
	return &Advisor{
		cfg:         cfg,
		sel:         make(map[tuple.StreamID]float64),
		lastProbes:  make(map[tuple.StreamID]uint64),
		lastMatches: make(map[tuple.StreamID]uint64),
	}
}

// ObserveScanStats folds one cumulative per-stream counter reading —
// an engine's ScanStats, or runtime.ScanStats' cross-shard sums — into
// the estimates. Summed counters inherit ObserveSample's reset
// handling: a plan transition zeroes every shard's scan counters, the
// sums drop, and the advisor rebaselines.
func (a *Advisor) ObserveScanStats(stats []engine.ScanStats) {
	for _, s := range stats {
		a.ObserveSample(s.Stream, s.Probes, s.Matches)
	}
}

// ObserveSample folds one cumulative (probes, matches) reading for a
// stream's scan state into the estimate. Exposed for tests and for
// engines not owned by this process. A reading below the previous one
// means the counters were reset — the engine rebuilds its operator
// tree (fresh Nodes, zeroed counters) at every plan transition — so
// the advisor rebaselines instead of folding in a huge bogus delta.
func (a *Advisor) ObserveSample(id tuple.StreamID, probes, matches uint64) {
	if probes < a.lastProbes[id] || matches < a.lastMatches[id] {
		a.lastProbes[id] = probes
		a.lastMatches[id] = matches
		return
	}
	dp := probes - a.lastProbes[id]
	dm := matches - a.lastMatches[id]
	a.lastProbes[id] = probes
	a.lastMatches[id] = matches
	if dp < a.cfg.MinProbes {
		return
	}
	sample := float64(dm) / float64(dp)
	if old, ok := a.sel[id]; ok {
		a.sel[id] = old*(1-decay) + sample*decay
	} else {
		a.sel[id] = sample
	}
}

// Selectivity returns the current matches-per-probe estimate for a
// stream and whether one exists yet.
func (a *Advisor) Selectivity(id tuple.StreamID) (float64, bool) {
	s, ok := a.sel[id]
	return s, ok
}

// CostOf estimates the per-input-tuple processing cost of a left-deep
// order under the selectivity map: the sum of expected intermediate
// cardinalities Σ_{k≥2} Π_{i≤k} sel_i over the order's prefixes — the
// partial results materialized at each join level. Streams without an
// estimate count as selectivity 1.
func CostOf(order []tuple.StreamID, sel map[tuple.StreamID]float64) float64 {
	selOf := func(id tuple.StreamID) float64 {
		if s, ok := sel[id]; ok {
			return s
		}
		return 1
	}
	cost := 0.0
	card := selOf(order[0])
	for _, id := range order[1:] {
		card *= selOf(id)
		cost += card
	}
	return cost
}

// BestOrder returns the left-deep order minimizing CostOf: ascending
// selectivity. That is optimal by an exchange argument: swapping two
// adjacent streams at positions k, k+1 (k ≥ 1) changes only the k-th
// prefix product, by a positive multiple of sel_i − sel_j, and the
// bottom two positions are symmetric (every prefix contains both).
func BestOrder(streams []tuple.StreamID, sel map[tuple.StreamID]float64) []tuple.StreamID {
	order := append([]tuple.StreamID(nil), streams...)
	sort.SliceStable(order, func(i, j int) bool {
		si, ok := sel[order[i]]
		if !ok {
			si = 1
		}
		sj, ok := sel[order[j]]
		if !ok {
			sj = 1
		}
		if si != sj {
			return si < sj
		}
		return order[i] < order[j]
	})
	return order
}

// Propose returns a better plan for the current one, if the estimated
// improvement clears minImprovement. Accepted proposals are traced as
// EvPlanProposed when a Tracer is configured.
func (a *Advisor) Propose(current *plan.Plan) (*plan.Plan, bool) {
	order, err := current.Order()
	if err != nil {
		return nil, false // only left-deep plans are advised
	}
	best := BestOrder(order, a.sel)
	curCost := CostOf(order, a.sel)
	bestCost := CostOf(best, a.sel)
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
