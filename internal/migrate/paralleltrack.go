package migrate

import (
	"fmt"
	"slices"

	"jisc/internal/engine"
	"jisc/internal/metrics"
	"jisc/internal/plan"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// track is one plan instance inside a ParallelTrack executor.
type track struct {
	eng *engine.Engine
	// cutoff holds, by stream, the last seq fed when the next-newer
	// track was born (nil while this track is the newest). An entry is
	// "old" for the discard check when a constituent's seq is at or
	// below its stream's cutoff — its oldest constituent arrived before
	// that birth, since ticks and seqs both rise per stream.
	cutoff []uint64
}

// ParallelTrack implements the Parallel Track Strategy (§3.3): at a
// transition the old plan keeps running with its states while the new
// plan starts with empty states; every subsequent input tuple is
// processed by both. The old plan is discarded once a periodic scan
// finds no pre-transition entries left in its states (window turnover
// guarantees this). Duplicate elimination happens at the root: a
// result whose constituents all arrived after a newer track was born
// is produced by that newer track too, so only the newest capable
// track emits it.
//
// Overlapped transitions stack additional tracks, degrading throughput
// exactly as §3.3 describes.
type ParallelTrack struct {
	tracks []*track // oldest first; the last one is the newest plan

	windowSize  int
	windowSizes map[tuple.StreamID]int
	streams     tuple.StreamSet
	out         engine.Output
	met         metrics.Snapshot
	// dupDropped counts results suppressed by root duplicate
	// elimination.
	dupDropped uint64

	// checkEvery is the input-count period of the old-plan discard
	// scan (§3.3 calls out its cost).
	checkEvery uint64
	inputs     uint64
	seqs       [tuple.MaxStreams]uint64
	// seen holds the provenance fingerprints emitted during the
	// current migration stage, for root duplicate elimination.
	seen map[string]struct{}
}

// PTConfig parameterizes a ParallelTrack executor.
type PTConfig struct {
	// Plan is the initial query plan.
	Plan *plan.Plan
	// WindowSize is the per-stream window size (default 10_000).
	WindowSize int
	// WindowSizes optionally overrides WindowSize per stream, mirroring
	// engine.Config.WindowSizes; every track's engine gets the same map.
	WindowSizes map[tuple.StreamID]int
	// Output receives deduplicated root results; may be nil.
	Output engine.Output
	// CheckEvery is the discard-scan period in input tuples
	// (default 1000).
	CheckEvery int
}

// NewParallelTrack builds the executor on its initial plan.
func NewParallelTrack(cfg PTConfig) (*ParallelTrack, error) {
	if cfg.Plan == nil {
		return nil, fmt.Errorf("paralleltrack: nil plan")
	}
	if cfg.CheckEvery == 0 {
		cfg.CheckEvery = 1000
	}
	if cfg.CheckEvery < 0 {
		return nil, fmt.Errorf("paralleltrack: negative check period")
	}
	pt := &ParallelTrack{
		windowSize:  cfg.WindowSize,
		windowSizes: cfg.WindowSizes,
		streams:     cfg.Plan.Streams,
		out:         cfg.Output,
		checkEvery:  uint64(cfg.CheckEvery),
		seen:        make(map[string]struct{}),
	}
	tr, err := pt.newTrack(cfg.Plan)
	if err != nil {
		return nil, err
	}
	pt.tracks = []*track{tr}
	return pt, nil
}

// MustNewParallelTrack is NewParallelTrack but panics on error.
func MustNewParallelTrack(cfg PTConfig) *ParallelTrack {
	pt, err := NewParallelTrack(cfg)
	if err != nil {
		panic(err)
	}
	return pt
}

func (pt *ParallelTrack) newTrack(p *plan.Plan) (*track, error) {
	tr := &track{}
	eng, err := engine.New(engine.Config{
		Plan:        p,
		WindowSize:  pt.windowSize,
		WindowSizes: pt.windowSizes,
		Strategy:    engine.Static{},
		Output: func(d engine.Delta) {
			pt.emit(tr, d)
		},
	})
	if err != nil {
		return nil, err
	}
	tr.eng = eng
	return tr, nil
}

// Name implements engine.Executor.
func (pt *ParallelTrack) Name() string { return "parallel-track" }

// Tracks returns the number of concurrently running plans (1 in
// steady state).
func (pt *ParallelTrack) Tracks() int { return len(pt.tracks) }

// DupDropped returns how many results root duplicate elimination has
// suppressed.
func (pt *ParallelTrack) DupDropped() uint64 { return pt.dupDropped }

// Metrics implements engine.Executor.
func (pt *ParallelTrack) Metrics() metrics.Snapshot {
	s := pt.met
	// Fold in per-track operator work so probe/insert counts reflect
	// the double processing.
	for _, tr := range pt.tracks {
		es := tr.eng.Metrics()
		s.Probes += es.Probes
		s.Inserts += es.Inserts
		s.Evictions += es.Evictions
	}
	return s
}

// emit performs the root duplicate elimination of §3.3: while several
// tracks run, every result is fingerprinted by its provenance and a
// result already emitted by another track is dropped. The hash
// maintenance is a real per-output cost of the strategy — one of the
// drawbacks the paper calls out. A result's provenance is unique, and
// each track produces a given provenance at most once, so the
// fingerprint check is exact.
func (pt *ParallelTrack) emit(tr *track, d engine.Delta) {
	if len(pt.tracks) > 1 {
		fp := d.Tuple.Fingerprint()
		if _, dup := pt.seen[fp]; dup {
			pt.dupDropped++
			return
		}
		pt.seen[fp] = struct{}{}
	}
	pt.met.Output++
	if pt.out != nil {
		pt.out(d)
	}
}

// Feed implements engine.Executor: every track processes the tuple,
// with identical tuple identity across tracks (FeedStamped).
// Processing beyond the newest track is migration work.
func (pt *ParallelTrack) Feed(ev workload.Event) {
	pt.inputs++
	pt.met.Input++
	seq := pt.seqs[ev.Stream] + 1
	pt.seqs[ev.Stream] = seq
	for i, tr := range pt.tracks {
		tr.eng.FeedStamped(ev, seq, pt.inputs)
		if i < len(pt.tracks)-1 {
			pt.met.MigrationWork++
		}
	}
	if len(pt.tracks) > 1 && pt.inputs%pt.checkEvery == 0 {
		pt.discardCheck()
	}
}

// Migrate implements engine.Executor: start a new empty-state track on
// the new plan; the existing tracks keep running until discarded.
func (pt *ParallelTrack) Migrate(p *plan.Plan) error {
	if p.Streams != pt.streams {
		return fmt.Errorf("paralleltrack: new plan covers %v, old covers %v", p.Streams, pt.streams)
	}
	pt.met.Transitions++
	tr, err := pt.newTrack(p)
	if err != nil {
		return err
	}
	for _, old := range pt.tracks {
		if old.cutoff == nil {
			old.cutoff = slices.Clone(pt.seqs[:])
		}
	}
	pt.tracks = append(pt.tracks, tr)
	return nil
}

// discardCheck is the periodic scan of §3.3: every operator of every
// superseded track checks whether pre-supersession entries remain in
// its state; a track with none left is discarded.
func (pt *ParallelTrack) discardCheck() {
	kept := pt.tracks[:0]
	for i, tr := range pt.tracks {
		if i == len(pt.tracks)-1 {
			kept = append(kept, tr)
			break
		}
		old := 0
		for _, n := range tr.eng.Nodes() {
			if n.St == nil {
				continue
			}
			old += n.St.CountOld(tr.cutoff)
			pt.met.MigrationWork += uint64(n.St.Size()) // scan cost
		}
		if old > 0 {
			kept = append(kept, tr)
		}
	}
	pt.tracks = kept
	if len(pt.tracks) == 1 {
		// Migration stage over: a single plan cannot produce
		// duplicates, so release the fingerprint table.
		pt.seen = make(map[string]struct{})
	}
}

// MigrationActive reports whether superseded tracks are still running.
func (pt *ParallelTrack) MigrationActive() bool { return len(pt.tracks) > 1 }

// StateSizes returns the total stored tuples of each running track —
// the §5 memory picture: during a migration stage the strategy holds
// every track's states at once.
func (pt *ParallelTrack) StateSizes() []int {
	sizes := make([]int, len(pt.tracks))
	for i, tr := range pt.tracks {
		sizes[i] = tr.eng.TotalStateSize()
	}
	return sizes
}

// ParallelTrack satisfies the shared executor contract.
var _ engine.Executor = (*ParallelTrack)(nil)
