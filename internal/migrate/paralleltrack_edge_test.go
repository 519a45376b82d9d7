package migrate

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/testseed"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// Parallel Track duplicate-elimination edge cases around the overlap
// window — the interval during which a superseded track and its
// successor both run. These are the known-good baselines the sim
// shrinker relies on when it reduces a divergence involving PT.

// A tuple arriving during the overlap is processed by both tracks. A
// later arrival can then pair with it in both tracks simultaneously —
// the same provenance from two plans — and must be emitted exactly
// once.
func TestParallelTrackOverlapArrivalDedup(t *testing.T) {
	counts := map[string]int{}
	pt := MustNewParallelTrack(PTConfig{
		Plan: plan.MustLeftDeep(0, 1), WindowSize: 10, CheckEvery: 100,
		Output: func(d engine.Delta) { counts[d.Tuple.Fingerprint()]++ },
	})
	pt.Feed(ev(0, 5)) // 0#1, pre-transition: only the old track has it
	if err := pt.Migrate(plan.MustLeftDeep(1, 0)); err != nil {
		t.Fatal(err)
	}
	pt.Feed(ev(1, 5)) // 1#1 arrives during the overlap, lands in BOTH tracks
	// Old track pairs 0#1 with 1#1; the new track has no stream-0
	// tuple, so no duplicate yet.
	if got := pt.DupDropped(); got != 0 {
		t.Fatalf("DupDropped = %d before any duplicate was possible", got)
	}
	pt.Feed(ev(0, 5)) // 0#2: pairs with the overlap tuple 1#1 in BOTH tracks
	want := map[string]int{"0#1|1#1": 1, "0#2|1#1": 1}
	if d := diffFingerprints(want, counts); d != "" {
		t.Fatalf("overlap-arrival output multiset wrong:\n%s", d)
	}
	if got := pt.DupDropped(); got != 1 {
		t.Fatalf("DupDropped = %d, want exactly 1 (the twin of 0#2|1#1)", got)
	}
}

// When the discard check retires the last superseded track, the
// fingerprint table must be released: a single plan cannot produce
// duplicates, and holding the table would leak one entry per output
// for the rest of the query's life.
func TestParallelTrackSeenTableReleasedAfterDiscard(t *testing.T) {
	pt := MustNewParallelTrack(PTConfig{Plan: plan.MustLeftDeep(0, 1), WindowSize: 2, CheckEvery: 1})
	pt.Feed(ev(0, 1))
	pt.Feed(ev(1, 1))
	if err := pt.Migrate(plan.MustLeftDeep(1, 0)); err != nil {
		t.Fatal(err)
	}
	// Turn the windows over so every pre-transition tuple expires from
	// the old track; CheckEvery=1 runs the discard scan on every feed.
	for i := 0; i < 8 && pt.MigrationActive(); i++ {
		pt.Feed(ev(tuple.StreamID(i%2), tuple.Value(10+i)))
	}
	if pt.MigrationActive() {
		t.Fatal("old track never discarded")
	}
	if len(pt.seen) != 0 {
		t.Fatalf("fingerprint table still holds %d entries after the migration stage ended", len(pt.seen))
	}
}

// Three stacked tracks (an overlapped transition) with tuples arriving
// in every overlap interval: the emitted multiset must still equal a
// never-migrated engine's, with every cross-track duplicate dropped.
func TestParallelTrackStackedTracksDifferential(t *testing.T) {
	base := testseed.Seed(t, 1)
	for c := 0; c < 10; c++ {
		seed := base + int64(c)
		rng := rand.New(rand.NewSource(seed))
		plans := []*plan.Plan{
			plan.MustLeftDeep(0, 1, 2),
			plan.MustLeftDeep(2, 0, 1),
			plan.MustLeftDeep(1, 2, 0),
		}
		ptOuts := map[string]int{}
		pt := MustNewParallelTrack(PTConfig{
			Plan: plans[0], WindowSize: 4, CheckEvery: 3,
			Output: func(d engine.Delta) { ptOuts[d.Tuple.Fingerprint()]++ },
		})
		refOuts := map[string]int{}
		ref := engine.MustNew(engine.Config{
			Plan: plans[0], WindowSize: 4, Strategy: engine.Static{},
			Output: func(d engine.Delta) {
				if !d.Retraction {
					refOuts[d.Tuple.Fingerprint()]++
				}
			},
		})
		src := workload.MustNewSource(workload.Config{Streams: 3, Domain: 3, Seed: seed})
		maxTracks := 0
		for i := 0; i < 200; i++ {
			if i == 40 || i == 43 { // second switch lands mid-overlap
				if err := pt.Migrate(plans[(i % len(plans))]); err != nil {
					t.Fatal(err)
				}
			} else if i > 60 && rng.Intn(40) == 0 {
				if err := pt.Migrate(plans[rng.Intn(len(plans))]); err != nil {
					t.Fatal(err)
				}
			}
			if pt.Tracks() > maxTracks {
				maxTracks = pt.Tracks()
			}
			e := src.Next()
			pt.Feed(e)
			ref.Feed(e)
		}
		if maxTracks < 3 {
			t.Fatalf("seed %d: scenario never stacked 3 tracks (max %d)", seed, maxTracks)
		}
		if d := diffFingerprints(refOuts, ptOuts); d != "" {
			t.Fatalf("seed %d: stacked-track PT diverges from never-migrated engine:\n%s", seed, d)
		}
	}
}

// diffFingerprints renders the difference between two output
// multisets; empty when equal.
func diffFingerprints(want, got map[string]int) string {
	keys := map[string]bool{}
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	var lines []string
	for k := range keys {
		if want[k] != got[k] {
			lines = append(lines, fmt.Sprintf("  %s: want %d, got %d", k, want[k], got[k]))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
