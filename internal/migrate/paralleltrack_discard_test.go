package migrate

import (
	"math/rand"
	"slices"
	"testing"

	"jisc/internal/plan"
	"jisc/internal/testseed"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// TestParallelTrackDiscardBySeqCutoffs: the discard check's seq
// cutoffs against a brute-force oracle that reads each constituent's
// arrival tick off the input log. A stored row of a superseded track is
// old iff its oldest constituent arrived at or before the tick its
// successor was born at. Streams are drawn skewed and at random, so a
// tick is not a function of a seq, and transitions stack, so each
// track has its own cutoffs. The check runs after every tuple: every
// operator's CountOld must equal the oracle's count, a track survives
// a check only while the oracle finds an old row in it, and one it
// drops has none.
func TestParallelTrackDiscardBySeqCutoffs(t *testing.T) {
	rng := rand.New(rand.NewSource(testseed.Seed(t, 48)))
	plans := []*plan.Plan{
		plan.MustLeftDeep(0, 1, 2, 3), plan.MustLeftDeep(3, 2, 1, 0),
		plan.MustLeftDeep(1, 3, 0, 2), plan.MustLeftDeep(2, 0, 3, 1),
	}
	pt := MustNewParallelTrack(PTConfig{Plan: plans[0], WindowSize: 12, CheckEvery: 1})
	// tickOf[stream][seq-1] is the input count at that tuple's arrival;
	// born[tr] is the input count when tr's successor was started.
	var tickOf [4][]uint64
	born := map[*track]uint64{}
	oracle := func(tr *track) (old, rows int) {
		for _, n := range tr.eng.Nodes() {
			if n.St == nil {
				continue
			}
			want := 0
			n.St.Each(func(tup *tuple.Tuple) bool {
				oldest := ^uint64(0)
				for i, id := range tup.Set.Streams() {
					oldest = min(oldest, tickOf[id][tup.Seqs[i]-1])
				}
				if oldest <= born[tr] {
					want++
				}
				rows++
				return true
			})
			if got := n.St.CountOld(tr.cutoff); got != want {
				t.Fatalf("node %v: CountOld = %d, the input log says %d", n.Set, got, want)
			}
			old += want
		}
		return old, rows
	}
	var checked, kept, dropped, mixed int
	for i := 1; i <= 3000; i++ {
		if i%400 == 0 {
			for _, tr := range pt.tracks {
				if tr.cutoff == nil {
					born[tr] = pt.inputs
				}
			}
			if err := pt.Migrate(plans[i/400%len(plans)]); err != nil {
				t.Fatal(err)
			}
		}
		stream := tuple.StreamID(min(3, rng.Intn(6))) // stream 3 is drawn three times as often
		tickOf[stream] = append(tickOf[stream], uint64(i))
		before := slices.Clone(pt.tracks)
		pt.Feed(workload.Event{Stream: stream, Key: tuple.Value(rng.Intn(3))})
		for _, tr := range before[:len(before)-1] {
			old, rows := oracle(tr)
			checked++
			if slices.Contains(pt.tracks, tr) {
				if old == 0 {
					t.Fatalf("tuple %d: a track with no old row survived the check", i)
				}
				kept++
				if old < rows {
					mixed++
				}
			} else {
				if old != 0 {
					t.Fatalf("tuple %d: a track with %d old rows was discarded", i, old)
				}
				dropped++
			}
		}
	}
	if kept == 0 || dropped < 5 || mixed == 0 {
		t.Fatalf("%d checks: %d kept, %d dropped, %d with old and new rows; the check was not exercised", checked, kept, dropped, mixed)
	}
	t.Logf("%d checks: %d kept a track, %d dropped one, %d found old and new rows side by side", checked, kept, dropped, mixed)
}
