package engine_test

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"testing"

	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/enginetest"
	"jisc/internal/plan"
	"jisc/internal/tuple"
)

// TestRestoreReadsParentShapedCheckpoint: a checkpoint that still
// carries the per-stream last-arrival maps (and the transition tick
// they were compared with) restores — gob skips the fields engineSnap
// no longer names, and snapVersion 3's count maps still read — and,
// taken mid-migration with states incomplete and keys attempted,
// resumes to the completions and results of an uninterrupted run: the
// attempted sets it also carries are the whole of Definition 2.
func TestRestoreReadsParentShapedCheckpoint(t *testing.T) {
	const migrateAt, ckptAt = 600, 640
	evs := uniformEvents(1600, 4, 12, 7)
	reversed := plan.MustLeftDeep(3, 2, 1, 0) // worst case: every join state incomplete
	newEngine := func(out map[string]int) engine.Config {
		return engine.Config{
			Plan: plan.MustLeftDeep(0, 1, 2, 3), WindowSize: 40, Strategy: core.New(),
			Output: func(d engine.Delta) { out[d.Tuple.Fingerprint()]++ },
		}
	}

	want := map[string]int{}
	ref := engine.MustNew(newEngine(want))
	defer ref.Close()
	ref.FeedBatch(evs[:migrateAt])
	if err := ref.Migrate(reversed); err != nil {
		t.Fatal(err)
	}
	ref.FeedBatch(evs[migrateAt:])

	got := map[string]int{}
	first := engine.MustNew(newEngine(got))
	defer first.Close()
	first.FeedBatch(evs[:migrateAt])
	if err := first.Migrate(reversed); err != nil {
		t.Fatal(err)
	}
	first.FeedBatch(evs[migrateAt:ckptAt])
	var ckpt bytes.Buffer
	if err := first.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	// What the parent kept beside the attempted sets: per stream, the
	// tick of each key's last arrival.
	lastArrival := map[tuple.StreamID]map[tuple.Value]uint64{}
	for i, ev := range evs[:ckptAt] {
		if lastArrival[ev.Stream] == nil {
			lastArrival[ev.Stream] = map[tuple.Value]uint64{}
		}
		lastArrival[ev.Stream][ev.Key] = uint64(i + 1)
	}
	parentShaped, err := engine.AsParentCheckpoint(ckpt.Bytes(), migrateAt, lastArrival)
	if err != nil {
		t.Fatal(err)
	}
	if len(parentShaped) <= ckpt.Len() {
		t.Fatalf("parent-shaped checkpoint is %d bytes, this build's %d: the maps were not encoded", len(parentShaped), ckpt.Len())
	}

	cfg := newEngine(got)
	cfg.Plan = nil
	resumed, err := engine.Restore(bytes.NewReader(parentShaped), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	incomplete, attempted := 0, 0
	for _, n := range resumed.Nodes() {
		if !n.IsLeaf() && !n.St.Complete() {
			incomplete++
			attempted += len(n.St.AttemptedKeys())
		}
	}
	if incomplete == 0 || attempted == 0 {
		t.Fatalf("restored with %d incomplete states and %d attempted keys; want a checkpoint taken mid-migration", incomplete, attempted)
	}
	resumed.FeedBatch(evs[ckptAt:])

	wm, gm := ref.Metrics(), resumed.Metrics()
	if gm.Completions != wm.Completions || gm.CompletedEntries != wm.CompletedEntries ||
		gm.Output != wm.Output || gm.Probes != wm.Probes || gm.Inserts != wm.Inserts || gm.Evictions != wm.Evictions {
		t.Errorf("counters after resuming:\n got %+v\nwant %+v", gm, wm)
	}
	if d := enginetest.Diff(want, got); wm.Completions == 0 || d != "" {
		t.Fatalf("%d completions; results differ (uninterrupted, resumed):\n%s", wm.Completions, d)
	}
}

// TestRestoreReadsNLListCheckpoint: testdata/snap_v4_nl_lists.gob was
// written by a build that kept nested-loops states as lists — an all-NL
// JISC engine on (1,2,0), migrated to (0,1,2) after uniformEvents(600,
// 3, 12, 11)[:300] and checkpointed two tuples later, with {0,1}
// incomplete. It restores into the nodes' tables and, fed the rest of
// the input, emits what an uninterrupted run does. The theta is an
// equivalence relation, so the composites' keys (which that build chose
// differently) cannot change a match.
func TestRestoreReadsNLListCheckpoint(t *testing.T) {
	const migrateAt, ckptAt = 300, 302
	evs := uniformEvents(600, 3, 12, 11)
	cfg := func(out map[string]int) engine.Config {
		return engine.Config{
			Plan: plan.MustLeftDeep(1, 2, 0), WindowSize: 12, Kind: engine.NLJoin,
			Theta:    func(a, b *tuple.Tuple) bool { return a.Key%4 == b.Key%4 },
			Strategy: core.New(),
			Output:   func(d engine.Delta) { out[d.Tuple.Fingerprint()]++ },
		}
	}

	want := map[string]int{}
	ref := engine.MustNew(cfg(map[string]int{}))
	defer ref.Close()
	ref.FeedBatch(evs[:migrateAt])
	if err := ref.Migrate(plan.MustLeftDeep(0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	ref.FeedBatch(evs[migrateAt:ckptAt])
	ref.SetSink(engine.Output(func(d engine.Delta) { want[d.Tuple.Fingerprint()]++ }).Sink())
	ref.FeedBatch(evs[ckptAt:])

	old, err := os.ReadFile("testdata/snap_v4_nl_lists.gob")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	c := cfg(got)
	c.Plan = nil
	resumed, err := engine.Restore(bytes.NewReader(old), c)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if p := resumed.Plan().String(); p != plan.MustLeftDeep(0, 1, 2).String() {
		t.Fatalf("restored plan %s", p)
	}
	n01, root := resumed.NodeBySet(tuple.NewStreamSet(0, 1)), resumed.Root()
	if n01.St.Complete() || n01.St.Size() == 0 || root.St.Size() == 0 {
		t.Fatalf("restored states: {0,1} %v, root %v; want {0,1} incomplete and both holding rows", n01.St, root.St)
	}
	resumed.FeedBatch(evs[ckptAt:])

	if d := enginetest.Diff(want, got); len(want) == 0 || d != "" {
		t.Fatalf("%d results uninterrupted; results differ (uninterrupted, resumed):\n%s", len(want), d)
	}
	if gm, wm := resumed.Metrics(), ref.Metrics(); gm.Output != wm.Output || gm.Completions != wm.Completions || gm.Completions == 0 {
		t.Fatalf("counters after resuming:\n got %+v\nwant %+v", gm, wm)
	}
}

// TestRestoreReadsOldestCheckpoint: testdata/snap_v4_oldest_rows.gob was
// written by a build whose tuples also carried their oldest
// constituent's tick — a 4-way JISC engine with EmitExpiry on (0,1,2,3),
// window 40, migrated to (3,2,1,0) after uniformEvents(1600, 4, 12,
// 13)[:600] and checkpointed 40 tuples later, so it holds rows of every
// width from one stream to four, and incomplete states. gob skips the
// field; the restored engine, fed the rest, emits and retracts exactly
// what an uninterrupted run does, in the same order.
func TestRestoreReadsOldestCheckpoint(t *testing.T) {
	const migrateAt, ckptAt = 600, 640
	evs := uniformEvents(1600, 4, 12, 13)
	cfg := func(out *[]string) engine.Config {
		return engine.Config{
			Plan: plan.MustLeftDeep(0, 1, 2, 3), WindowSize: 40, Strategy: core.New(), EmitExpiry: true,
			Output: func(d engine.Delta) { *out = append(*out, fmt.Sprint(d.Retraction, d.Tuple.Fingerprint())) },
		}
	}
	var want, got []string
	ref := engine.MustNew(cfg(new([]string)))
	defer ref.Close()
	ref.FeedBatch(evs[:migrateAt])
	if err := ref.Migrate(plan.MustLeftDeep(3, 2, 1, 0)); err != nil {
		t.Fatal(err)
	}
	ref.FeedBatch(evs[migrateAt:ckptAt])
	var ckpt bytes.Buffer
	if err := ref.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	ref.SetSink(cfg(&want).Output.Sink())
	ref.FeedBatch(evs[ckptAt:])

	old, err := os.ReadFile("testdata/snap_v4_oldest_rows.gob")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(old, []byte("Oldest")) || len(old) <= ckpt.Len() {
		t.Fatalf("fixture is %d B, this build's checkpoint %d B: it should carry the Oldest field", len(old), ckpt.Len())
	}
	c := cfg(&got)
	c.Plan = nil
	resumed, err := engine.Restore(bytes.NewReader(old), c)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	incomplete, widest := 0, 0
	for _, n := range resumed.Nodes() {
		if !n.IsLeaf() && !n.St.Complete() {
			incomplete++
		}
		if n.St.Size() > 0 {
			widest = max(widest, n.Set.Count())
		}
	}
	if incomplete == 0 || widest != 4 {
		t.Fatalf("restored %d incomplete states, widest stored rows over %d streams; want a mid-migration checkpoint with a stored root", incomplete, widest)
	}
	resumed.FeedBatch(evs[ckptAt:])
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("resumed run emitted %d deltas, uninterrupted %d, or in another order", len(got), len(want))
	}
	if gm, wm := resumed.Metrics(), ref.Metrics(); gm.Output != wm.Output || gm.Completions != wm.Completions || gm.CompletedEntries != wm.CompletedEntries {
		t.Fatalf("counters after resuming:\n got %+v\nwant %+v", gm, wm)
	}
}
