package engine_test

import (
	"bytes"
	"testing"

	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/tuple"
)

// TestRestoreReadsParentShapedCheckpoint: a checkpoint that still
// carries the per-stream last-arrival maps (and the transition tick
// they were compared with) restores — gob skips the fields engineSnap
// no longer names, snapVersion stays 3 — and, taken mid-migration with
// states incomplete and keys attempted, resumes to the completions and
// results of an uninterrupted run: the attempted sets it also carries
// are the whole of Definition 2.
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
	if wm.Completions == 0 || len(got) != len(want) {
		t.Fatalf("%d completions; %d distinct results resumed, %d uninterrupted", wm.Completions, len(got), len(want))
	}
	for fp, n := range want {
		if got[fp] != n {
			t.Fatalf("result %s: %d resumed, %d uninterrupted", fp, got[fp], n)
		}
	}
}
