package runtime

import (
	"errors"
	"fmt"
	"sort"
	"syscall"
	"testing"
	"time"

	"jisc/internal/core"
	"jisc/internal/durable"
	"jisc/internal/engine"
	"jisc/internal/metrics"
	"jisc/internal/plan"
	"jisc/internal/storage"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

func durWorkload(n int) []workload.Event {
	evs := make([]workload.Event, 0, 3*n)
	for k := 0; k < n; k++ {
		for s := 0; s < 3; s++ {
			evs = append(evs, workload.Event{Stream: tuple.StreamID(s), Key: tuple.Value(k % 16)})
		}
	}
	return evs
}

func durConfig(shards int, dir string, out engine.Output) Config {
	return Config{
		Engine: engine.Config{
			Plan:       plan.MustLeftDeep(0, 1, 2),
			WindowSize: 1000,
			Strategy:   core.New(),
			Output:     out,
		},
		Shards: shards,
		Durability: durable.Options{
			Dir:   dir,
			Fsync: durable.FsyncAlways,
			// Deterministic tests drive checkpoints explicitly.
			CheckpointInterval: -1,
		},
	}
}

func durDelta(d engine.Delta) string {
	return fmt.Sprintf("%v %d %s", d.Retraction, d.Tuple.Key, d.Tuple.Fingerprint())
}

// runReference runs the workload durability-off and returns the sorted
// output multiset, final counters, and final plan.
func runReference(t *testing.T, shards int, evs []workload.Event, migrateAt int, p2 *plan.Plan) ([]string, map[string]uint64, string) {
	t.Helper()
	var out []string
	cfg := durConfig(shards, "", func(d engine.Delta) { out = append(out, durDelta(d)) })
	cfg.Durability = durable.Options{}
	rt := MustNew(cfg)
	defer rt.Close()
	for i, ev := range evs {
		if i == migrateAt {
			if err := rt.Migrate(p2); err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.Feed(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Flush(); err != nil {
		t.Fatal(err)
	}
	m, err := rt.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	p, err := rt.Plan()
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out, counterMapOf(m), p.String()
}

// counterMapOf flattens the counters of a snapshot into named values,
// so a mismatch prints which counter moved.
func counterMapOf(m metrics.Snapshot) map[string]uint64 {
	return map[string]uint64{
		"input": m.Input, "output": m.Output,
		"probes": m.Probes, "inserts": m.Inserts,
		"completions": m.Completions, "completed_entries": m.CompletedEntries,
		"evictions":   m.Evictions,
		"transitions": m.Transitions,
	}
}

func sameCounters(a, b map[string]uint64) bool {
	for k, v := range b {
		if a[k] != v {
			return false
		}
	}
	return true
}

// TestDurableRecoveryEquivalence is the subsystem's contract, end to
// end at the runtime layer: kill the runtime at assorted points of a
// workload with a mid-stream migration (including immediately after the
// MIGRATE fan-out), recover from disk, finish the workload, and require
// the combined output multiset, the merged counters, and the plan to
// match an uninterrupted durability-off run exactly.
func TestDurableRecoveryEquivalence(t *testing.T) {
	const keys = 12
	evs := durWorkload(keys)
	p2 := plan.MustLeftDeep(2, 0, 1)
	migrateAt := len(evs) / 2

	for _, shards := range []int{1, 2} {
		refOut, refMet, refPlan := runReference(t, shards, evs, migrateAt, p2)
		cuts := []int{0, 1, migrateAt - 1, migrateAt, migrateAt + 1, migrateAt + 3, len(evs) - 1, len(evs)}
		for _, cut := range cuts {
			for _, ckpt := range []bool{false, true} {
				t.Run(fmt.Sprintf("shards=%d/cut=%d/ckpt=%v", shards, cut, ckpt), func(t *testing.T) {
					dir := t.TempDir()

					// Phase 1: live durable run up to the crash point.
					var liveOut []string
					rt := MustNew(durConfig(shards, dir, func(d engine.Delta) { liveOut = append(liveOut, durDelta(d)) }))
					for i := 0; i < cut; i++ {
						if i == migrateAt {
							if err := rt.Migrate(p2); err != nil {
								t.Fatal(err)
							}
						}
						if err := rt.Feed(evs[i]); err != nil {
							t.Fatal(err)
						}
					}
					if ckpt && cut > 0 {
						if err := rt.CheckpointNow(); err != nil {
							t.Fatal(err)
						}
					}
					if err := rt.Flush(); err != nil {
						t.Fatal(err)
					}
					// Close under FsyncAlways leaves crash-equivalent disk
					// state: no final checkpoint, no state outside the WAL.
					rt.Close()

					// Phase 2: recover and finish the workload.
					var postOut []string
					rt2 := MustNew(durConfig(shards, dir, func(d engine.Delta) { postOut = append(postOut, durDelta(d)) }))
					defer rt2.Close()
					if len(postOut) != 0 {
						t.Fatalf("recovery re-emitted %d results", len(postOut))
					}
					for i := cut; i < len(evs); i++ {
						if i == migrateAt {
							if err := rt2.Migrate(p2); err != nil {
								t.Fatal(err)
							}
						}
						if err := rt2.Feed(evs[i]); err != nil {
							t.Fatal(err)
						}
					}
					if err := rt2.Flush(); err != nil {
						t.Fatal(err)
					}

					got := append(append([]string(nil), liveOut...), postOut...)
					sort.Strings(got)
					if len(got) != len(refOut) {
						t.Fatalf("outputs: got %d, want %d", len(got), len(refOut))
					}
					for i := range refOut {
						if got[i] != refOut[i] {
							t.Fatalf("output %d = %q, want %q", i, got[i], refOut[i])
						}
					}
					m, err := rt2.Metrics()
					if err != nil {
						t.Fatal(err)
					}
					if gm := counterMapOf(m); !sameCounters(gm, refMet) {
						t.Fatalf("counters diverged:\n got %v\nwant %v", gm, refMet)
					}
					p, err := rt2.Plan()
					if err != nil {
						t.Fatal(err)
					}
					if p.String() != refPlan {
						t.Fatalf("plan = %s, want %s", p, refPlan)
					}
					if cut > 0 && !ckpt {
						if rt2.DurableStats().RecoveredEvents == 0 {
							t.Fatal("recovery replayed nothing despite a non-empty WAL")
						}
					}
				})
			}
		}
	}
}

// A crash after some shards migrated but before the fan-out finished
// must not leave the runtime split-brained: recovery converges every
// shard onto shard 0's plan.
func TestDurableRecoveryConvergesPartialMigration(t *testing.T) {
	dir := t.TempDir()
	p2 := plan.MustLeftDeep(2, 0, 1)
	rt := MustNew(durConfig(2, dir, nil))
	for _, ev := range durWorkload(8) {
		if err := rt.Feed(ev); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate dying mid-fan-out: shard 0 logs and applies the MIGRATE,
	// shard 1 never hears about it.
	if err := rt.shards[0].migrate(p2); err != nil {
		t.Fatal(err)
	}
	if err := rt.Flush(); err != nil {
		t.Fatal(err)
	}
	rt.Close()

	rt2 := MustNew(durConfig(2, dir, nil))
	defer rt2.Close()
	for i := 0; i < rt2.Shards(); i++ {
		if p := shardPlan(t, rt2, i); p.String() != p2.String() {
			t.Fatalf("shard %d on plan %s after recovery, want %s", i, p, p2)
		}
	}
}

// CheckpointNow must bound the log: segments fully covered by the
// checkpoint are deleted, and a recovery afterwards starts from the
// checkpoint rather than replaying history.
func TestDurableCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	cfg := durConfig(2, dir, nil)
	cfg.Durability.SegmentBytes = 256 // force rotations
	rt := MustNew(cfg)
	for _, ev := range durWorkload(64) {
		if err := rt.Feed(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Flush(); err != nil {
		t.Fatal(err)
	}
	before := rt.WALSegments()
	if before <= 2 {
		t.Fatalf("only %d segments before checkpoint; the test needs rotations", before)
	}
	if err := rt.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	ds := rt.DurableStats()
	if ds.Checkpoints != 2 {
		t.Fatalf("Checkpoints = %d, want one per shard", ds.Checkpoints)
	}
	if ds.SegmentsRemoved == 0 {
		t.Fatal("checkpoint deleted no WAL segments")
	}
	if after := rt.WALSegments(); after != 2 {
		t.Fatalf("%d segments after checkpoint, want the two active ones", after)
	}
	rt.Close()

	rt2 := MustNew(durConfig(2, dir, nil))
	defer rt2.Close()
	if replayed := rt2.DurableStats().RecoveredEvents; replayed != 0 {
		t.Fatalf("recovery replayed %d events past a covering checkpoint", replayed)
	}
	m, err := rt2.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Input != 3*64 {
		t.Fatalf("restored Input = %d, want %d", m.Input, 3*64)
	}
}

// The background checkpoint loop runs without explicit calls.
func TestDurableBackgroundCheckpointLoop(t *testing.T) {
	dir := t.TempDir()
	cfg := durConfig(1, dir, nil)
	cfg.Durability.CheckpointInterval = 5 * time.Millisecond
	rt := MustNew(cfg)
	defer rt.Close()
	for _, ev := range durWorkload(16) {
		if err := rt.Feed(ev); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for rt.DurableStats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background loop wrote no checkpoint")
		}
		time.Sleep(time.Millisecond)
	}
}

// A shard whose log failed an fsync refuses every later batch routed to
// it, so nothing is acknowledged behind the failed record, while the
// other shard keeps ingesting and Flush and Metrics still answer.
func TestDurableShardFailStop(t *testing.T) {
	cfg := durConfig(2, t.TempDir(), nil)
	cfg.Durability.FS = &storage.FaultFS{FS: storage.OS(), FailSync: 2}
	rt := MustNew(cfg)
	defer rt.Close()
	var on [2][]workload.Event // a batch of one key per shard
	for k := tuple.Value(0); on[0] == nil || on[1] == nil; k++ {
		if i := ShardOf(k, 2); on[i] == nil {
			on[i] = []workload.Event{{Stream: 0, Key: k}, {Stream: 1, Key: k}}
		}
	}
	if err := rt.FeedBatch(on[0]); err != nil {
		t.Fatal(err)
	}
	if err := rt.FeedBatch(on[0]); !errors.Is(err, syscall.EIO) {
		t.Fatalf("batch whose fsync failed = %v, want EIO", err)
	}
	for i := 0; i < 3; i++ {
		if err := rt.FeedBatch(on[0]); !errors.Is(err, syscall.EIO) {
			t.Fatalf("batch %d after the failed fsync = %v, want the failed fsync's EIO", i+1, err)
		}
	}
	if err := rt.FeedBatch(on[1]); err != nil {
		t.Fatalf("the other shard refused a batch: %v", err)
	}
	if err := rt.Flush(); err != nil {
		t.Fatal(err)
	}
	m, err := rt.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Input != 4 {
		t.Fatalf("input = %d, want 4: the first batch on each shard", m.Input)
	}
}
