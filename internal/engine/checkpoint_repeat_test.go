package engine_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"maps"
	"testing"
	"time"

	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/storage"
	"jisc/internal/workload"
)

// TestCheckpointBytesRepeat: engines fed the same input, with the same
// migration mid-stream, write the same checkpoint byte for byte — taken
// while the new plan's states are still incomplete, so the attempted
// sets and the armed counters' pending keys are in it too. Nothing the
// checkpoint carries may follow Go map order.
//
// The bytes are pinned: their length and SHA-256. The pointer layout (a
// tuple per heap object) and the row layout that followed it wrote
// 14 720 B with SHA-256 32d46b87…; tuples stopped carrying their oldest
// constituent's tick, and without that field a checkpoint is the
// 12 705 B below — the bytes the earlier build writes once only the
// field is dropped from its tuple record. Runs under a state budget,
// which spill and fault buckets all through, must write them too.
// Together these prove that the row layout keeps every state's contents
// and order, and that spilling never changes them.
func TestCheckpointBytesRepeat(t *testing.T) {
	const (
		migrateAt, ckptAt = 600, 700
		wantLen           = 12705
		wantSum           = "e34fab470006445a3077074a5f6d6ee2d7f366d252319bc7835bcc17e9d93bba"
	)
	evs := uniformEvents(1200, 4, 40, 11)
	epoch := time.Unix(0, 0)
	checkpoint := func(budget int64) {
		cfg := engine.Config{
			Plan: plan.MustLeftDeep(0, 1, 2, 3), WindowSize: 60, Strategy: core.New(),
			Now: func() time.Time { return epoch },
		}
		if budget > 0 {
			cfg.StateBudget, cfg.SpillDir, cfg.SpillFS = budget, "spill", storage.NewMemFS()
		}
		e := engine.MustNew(cfg)
		defer e.Close()
		e.FeedBatch(evs[:migrateAt])
		if err := e.Migrate(plan.MustLeftDeep(3, 2, 1, 0)); err != nil {
			t.Fatal(err)
		}
		e.FeedBatch(evs[migrateAt:ckptAt])
		var buf bytes.Buffer
		if err := e.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(buf.Bytes()); buf.Len() != wantLen || hex.EncodeToString(sum[:]) != wantSum {
			t.Fatalf("budget %d: checkpoint is %d B with SHA-256 %x, want %d B with %s", budget, buf.Len(), sum, wantLen, wantSum)
		}
		if st, ok := e.SpillStats(); budget > 0 && (!ok || st.Spills == 0 || st.Faults == 0) {
			t.Fatalf("budget %d: spills %d, faults %d; the run must spill and fault", budget, st.Spills, st.Faults)
		}
	}
	for _, budget := range []int64{0, 0, 0, 0, 0, 4000, 8000, 16000} {
		checkpoint(budget)
	}
}

// TestCheckpointTimeWindowRoundTrip: a time-window engine checkpointed
// mid-window, with the new plan's states still incomplete after a
// migration, restores and resumes to the uninterrupted run's results
// and counters. Streams arrive in random order, so a window entry's
// tick is not a function of its seq: the checkpoint must carry each
// entry's reading for the restored windows to expire what the
// uninterrupted ones do.
func TestCheckpointTimeWindowRoundTrip(t *testing.T) {
	const migrateAt, ckptAt = 600, 640
	evs := workload.MustNewSource(workload.Config{Streams: 4, Domain: 12, Seed: 7}).Take(1600)
	reversed := plan.MustLeftDeep(3, 2, 1, 0) // every join state incomplete
	config := func(out map[string]int) engine.Config {
		return engine.Config{
			Plan: plan.MustLeftDeep(0, 1, 2, 3), TimeSpan: 150, Strategy: core.New(),
			Output: func(d engine.Delta) { out[d.Tuple.Fingerprint()]++ },
		}
	}
	run := func(e *engine.Engine, from, to int) {
		if from <= migrateAt && migrateAt < to {
			e.FeedBatch(evs[from:migrateAt])
			if err := e.Migrate(reversed); err != nil {
				t.Fatal(err)
			}
			from = migrateAt
		}
		e.FeedBatch(evs[from:to])
	}

	want := map[string]int{}
	ref := engine.MustNew(config(want))
	defer ref.Close()
	run(ref, 0, len(evs))

	got := map[string]int{}
	first := engine.MustNew(config(got))
	defer first.Close()
	run(first, 0, ckptAt)
	incomplete := 0
	for _, n := range first.Nodes() {
		if !n.St.Complete() {
			incomplete++
		}
	}
	if incomplete == 0 {
		t.Fatal("every state complete at the checkpoint; the test wants one mid-migration")
	}
	var ckpt bytes.Buffer
	if err := first.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	cfg := config(got)
	cfg.Plan = nil
	resumed, err := engine.Restore(&ckpt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	run(resumed, ckptAt, len(evs))

	if w, g := ref.Metrics(), resumed.Metrics(); g != w || w.Evictions == 0 || w.Completions == 0 {
		t.Fatalf("resumed counters %+v, uninterrupted %+v (want equal, with evictions and completions)", g, w)
	}
	if !maps.Equal(got, want) || len(want) == 0 {
		t.Fatalf("resumed run gave %d distinct results, uninterrupted %d", len(got), len(want))
	}
}

// BenchmarkCheckpoint measures checkpoint serialization throughput of a
// 4-way JISC engine with full windows of 1000.
func BenchmarkCheckpoint(b *testing.B) {
	e := engine.MustNew(engine.Config{
		Plan: plan.MustLeftDeep(0, 1, 2, 3), WindowSize: 1000, Strategy: core.New(),
	})
	defer e.Close()
	src := workload.MustNewSource(workload.Config{Streams: 4, Domain: 500, Seed: 1})
	for i := 0; i < 8000; i++ {
		e.Feed(src.Next())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := e.Checkpoint(&buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

// TestCheckpointDoesNotGrowWithMigrations: a checkpoint carries the
// engine's counters and states, nothing per migration. Two engines fed
// the same 250 tuples, one migrated before each of its first 130 feeds
// and the other before every feed, checkpoint within a few bytes of
// each other. Swapping the bottom two streams keeps every join state,
// so both engines hold the same states, and one last migration of
// both before the checkpoint zeroes the per-node probe counters, which
// a transition rebuilds; what may differ is the varint width of the
// lifetime counters, not a record per migration.
func TestCheckpointDoesNotGrowWithMigrations(t *testing.T) {
	evs := uniformEvents(250, 3, 16, 7)
	plans := []*plan.Plan{plan.MustLeftDeep(0, 1, 2), plan.MustLeftDeep(1, 0, 2)}
	checkpoint := func(migrations int) int {
		e := engine.MustNew(engine.Config{
			Plan: plans[0], WindowSize: 40, Strategy: core.New(),
			Output: func(engine.Delta) {},
		})
		defer e.Close()
		migrate := func(i int) {
			if err := e.Migrate(plans[(i+1)%2]); err != nil {
				t.Fatal(err)
			}
		}
		for i, ev := range evs {
			if i < migrations {
				migrate(i)
			}
			e.Feed(ev)
		}
		migrate(len(evs))
		if got := e.Metrics().Transitions; got != uint64(migrations+1) {
			t.Fatalf("transitions = %d, want %d", got, migrations+1)
		}
		var buf bytes.Buffer
		if err := e.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	some, all := checkpoint(130), checkpoint(250)
	if d := all - some; d < -8 || d > 8 {
		t.Fatalf("checkpoint after 131 migrations is %d B, after 251 it is %d B: %+d B, want within 8", some, all, d)
	}
}
