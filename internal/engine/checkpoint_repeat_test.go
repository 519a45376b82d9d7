package engine_test

import (
	"bytes"
	"testing"
	"time"

	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/workload"
)

// TestCheckpointBytesRepeat: two engines fed the same input, with the
// same migration mid-stream, write the same checkpoint byte for byte —
// taken while the new plan's states are still incomplete, so the
// attempted sets and the armed counters' pending keys are in it too.
// Nothing the checkpoint carries may follow Go map order.
func TestCheckpointBytesRepeat(t *testing.T) {
	const migrateAt, ckptAt = 600, 700
	evs := uniformEvents(1200, 4, 40, 11)
	epoch := time.Unix(0, 0)
	checkpoint := func() []byte {
		e := engine.MustNew(engine.Config{
			Plan: plan.MustLeftDeep(0, 1, 2, 3), WindowSize: 60, Strategy: core.New(),
			Now: func() time.Time { return epoch },
		})
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
		return buf.Bytes()
	}
	first := checkpoint()
	for run := 1; run < 5; run++ {
		if got := checkpoint(); !bytes.Equal(got, first) {
			t.Fatalf("run %d: checkpoint of %d bytes differs from the first run's %d", run, len(got), len(first))
		}
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
