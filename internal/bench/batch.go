package bench

import (
	"io"
	"os"
	"time"

	"jisc/internal/core"
	"jisc/internal/durable"
	"jisc/internal/engine"
	"jisc/internal/runtime"
	"jisc/internal/server"
	"jisc/internal/workload"
)

// The batch benchmark quantifies the batched-ingest refactor: the same
// tuple sequence pushed through each ingest entry point at several
// batch sizes, so the per-event framing overhead (one channel send,
// one WAL frame, one protocol round trip per tuple) is read directly
// off the batch=1 row. Four modes cover the two hot paths with and
// without durability: "runtime" is the in-process sharded executor
// (Feed vs FeedBatch), "runtime+wal" adds the write-ahead log under
// group commit (one FEEDB frame and one fsync window per batch),
// "tcp" speaks the line protocol over loopback (FEED round trips vs
// pipelined FEEDB lines), and "tcp+wal" combines both. Batch size 1
// always uses the per-event API — it is the pre-refactor baseline,
// not FeedBatch with one-element slices.

// BatchRow is one (mode, batch size) throughput measurement.
type BatchRow struct {
	Mode  string `json:"mode"` // runtime, runtime+wal, tcp, tcp+wal
	Batch int    `json:"batch"`
	// TuplesPerSec is the best-of-reps ingest rate over the full
	// feed+drain cycle (Flush barrier in process, STATS round trip over
	// TCP).
	TuplesPerSec float64 `json:"tuples_per_sec"`
	// VsBatch1 is TuplesPerSec over the same mode's batch=1 rate
	// (the per-event baseline reports 1.0).
	VsBatch1 float64 `json:"vs_batch1"`
}

// BatchReport is the result of one BatchBench run.
type BatchReport struct {
	Tuples int        `json:"tuples"`
	Window int        `json:"window"`
	Shards int        `json:"shards"`
	Rows   []BatchRow `json:"rows"`
}

// BatchBench measures ingest throughput for each mode × batch size.
// Every variant feeds the identical tuple sequence; only the entry
// point and chunking differ. WAL directories live under the system
// temp dir and are removed afterwards.
func BatchBench(cfg Config, batches []int, w io.Writer) (BatchReport, error) {
	if err := cfg.validate(); err != nil {
		return BatchReport{}, err
	}
	const streams = 3
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	evs := cfg.source(streams).Take(cfg.Tuples)
	report := BatchReport{Tuples: cfg.Tuples, Window: cfg.Window, Shards: shards}

	fprintf(w, "Batched ingest throughput, %d tuples, window %d, %d shards, reps %d (best)\n",
		cfg.Tuples, cfg.Window, shards, cfg.reps())
	fprintf(w, "%-12s %-7s %14s %10s\n", "mode", "batch", "tuples/s", "vs-b1")

	walOpts := func() (durable.Options, func(), error) {
		dir, err := os.MkdirTemp("", "jisc-batchbench-")
		if err != nil {
			return durable.Options{}, nil, err
		}
		return durable.Options{
			Dir:   dir,
			Fsync: durable.FsyncBatch,
			// Steady-state logging only; checkpoints have their own
			// trigger and their own benchmark.
			CheckpointInterval: -1,
		}, func() { os.RemoveAll(dir) }, nil
	}

	// measureRuntime times the in-process path: per-event Feed at
	// batch 1, FeedBatch chunks otherwise, Flush as the drain barrier.
	measureRuntime := func(batch int, wal bool) (float64, error) {
		best := time.Duration(0)
		for rep := 0; rep < cfg.reps(); rep++ {
			var dur durable.Options
			if wal {
				opts, cleanup, err := walOpts()
				if err != nil {
					return 0, err
				}
				defer cleanup()
				dur = opts
			}
			rt, err := runtime.New(runtime.Config{
				Engine: engine.Config{
					Plan:       initialPlan(streams),
					WindowSize: cfg.Window,
					Strategy:   core.New(),
				},
				Shards:     shards,
				QueueSize:  4096,
				Durability: dur,
			})
			if err != nil {
				return 0, err
			}
			start := time.Now()
			if err := feedChunks(batch, evs, rt.Feed, rt.FeedBatch); err != nil {
				rt.Close()
				return 0, err
			}
			if err := rt.Flush(); err != nil {
				rt.Close()
				return 0, err
			}
			if elapsed := time.Since(start); best == 0 || elapsed < best {
				best = elapsed
			}
			rt.Close()
		}
		return float64(len(evs)) / best.Seconds(), nil
	}

	// measureTCP times the protocol path over loopback: FEED round
	// trips at batch 1, pipelined FEEDB lines otherwise, one STATS
	// round trip (an in-band barrier) closing the measurement.
	measureTCP := func(batch int, wal bool) (float64, error) {
		best := time.Duration(0)
		for rep := 0; rep < cfg.reps(); rep++ {
			var dur durable.Options
			if wal {
				opts, cleanup, err := walOpts()
				if err != nil {
					return 0, err
				}
				defer cleanup()
				dur = opts
			}
			srv, err := server.New(server.Config{
				Pipeline: runtime.Config{
					Engine: engine.Config{
						Plan:       initialPlan(streams),
						WindowSize: cfg.Window,
						Strategy:   core.New(),
					},
					Shards:    shards,
					QueueSize: 4096,
				},
				Durable: dur,
			})
			if err != nil {
				return 0, err
			}
			if err := srv.Listen("127.0.0.1:0"); err != nil {
				srv.Close()
				return 0, err
			}
			c, err := server.Dial(srv.Addr().String())
			if err != nil {
				srv.Close()
				return 0, err
			}
			start := time.Now()
			err = feedChunks(batch, evs, c.Feed, c.FeedBatch)
			if err == nil {
				_, err = c.Stats()
			}
			elapsed := time.Since(start)
			c.Close()
			srv.Close()
			if err != nil {
				return 0, err
			}
			if best == 0 || elapsed < best {
				best = elapsed
			}
		}
		return float64(len(evs)) / best.Seconds(), nil
	}

	modes := []struct {
		name    string
		measure func(batch int) (float64, error)
	}{
		{"runtime", func(b int) (float64, error) { return measureRuntime(b, false) }},
		{"runtime+wal", func(b int) (float64, error) { return measureRuntime(b, true) }},
		{"tcp", func(b int) (float64, error) { return measureTCP(b, false) }},
		{"tcp+wal", func(b int) (float64, error) { return measureTCP(b, true) }},
	}
	for _, mode := range modes {
		base := 0.0
		for _, batch := range batches {
			rate, err := mode.measure(batch)
			if err != nil {
				return BatchReport{}, err
			}
			if base == 0 {
				base = rate
			}
			report.Rows = append(report.Rows, BatchRow{
				Mode: mode.name, Batch: batch,
				TuplesPerSec: rate, VsBatch1: rate / base,
			})
			fprintf(w, "%-12s %-7d %14.0f %9.2fx\n", mode.name, batch, rate, rate/base)
		}
	}
	return report, nil
}

// feedChunks pushes evs through the per-event entry point when batch
// is 1 (the pre-refactor baseline) and through the batch entry point
// in batch-sized chunks otherwise.
func feedChunks(batch int, evs []workload.Event, feed func(workload.Event) error, feedBatch func([]workload.Event) error) error {
	if batch <= 1 {
		for _, ev := range evs {
			if err := feed(ev); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < len(evs); i += batch {
		if err := feedBatch(evs[i:min(i+batch, len(evs))]); err != nil {
			return err
		}
	}
	return nil
}
