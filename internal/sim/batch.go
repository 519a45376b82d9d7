package sim

// Differential comparisons for the batched ingest path. The quartet
// already proves the per-event JISC engine equals the oracle, so the
// batched runs compare FeedBatch directly against per-event Feed on
// otherwise identical engines: any divergence is a batching bug, not
// a join bug, and the mismatch says so.

import (
	"fmt"

	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/enginetest"
	"jisc/internal/runtime"
	"jisc/internal/workload"
)

// runBatched drives one JISC engine through FeedBatch in BatchSize
// chunks against a per-event reference. Chunks are NOT split at
// migration points: the batched engine installs each plan switch from
// inside the AfterFeed hook, mid-batch, at the exact event index the
// reference switches at — the hook-per-tuple contract FeedBatch
// guarantees.
func runBatched(sc Scenario) *Mismatch {
	plans, err := parsePlans(sc)
	if err != nil {
		return harnessErr(sc, 0, err)
	}
	wm := winMap(sc)

	mk := func(snk *enginetest.Sink) engine.Config {
		return engine.Config{
			Plan:          plans[0],
			WindowSizes:   wm,
			Strategy:      core.New(),
			Deterministic: true,
			Output:        snk.Output,
		}
	}

	refSink, batSink := enginetest.NewSink(), enginetest.NewSink()
	refOuts, batOuts := refSink.Outs, batSink.Outs
	ref := engine.MustNew(mk(refSink))

	var bat *engine.Engine
	var migErr error
	fed, mig := 0, 0
	batCfg := mk(batSink)
	batCfg.AfterFeed = func(uint64) {
		fed++
		for mig < len(sc.Migrations) && sc.Migrations[mig].At == fed {
			if err := bat.Migrate(plans[1+mig]); err != nil && migErr == nil {
				migErr = fmt.Errorf("batched: mid-batch migrate to %s: %w", plans[1+mig], err)
			}
			mig++
		}
	}
	bat = engine.MustNew(batCfg)
	// Migrations at index 0 precede the first tuple on both sides.
	for mig < len(sc.Migrations) && sc.Migrations[mig].At == 0 {
		if err := bat.Migrate(plans[1+mig]); err != nil {
			return harnessErr(sc, 0, err)
		}
		if err := ref.Migrate(plans[1+mig]); err != nil {
			return harnessErr(sc, 0, err)
		}
		mig++
	}

	compare := func(fed int) *Mismatch {
		if migErr != nil {
			return harnessErr(sc, fed, migErr)
		}
		if !multisetsEqual(refOuts, batOuts) {
			return &Mismatch{Scenario: sc, Engine: "batched", Batch: fed,
				Detail: "FeedBatch output multiset diverges from per-event Feed:\n" + diffMultisets(refOuts, batOuts)}
		}
		r, b := ref.Metrics(), bat.Metrics()
		if r.Input != b.Input || r.Output != b.Output || r.Transitions != b.Transitions {
			return &Mismatch{Scenario: sc, Engine: "batched", Batch: fed,
				Detail: fmt.Sprintf("counters diverge: Input=%d (want %d) Output=%d (want %d) Transitions=%d (want %d)",
					b.Input, r.Input, b.Output, r.Output, b.Transitions, r.Transitions)}
		}
		return nil
	}

	refMig := mig
	for i := 0; i < len(sc.Events); i += sc.BatchSize {
		end := min(i+sc.BatchSize, len(sc.Events))
		bat.FeedBatch(sc.Events[i:end])
		for j := i; j < end; j++ {
			ref.Feed(sc.Events[j])
			for refMig < len(sc.Migrations) && sc.Migrations[refMig].At == j+1 {
				if err := ref.Migrate(plans[1+refMig]); err != nil {
					return harnessErr(sc, j+1, err)
				}
				refMig++
			}
		}
		if m := compare(end); m != nil {
			return m
		}
	}
	return lent(sc, compare(len(sc.Events)), refSink, batSink)
}

// runShardedBatched drives the sharded runtime through FeedBatch —
// the scatter path — against per-shard oracles. The runtime cannot
// switch plans mid-batch (Migrate is a separate control message), so
// chunks split at migration points; within a chunk the scatter must
// preserve per-shard arrival order, which is exactly what the oracles
// check.
func runShardedBatched(sc Scenario) *Mismatch {
	plans, err := parsePlans(sc)
	if err != nil {
		return harnessErr(sc, 0, err)
	}
	shards := sc.Shards
	sinks := shardSinks(shards)
	oracles := make([]*oracle, shards)
	for i := range oracles {
		oracles[i] = newOracle(sc.Windows)
	}
	rt, err := runtime.New(runtime.Config{
		Engine: engine.Config{
			Plan:          plans[0],
			WindowSizes:   winMap(sc),
			Strategy:      core.New(),
			Deterministic: true,
			Output: func(d engine.Delta) {
				sinks[runtime.ShardOf(d.Tuple.Key, shards)].Output(d)
			},
		},
		Shards: shards,
	})
	if err != nil {
		return harnessErr(sc, 0, err)
	}
	defer rt.Close()

	var pend []workload.Event
	flush := func() error {
		if len(pend) == 0 {
			return nil
		}
		err := rt.FeedBatch(pend)
		for _, ev := range pend {
			oracles[runtime.ShardOf(ev.Key, shards)].feed(ev)
		}
		pend = pend[:0]
		return err
	}

	compare := func(fed, transitions int) *Mismatch {
		if err := rt.Flush(); err != nil {
			return harnessErr(sc, fed, err)
		}
		var want uint64
		for i := range oracles {
			if !multisetsEqual(oracles[i].outs, sinks[i].Outs) {
				return &Mismatch{Scenario: sc, Engine: fmt.Sprintf("sharded-batched/shard-%d", i), Batch: fed,
					Detail: "FeedBatch output multiset diverges from per-shard oracle:\n" + diffMultisets(oracles[i].outs, sinks[i].Outs)}
			}
			want += total(oracles[i].outs)
		}
		s, err := rt.Metrics()
		if err != nil {
			return harnessErr(sc, fed, err)
		}
		if s.Input != uint64(fed) || s.Transitions != uint64(transitions) || s.Output != want {
			return &Mismatch{Scenario: sc, Engine: "sharded-batched", Batch: fed,
				Detail: fmt.Sprintf("counters diverge: Input=%d (want %d) Transitions=%d (want %d) Output=%d (want %d)",
					s.Input, fed, s.Transitions, transitions, s.Output, want)}
		}
		return nil
	}

	mig, transitions := 0, 0
	for i := 0; i <= len(sc.Events); i++ {
		for mig < len(sc.Migrations) && sc.Migrations[mig].At == i {
			if err := flush(); err != nil {
				return harnessErr(sc, i, err)
			}
			if err := rt.Migrate(plans[1+mig]); err != nil {
				return harnessErr(sc, i, err)
			}
			mig++
			transitions++
		}
		if i == len(sc.Events) {
			break
		}
		pend = append(pend, sc.Events[i])
		if (i+1)%sc.BatchSize == 0 {
			if err := flush(); err != nil {
				return harnessErr(sc, i+1, err)
			}
			if m := compare(i+1, transitions); m != nil {
				return m
			}
		}
	}
	if err := flush(); err != nil {
		return harnessErr(sc, len(sc.Events), err)
	}
	return lent(sc, compare(len(sc.Events), transitions), sinks...)
}
