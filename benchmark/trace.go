package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"

	"jisc/internal/admission"
	"jisc/internal/durable"
	"jisc/internal/engine"
	"jisc/internal/metrics"
	"jisc/internal/obs"
	"jisc/internal/plan"
	"jisc/internal/runtime"
	"jisc/internal/server"
	"jisc/internal/statestore"
	"jisc/internal/workload"
)

// The traced run replays one input, in this process and on one
// goroutine, through a ladder of public entry points, each containing
// the ones below it, and records one span per batch per rung. A
// layer's self time is its rung minus the rung below.
const (
	rungEngine    = "R0.engine"    // engine.FeedBatch / Migrate, counting Output
	rungFanout    = "R1.fanout"    // R0 with an Output that builds the result line
	rungRuntime   = "R2.runtime"   // runtime.FeedBatch + Flush at the workload's shard count
	rungAdmitted  = "R3.admitted"  // R2 with the workload's admission and durability
	rungServer    = "R4.server"    // the server over loopback, STATS as the per-batch barrier
	rungAdmission = "R3.admission" // direct: admission.AdmitBatch + Release per FEEDB line
	rungDurable   = "R3.durable"   // direct: durable.Log.AppendFeedBatch per shard sub-batch
)

// span is one timed call into a layer. parent is the batch the call
// belongs to; a MIGRATE span has migrate set and parent = the batch it
// follows.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	Migrate bool   `json:"migrate,omitempty"`
	Stage   bool   `json:"stage,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// rungTotals are a rung's span times over the batches after warm-up.
type rungTotals struct {
	steadyNs, stageNs, migrateNs int64
	steadyBatches, stageBatches  int
	migrates                     int
	spans                        []span
}

func (t rungTotals) total() int64 { return t.steadyNs + t.stageNs + t.migrateNs }
func (t rungTotals) batches() int { return t.steadyBatches + t.stageBatches }

// climb runs one rung: feed is called once per FEEDB line, barrier (may
// be nil) once per batch to wait until the batch is fully processed,
// migrate at every MIGRATE position. after (may be nil) runs outside
// the span, for sampling.
func (h *harness) climb(in *input, name string, feed func([]workload.Event), barrier func() error, migrate func(*plan.Plan) error, after func()) (rungTotals, error) {
	t := rungTotals{spans: make([]span, 0, in.batches+len(in.plans))}
	evs := make([]workload.Event, batchTuples)
	for b := 0; b < in.batches; b++ {
		start := h.now()
		in.subBatches(b, evs, feed)
		if barrier != nil {
			if err := barrier(); err != nil {
				return t, fmt.Errorf("%s batch %d: %w", name, b, err)
			}
		}
		end := h.now()
		stage := in.inStage(b)
		t.spans = append(t.spans, span{Name: name, Parent: b, Stage: stage, StartNs: start, EndNs: end})
		if b >= in.warmBatches {
			if stage {
				t.stageNs += end - start
				t.stageBatches++
			} else {
				t.steadyNs += end - start
				t.steadyBatches++
			}
		}
		if after != nil {
			after()
		}
		if k, ok := in.migrateAfter(b); ok && migrate != nil {
			start := h.now()
			if err := migrate(in.plans[k]); err != nil {
				return t, fmt.Errorf("%s MIGRATE %d: %w", name, k, err)
			}
			end := h.now()
			t.spans = append(t.spans, span{Name: name, Parent: b, Migrate: true, StartNs: start, EndNs: end})
			if b >= in.warmBatches {
				t.migrateNs += end - start
				t.migrates++
			}
		}
	}
	return t, nil
}

// ladder is everything the traced run measured.
type ladder struct {
	rungs map[string]rungTotals
	// outputs[rung] is the result count the rung emitted: every rung
	// must reproduce the reference's count.
	outputs map[string]int
	// engine-level counts, from R0.
	met       metrics.Snapshot
	obs       obs.SetSnapshot
	spill     statestore.Stats
	bytesPeak int64
	// durability counts and fsync latency, from R3.
	dur      durable.StatsSnapshot
	fsyncP99 float64
}

// resultLine builds the line the server broadcasts for one result, as
// internal/server does.
func resultLine(d engine.Delta) string {
	return fmt.Sprintf("RESULT %d %s", d.Tuple.Key, d.Tuple.Fingerprint())
}

// shardEngineConfig is shard i's engine as the runtime would carve it
// out of the workload's configuration: an equal share of the state
// budget and a private spill directory.
func shardEngineConfig(sp *spec, dir string, shard int, rec *obs.Recorder, out engine.Output) engine.Config {
	cfg := engineConfig(sp, filepath.Join(dir, fmt.Sprintf("shard-%d", shard)))
	cfg.StateBudget = sp.stateBudget / int64(sp.shards)
	cfg.Obs = rec
	cfg.Output = out
	return cfg
}

// climber carries what every rung of one ladder shares.
type climber struct {
	h   *harness
	in  *input
	exp expect
	dir string
	ld  *ladder
}

func (c *climber) rungDir(name string) string { return filepath.Join(c.dir, name) }

// engineRung is R0 (counting Output) or R1 (withLine: an Output that
// builds the result line): the bare engines, instrumented like the
// server's, which always attaches an obs recorder. R0 also supplies the
// engine-level counts.
func (c *climber) engineRung(name string, withLine bool) error {
	sp, set := c.in.sp, obs.NewSet("trace", 0)
	n, sink := 0, 0
	out := func(engine.Delta) { n++ }
	if withLine {
		out = func(d engine.Delta) { n++; sink += len(resultLine(d)) }
	}
	engines, err := newEngineSet(sp.shards, func(i int) engine.Config {
		return shardEngineConfig(sp, c.rungDir(name), i, set.Recorder(i), out)
	})
	if err != nil {
		return err
	}
	defer engines.close()
	var after func()
	if !withLine {
		after = func() {
			var b int64
			for _, eng := range engines.engines {
				b += eng.StateBytes()
			}
			c.ld.bytesPeak = max(c.ld.bytesPeak, b)
		}
	}
	t, err := c.h.climb(c.in, name, engines.feed, nil, engines.migrate, after)
	if err != nil {
		return err
	}
	if !withLine {
		snaps := make([]metrics.Snapshot, len(engines.engines))
		for i, eng := range engines.engines {
			snaps[i] = eng.Metrics()
			st, _ := eng.SpillStats()
			c.ld.spill = c.ld.spill.Add(st)
		}
		c.ld.met = metrics.MergeShards(snaps)
		c.ld.obs = set.Snapshot()
	}
	c.ld.rungs[name], c.ld.outputs[name] = t, n
	return nil
}

// runtimeRung is R2, the sharded runtime, or R3 (admitted: with the
// workload's admission and durability). R3 also supplies the WAL counts.
func (c *climber) runtimeRung(name string, admitted bool) error {
	sp := c.in.sp
	n, sink := 0, 0
	cfg := runtimeConfig(sp, c.rungDir(name))
	cfg.Obs = obs.NewSet("trace", 0)
	cfg.Engine.Output = func(d engine.Delta) { n++; sink += len(resultLine(d)) }
	if admitted {
		cfg.Durability = durableOptions(sp, c.rungDir(name))
		adm, err := admission.New(admissionConfig(sp))
		if err != nil {
			return err
		}
		cfg.Admission = adm
	}
	rt, err := runtime.New(cfg)
	if err != nil {
		return err
	}
	defer rt.Close()
	var feedErr error
	t, err := c.h.climb(c.in, name, func(sub []workload.Event) {
		if err := rt.FeedBatch(sub); err != nil && feedErr == nil {
			feedErr = err
		}
	}, rt.Flush, rt.Migrate, nil)
	if err == nil {
		err = feedErr
	}
	if err != nil {
		return err
	}
	if admitted {
		c.ld.dur = rt.DurableStats()
		c.ld.fsyncP99 = float64(rt.ObsSnapshot().WALFsync.Quantile(0.99)) / 1e3
	}
	c.ld.rungs[name], c.ld.outputs[name] = t, n
	return nil
}

// admissionRung is the direct span around the admission layer alone.
func (c *climber) admissionRung() error {
	adm, err := admission.New(admissionConfig(c.in.sp))
	if err != nil {
		return err
	}
	t, err := c.h.climb(c.in, rungAdmission, func(sub []workload.Event) {
		cost := int64(len(sub)) * runtime.EventBytes
		if d, _ := adm.AdmitBatch(len(sub), cost); d == admission.Admit {
			adm.Release(cost)
		}
	}, nil, nil, nil)
	c.ld.rungs[rungAdmission] = t
	return err
}

// durableRung is the direct span around the write-ahead log alone: one
// log per shard, appended to as the runtime would.
func (c *climber) durableRung() error {
	sp := c.in.sp
	logs := make([]*durable.Log, sp.shards)
	for i := range logs {
		rec, err := durable.RecoverShard(durableOptions(sp, c.rungDir(rungDurable)), i,
			shardEngineConfig(sp, c.rungDir(rungDurable), i, nil, nil), nil, nil)
		if err != nil {
			return err
		}
		rec.Engine.Close()
		logs[i] = rec.Log
		defer rec.Log.Close()
	}
	parts := make([][]workload.Event, sp.shards)
	var appendErr error
	t, err := c.h.climb(c.in, rungDurable, func(sub []workload.Event) {
		scatter(parts, sub)
		for i, p := range parts {
			if len(p) == 0 {
				continue
			}
			if _, err := logs[i].AppendFeedBatch(p); err != nil && appendErr == nil {
				appendErr = err
			}
		}
	}, nil, nil, nil)
	if err == nil {
		err = appendErr
	}
	c.ld.rungs[rungDurable] = t
	return err
}

// serverRung is R4: the server itself, over loopback, from this
// process.
func (c *climber) serverRung() error {
	sp := c.in.sp
	srv, err := server.New(serverConfig(sp, c.rungDir(rungServer)))
	if err != nil {
		return err
	}
	defer srv.Close()
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	addr := srv.Addr().String()
	feedConn, err := dialTCP(addr)
	if err != nil {
		return err
	}
	defer feedConn.Close()
	subConn, err := subscribe(addr)
	if err != nil {
		return err
	}
	rd := newSubReader(c.h, c.exp)
	rd.start(subConn)
	defer rd.close()
	fd := &feeder{conn: feedConn}
	b, notOK := 0, 0
	t, err := c.h.climb(c.in, rungServer, func([]workload.Event) {
		// The batch goes out in the barrier, as its pre-encoded
		// pipelined write.
	}, func() error {
		bad, err := fd.roundTrip(c.in.wire[c.in.lineOff[b]:c.in.lineOff[b+1]], sp.streams)
		if err != nil {
			return err
		}
		if bad != 0 {
			notOK++
		}
		b++
		// STATS answers in-band, behind every enqueued batch: its reply
		// means the batch is fully processed.
		_, err = fd.roundTrip([]byte("STATS\n"), 1)
		return err
	}, func(p *plan.Plan) error {
		bad, err := fd.roundTrip([]byte("MIGRATE "+p.String()+"\n"), 1)
		if err == nil && bad != 0 {
			err = fmt.Errorf("refused: %q", fd.ack[:32])
		}
		return err
	}, nil)
	if err != nil {
		return err
	}
	if notOK > 0 {
		return fmt.Errorf("%s: %d batches not acknowledged OK", rungServer, notOK)
	}
	rd.awaitLines(c.exp.results)
	rd.close()
	a := c.in.analyse(rd.buf[:rd.n], rd.chunkEnd, rd.chunkT, make([]int64, c.in.batches), nil, nil)
	if a.hash != c.exp.hash || a.bad != 0 {
		return fmt.Errorf("%s: %d results (%d malformed) hash %016x, reference %d results hash %016x",
			rungServer, a.lines, a.bad, a.hash, c.exp.results, c.exp.hash)
	}
	c.ld.rungs[rungServer], c.ld.outputs[rungServer] = t, a.lines
	return nil
}

// climbLadder runs every rung, one after the other: background WAL
// flushers forbid interleaving them.
func (h *harness) climbLadder(in *input, exp expect, dir string) (*ladder, error) {
	sp := in.sp
	c := &climber{h: h, in: in, exp: exp, dir: dir,
		ld: &ladder{rungs: map[string]rungTotals{}, outputs: map[string]int{}}}
	if err := c.engineRung(rungEngine, false); err != nil {
		return nil, err
	}
	if err := c.engineRung(rungFanout, true); err != nil {
		return nil, err
	}
	if err := c.runtimeRung(rungRuntime, false); err != nil {
		return nil, err
	}
	if sp.wal || sp.inflightBytes > 0 {
		if err := c.runtimeRung(rungAdmitted, true); err != nil {
			return nil, err
		}
	} else {
		// Nothing to add: the rung is R2 itself.
		c.ld.rungs[rungAdmitted], c.ld.outputs[rungAdmitted] = c.ld.rungs[rungRuntime], c.ld.outputs[rungRuntime]
	}
	if sp.inflightBytes > 0 {
		if err := c.admissionRung(); err != nil {
			return nil, err
		}
	}
	if sp.wal {
		if err := c.durableRung(); err != nil {
			return nil, err
		}
	}
	if err := c.serverRung(); err != nil {
		return nil, err
	}
	return c.ld, nil
}

// runTraced is the --trace 1 half of a run: one untraced child
// repetition at the traced size (the throughput the ladder's top rung is
// compared with, and the per-layer counts only the server reports),
// then the ladder, then benchmark/out/trace-<workload>.json.
func runTraced(h *harness, res *result, sp *spec, seed uint64, scale float64, outDir string) error {
	in, err := generate(sp, seed, scale)
	if err != nil {
		return err
	}
	exp, err := reference(in)
	if err != nil {
		return err
	}
	child, err := h.validRepetition(in, exp)
	if err != nil {
		return err
	}
	timed := &result{sp: sp, metrics: map[string]value{}}
	timedMetrics(timed, in, []*repOut{child})
	res.attempted += timed.attempted
	res.failed += timed.failed
	res.notes = append(res.notes, timed.notes...)
	for name, v := range timed.metrics {
		// A full timed run in the same invocation measured these better.
		if _, ok := res.metrics[name]; !ok {
			res.metrics[name] = v
		}
	}

	dir, err := os.MkdirTemp(h.tmp, sp.name+"-trace-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// The ladder runs the server's code in this process: one P, like
	// the child.
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	ld, err := h.climbLadder(in, exp, dir)
	if err != nil {
		return err
	}
	for name, n := range ld.outputs {
		res.attempted += exp.results
		if n != exp.results {
			res.failed += exp.results
			res.notes = append(res.notes, fmt.Sprintf("MISMATCH: rung %s emitted %d results, reference %d", name, n, exp.results))
		}
	}
	ladderMetrics(res, in, exp, ld, child.throughput(in))
	return writeTrace(filepath.Join(outDir, "trace-"+sp.name+".json"), in, seed, ld)
}

// ladderMetrics turns the ladder into the per-layer metrics.
func ladderMetrics(res *result, in *input, exp expect, ld *ladder, childTPS float64) {
	set := res.set
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	r := ld.rungs
	tuples := float64(in.timedTuples())
	batches := float64(r[rungServer].batches())
	results := float64(exp.results - exp.warmResults)
	self := func(upper, lower string) float64 { return float64(r[upper].total() - r[lower].total()) }

	eng := r[rungEngine]
	set("engine.self_us_per_tuple", div(float64(eng.steadyNs)/1e3, float64(eng.steadyBatches*batchTuples)))
	set("engine.self_us_per_tuple_stage", div(float64(eng.stageNs)/1e3, float64(eng.stageBatches*batchTuples)))
	set("engine.migrate_us", div(float64(eng.migrateNs)/1e3, float64(eng.migrates)))
	set("server.fanout_us_per_result", div(self(rungFanout, rungEngine)/1e3, results))
	set("runtime.self_us_per_batch", self(rungRuntime, rungFanout)/1e3/batches)
	set("admission.self_ns_per_batch", float64(r[rungAdmission].total())/batches)
	set("durable.append_us_per_batch", float64(r[rungDurable].total())/1e3/batches)
	set("server.self_us_per_batch", self(rungServer, rungAdmitted)/1e3/batches)

	top := float64(r[rungServer].total())
	explained := float64(eng.total()) + self(rungFanout, rungEngine) + self(rungRuntime, rungFanout) +
		float64(r[rungAdmission].total()+r[rungDurable].total()) + self(rungServer, rungAdmitted)
	set("trace.residual_frac", 1-explained/top)
	set("trace.overhead_frac", 1-div(tuples/(top/1e9), childTPS))

	all := float64(ld.met.Input)
	set("engine.feed_p99_ns", float64(ld.obs.Feed.Quantile(0.99)))
	set("engine.probes_per_tuple", div(float64(ld.met.Probes), all))
	set("engine.inserts_per_tuple", div(float64(ld.met.Inserts), all))
	set("engine.evictions_per_tuple", div(float64(ld.met.Evictions), all))
	set("engine.outputs_per_tuple", div(float64(ld.met.Output), all))
	set("core.completions", float64(ld.met.Completions))
	set("core.completed_entries", float64(ld.met.CompletedEntries))
	set("core.entries_per_completion", div(float64(ld.met.CompletedEntries), float64(ld.met.Completions)))
	set("core.episodes", float64(ld.obs.Completion.Count))
	set("core.episode_p50_us", float64(ld.obs.Completion.Quantile(0.50))/1e3)
	set("core.episode_p99_us", float64(ld.obs.Completion.Quantile(0.99))/1e3)
	set("core.migration_work", float64(ld.met.MigrationWork))
	set("state.bytes_peak", float64(ld.bytesPeak))
	set("state.bytes_per_window_tuple", float64(ld.bytesPeak)/float64(in.sp.streams*in.sp.window*in.sp.shards))

	st := ld.spill
	set("statestore.faults_per_tuple", div(float64(st.Faults), all))
	set("statestore.spills", float64(st.Spills))
	set("statestore.refault_ratio", div(float64(st.Faults), float64(st.Spills)))
	set("statestore.fault_tuples", float64(st.FaultTuples))
	set("statestore.fault_p50_us", float64(ld.obs.SpillFault.Quantile(0.50))/1e3)
	set("statestore.fault_p99_us", float64(ld.obs.SpillFault.Quantile(0.99))/1e3)
	set("statestore.compactions", float64(st.Compactions))
	set("statestore.garbage_ratio", div(float64(st.GarbageBytes), float64(st.SegmentBytes)))
	set("statestore.segment_bytes", float64(st.SegmentBytes))
	set("statestore.spill_errors", float64(st.SpillErrors))

	set("durable.wal_appends", float64(ld.dur.Appends))
	set("durable.wal_bytes_per_tuple", div(float64(ld.dur.AppendBytes), float64(in.tuples())))
	set("durable.fsyncs", float64(ld.dur.Fsyncs))
	set("durable.fsync_p99_us", ld.fsyncP99)
}

// writeTrace writes every span of the ladder, rung by rung.
func writeTrace(path string, in *input, seed uint64, ld *ladder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var spans []span
	for _, name := range []string{rungEngine, rungFanout, rungRuntime, rungAdmitted, rungAdmission, rungDurable, rungServer} {
		spans = append(spans, ld.rungs[name].spans...)
	}
	err = json.NewEncoder(w).Encode(struct {
		Workload    string `json:"workload"`
		Seed        uint64 `json:"seed"`
		Batches     int    `json:"batches"`
		WarmBatches int    `json:"warm_batches"`
		BatchTuples int    `json:"batch_tuples"`
		Spans       []span `json:"spans"`
	}{in.sp.name, seed, in.batches, in.warmBatches, batchTuples, spans})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
