// Command benchmark is the repository's performance instrument: four
// workloads driven through the real server over loopback TCP in a
// pinned child process, every delivered result checked against an
// independent reference, six end-to-end metrics per workload and a
// per-layer ladder. See README.md in this directory.
//
// The design goal is stability — pinned, closed-loop, fixed-work,
// repeated, median — because every later performance or simplicity
// change is judged by these numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
)

// repetitions is how many fresh-server repetitions one run of a
// workload makes; every reported value is their median, except setup_s,
// which is their minimum.
const repetitions = 3

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression (see
	// NOISE.md for how each was set); per-layer metrics have none.
	bound float64
}

// endToEnd holds the metrics a later change is gated on: setup_s
// alone, which the driver's contract requires, with the contract's
// largest bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
}

// demoted holds the issue's other five end-to-end metrics. Identical
// runs on the reference VM disagree on each of them by more than a 10%
// bound can carry (NOISE.md), so by the issue's rule they are reported
// as diagnostics: first among the per-layer metrics, without a bound.
var demoted = []metricDef{
	{name: "throughput_tps", unit: "1/s", better: "higher"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_p95_ms", unit: "ms", better: "lower"},
	{name: "migration_latency_p95_ms", unit: "ms", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

// perLayer lists the per-layer metrics in the order the README's
// glossary gives them. Times come from the traced ladder, counts from
// the server's and the layers' own statistics.
var perLayer = append(slices.Clip(demoted), []metricDef{
	{name: "server.ack_p50_us", unit: "us", better: "lower"},
	{name: "server.migrate_rtt_p50_us", unit: "us", better: "lower"},
	{name: "server.cpu_us_per_tuple", unit: "us", better: "lower"},
	{name: "server.self_us_per_batch", unit: "us", better: "lower"},
	{name: "server.fanout_us_per_result", unit: "us", better: "lower"},
	{name: "server.latency_p99_ms", unit: "ms", better: "lower"},
	{name: "server.latency_max_ms", unit: "ms", better: "lower"},
	{name: "server.subs_dropped", unit: "count", better: "lower"},
	{name: "admission.self_ns_per_batch", unit: "ns", better: "lower"},
	{name: "admission.rejected", unit: "count", better: "lower"},
	{name: "admission.shed", unit: "count", better: "lower"},
	{name: "durable.append_us_per_batch", unit: "us", better: "lower"},
	{name: "durable.wal_appends", unit: "count", better: "lower"},
	{name: "durable.wal_bytes_per_tuple", unit: "B", better: "lower"},
	{name: "durable.fsyncs", unit: "count", better: "lower"},
	{name: "durable.fsync_p99_us", unit: "us", better: "lower"},
	{name: "runtime.self_us_per_batch", unit: "us", better: "lower"},
	{name: "runtime.batch_fill_p50", unit: "count", better: "higher"},
	{name: "runtime.batch_flushes", unit: "count", better: "lower"},
	{name: "engine.self_us_per_tuple", unit: "us", better: "lower"},
	{name: "engine.self_us_per_tuple_stage", unit: "us", better: "lower"},
	{name: "engine.migrate_us", unit: "us", better: "lower"},
	{name: "engine.feed_p99_ns", unit: "ns", better: "lower"},
	{name: "engine.probes_per_tuple", unit: "1", better: "lower"},
	{name: "engine.inserts_per_tuple", unit: "1", better: "lower"},
	{name: "engine.evictions_per_tuple", unit: "1", better: "lower"},
	{name: "engine.outputs_per_tuple", unit: "1", better: "lower"},
	{name: "core.completions", unit: "count", better: "lower"},
	{name: "core.completed_entries", unit: "count", better: "lower"},
	{name: "core.entries_per_completion", unit: "1", better: "lower"},
	{name: "core.episodes", unit: "count", better: "lower"},
	{name: "core.episode_p50_us", unit: "us", better: "lower"},
	{name: "core.episode_p99_us", unit: "us", better: "lower"},
	{name: "core.migration_work", unit: "count", better: "lower"},
	{name: "state.bytes_peak", unit: "B", better: "lower"},
	{name: "state.bytes_per_window_tuple", unit: "B", better: "lower"},
	{name: "statestore.faults_per_tuple", unit: "1", better: "lower"},
	{name: "statestore.spills", unit: "count", better: "lower"},
	{name: "statestore.refault_ratio", unit: "1", better: "lower"},
	{name: "statestore.fault_tuples", unit: "count", better: "lower"},
	{name: "statestore.fault_p50_us", unit: "us", better: "lower"},
	{name: "statestore.fault_p99_us", unit: "us", better: "lower"},
	{name: "statestore.compactions", unit: "count", better: "lower"},
	{name: "statestore.garbage_ratio", unit: "1", better: "lower"},
	{name: "statestore.segment_bytes", unit: "B", better: "lower"},
	{name: "statestore.spill_errors", unit: "count", better: "lower"},
	{name: "generator.cpu_share", unit: "1", better: "lower"},
	{name: "generator.calib_mops", unit: "Mops", better: "higher"},
	{name: "trace.overhead_frac", unit: "1", better: "lower"},
	{name: "trace.residual_frac", unit: "1", better: "lower"},
}...)

// unitOf returns the unit a metric is declared with.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range defs {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// value is one reported number and how far the repetitions' values of
// it disagreed.
type value struct {
	val, spread float64
	unit        string
}

// result is one workload's outcome in one invocation.
type result struct {
	sp                *spec
	attempted, failed int
	metrics           map[string]value
	notes             []string
}

// set records a metric as the median of its per-repetition values.
func (r *result) set(name string, perRep ...float64) {
	r.metrics[name] = value{val: median(perRep), spread: spread(perRep), unit: unitOf(name)}
}

// timedMetrics folds the repetitions of one workload into its
// end-to-end metrics and the diagnostics measured on the same runs.
func timedMetrics(res *result, in *input, reps []*repOut) {
	set := func(name string, f func(*repOut) float64) {
		vs := make([]float64, len(reps))
		for i, o := range reps {
			vs[i] = f(o)
		}
		res.set(name, vs...)
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	// The one gated metric takes the least disturbed of the set-ups,
	// not the median one: the VM only ever adds time, and for minutes on
	// end it slows one repetition in two, which moves the median of
	// three and not the minimum (NOISE.md).
	setups := make([]float64, len(reps))
	for i, o := range reps {
		setups[i] = o.setupS
	}
	res.metrics["setup_s"] = value{val: slices.Min(setups), spread: spread(setups), unit: unitOf("setup_s")}
	set("throughput_tps", func(o *repOut) float64 { return o.throughput(in) })
	set("latency_p50_ms", func(o *repOut) float64 { return ms(percentile(o.lat, 0.50)) })
	set("latency_p95_ms", func(o *repOut) float64 { return ms(percentile(o.lat, 0.95)) })
	set("migration_latency_p95_ms", func(o *repOut) float64 { return ms(percentile(o.migLat, 0.95)) })
	set("peak_rss_mb", func(o *repOut) float64 { return o.rssMB })

	set("server.ack_p50_us", func(o *repOut) float64 { return us(percentile(o.ackNs, 0.50)) })
	set("server.migrate_rtt_p50_us", func(o *repOut) float64 { return us(percentile(o.migrateNs, 0.50)) })
	set("server.cpu_us_per_tuple", func(o *repOut) float64 { return o.serverCPUs * 1e6 / float64(in.timedTuples()) })
	set("server.latency_p99_ms", func(o *repOut) float64 { return ms(percentile(o.lat, 0.99)) })
	set("server.latency_max_ms", func(o *repOut) float64 { return ms(percentile(o.lat, 1)) })
	set("server.subs_dropped", func(o *repOut) float64 { return float64(o.stats.SubsDropped) })
	set("admission.rejected", func(o *repOut) float64 { return float64(o.stats.Rejected) })
	set("admission.shed", func(o *repOut) float64 { return float64(o.stats.AdmissionShed) })
	set("runtime.batch_fill_p50", func(o *repOut) float64 { return float64(o.stats.BatchFillP50) })
	set("runtime.batch_flushes", func(o *repOut) float64 { return float64(o.stats.BatchFlushes) })
	set("generator.cpu_share", func(o *repOut) float64 { return o.genCPUShare })
	set("generator.calib_mops", func(o *repOut) float64 { return o.calibMops })
	for _, o := range reps {
		res.attempted += o.attempted
		res.failed += o.failed
		if o.mismatch != "" {
			res.notes = append(res.notes, "MISMATCH: "+o.mismatch)
		}
		if o.invalid != "" {
			res.notes = append(res.notes, "invalid even after a rerun: "+o.invalid)
		}
	}
}

// runTimed measures every workload of ins: repetitions interleaved
// across the workloads (A B C D A B C D …), a fresh server child each.
func runTimed(h *harness, ins []*input, exps []expect) ([][]*repOut, error) {
	reps := make([][]*repOut, len(ins))
	for r := 0; r < repetitions; r++ {
		for i, in := range ins {
			out, err := h.validRepetition(in, exps[i])
			if err != nil {
				return nil, fmt.Errorf("%s repetition %d: %w", in.sp.name, r, err)
			}
			fmt.Fprintf(os.Stderr, "benchmark: %s repetition %d: %.0f t/s, latency p50 %.3f p95 %.3f ms, in a stage p95 %.3f ms, timed %.2f s, set-up %.3f s, peak RSS %.1f MB, server CPU %.2f s, generator CPU share %.2f, calib %.1f Mops\n",
				in.sp.name, r, out.throughput(in), float64(percentile(out.lat, 0.50))/1e6, float64(percentile(out.lat, 0.95))/1e6, float64(percentile(out.migLat, 0.95))/1e6,
				out.timedS, out.setupS, out.rssMB, out.serverCPUs, out.genCPUShare, out.calibMops)
			reps[i] = append(reps[i], out)
		}
	}
	return reps, nil
}

// report prints one workload's metrics by name and unit, then the one
// JSON object the driver reads.
func report(res *result, names []string) {
	fmt.Printf("# %s\n", res.sp.name)
	for _, n := range res.notes {
		fmt.Printf("#   %s\n", n)
	}
	type jsonValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jsonValue, len(names))
	for _, name := range names {
		v := res.metrics[name]
		fmt.Printf("%-16s %-34s %16.6g %-6s spread %.4f\n", res.sp.name, name, v.val, v.unit, v.spread)
		metrics[name] = jsonValue{Value: v.val, Unit: v.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]jsonValue `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s\n", line)
}

func main() {
	var (
		serveMode = flag.Bool("serve", false, "internal: run as the server child")
		dir       = flag.String("dir", "", "internal: the server child's WAL and spill directory")
		workload  = flag.String("workload", "", "workload to run (default: all four, repetitions interleaved)")
		seed      = flag.Uint64("seed", 1, "seed of the key generator")
		seconds   = flag.Float64("seconds", runSeconds, "run length the tuple counts are scaled to: 3 timed phases of seconds/3 each on the reference box")
		trace     = flag.Int("trace", -1, "0: end-to-end metrics only; 1: traced per-layer run only; default both")
		aa        = flag.Int("aa", 0, "A/A noise check: run this many full sets of the same binary and compare their medians against the bounds")
		outDir    = flag.String("out", filepath.Join("benchmark", "out"), "directory for the trace files")
		scratch   = flag.String("scratch", "", "parent of the WAL and spill directories (default: /dev/shm when usable, else -out)")
	)
	flag.Parse()

	die := func(err error) {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	var chosen []*spec
	if *workload == "" {
		chosen = specs
	} else if sp := specByName(*workload); sp != nil {
		chosen = []*spec{sp}
	} else {
		die(fmt.Errorf("unknown workload %q", *workload))
	}
	if *serveMode {
		if err := serve(chosen[0], *dir); err != nil {
			die(err)
		}
		return
	}
	if *seconds < 1 || *seconds > 60 {
		die(fmt.Errorf("-seconds %g out of range [1, 60]", *seconds))
	}
	h, err := newHarness(*outDir, *scratch)
	if err != nil {
		die(err)
	}
	// An interrupted run must not leave its scratch state behind; the
	// server children exit by themselves when this process's end of
	// their stdin closes.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		h.close()
		die(fmt.Errorf("interrupted"))
	}()
	scale := *seconds / runSeconds
	fmt.Printf("# benchmark: seed %d, seconds %g (scale %.3f), pinned=%v server CPU %d generator CPUs %v, scratch %s\n",
		*seed, *seconds, scale, h.pin, h.serverCPU, h.genCPUs, h.tmp)
	failed := false
	if *aa > 0 {
		err = runAA(h, chosen, *seed, scale, *aa)
	} else {
		var results []*result
		results, err = runOnce(h, chosen, *seed, scale, *trace, *outDir)
		for _, res := range results {
			report(res, metricNames(*trace))
			failed = failed || res.failed > 0
		}
	}
	h.close()
	if err != nil {
		die(err)
	}
	if failed {
		os.Exit(2)
	}
}

// metricNames lists what an invocation prints: the end-to-end metrics
// unless trace is 1, the per-layer ones unless it is 0.
func metricNames(trace int) []string {
	var defs []metricDef
	if trace != 1 {
		defs = append(defs, endToEnd...)
	}
	if trace != 0 {
		defs = append(defs, perLayer...)
	}
	names := make([]string, len(defs))
	for i, m := range defs {
		names[i] = m.name
	}
	return names
}

// runOnce runs the chosen workloads once: the timed repetitions unless
// trace is 1, the traced ladder unless trace is 0.
func runOnce(h *harness, chosen []*spec, seed uint64, scale float64, trace int, outDir string) ([]*result, error) {
	results := make([]*result, len(chosen))
	for i, sp := range chosen {
		results[i] = &result{sp: sp, metrics: map[string]value{}}
	}
	if trace != 1 {
		ins := make([]*input, len(chosen))
		exps := make([]expect, len(chosen))
		for i, sp := range chosen {
			var err error
			if ins[i], err = generate(sp, seed, scale); err != nil {
				return nil, err
			}
			if exps[i], err = reference(ins[i]); err != nil {
				return nil, err
			}
		}
		reps, err := runTimed(h, ins, exps)
		if err != nil {
			return nil, err
		}
		for i := range chosen {
			timedMetrics(results[i], ins[i], reps[i])
		}
	}
	if trace != 0 {
		for i, sp := range chosen {
			if err := runTraced(h, results[i], sp, seed, scale/4, outDir); err != nil {
				return nil, fmt.Errorf("%s traced run: %w", sp.name, err)
			}
		}
	}
	return results, nil
}
