package main

import (
	"bufio"
	"encoding/json"
	"math"
	"net"
	"os"
	"strings"
	"testing"

	"jisc/internal/engine"
	"jisc/internal/server"
	"jisc/internal/workload"
)

// TestMain lets the harness re-execute the test binary as its server
// child, exactly as it re-executes the benchmark binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-serve" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestPercentile(t *testing.T) {
	hundred := make([]int64, 100)
	for i := range hundred {
		hundred[i] = int64(i + 1)
	}
	for _, c := range []struct {
		sorted []int64
		p      float64
		want   int64
	}{
		{nil, 0.5, 0},
		{[]int64{7}, 0.95, 7},
		{hundred, 0.50, 50},
		{hundred, 0.95, 95},
		{hundred, 0.99, 99},
		{hundred, 1, 100},
		{[]int64{1, 2, 3}, 0.5, 2},
		{[]int64{1, 2, 3, 4}, 0.5, 2},
		{[]int64{1, 2, 3, 4}, 0.95, 4},
	} {
		if got := percentile(c.sorted, c.p); got != c.want {
			t.Errorf("percentile(%d values, %g) = %d, want %d", len(c.sorted), c.p, got, c.want)
		}
	}
}

func TestMedianOfThreeAndSpread(t *testing.T) {
	vs := []float64{9, 3, 6}
	if got := median(vs); got != 6 {
		t.Errorf("median = %g, want 6", got)
	}
	if got := spread(vs); got != 1 {
		t.Errorf("spread = %g, want (9-3)/6 = 1", got)
	}
	if vs[0] != 9 {
		t.Error("median reordered its argument")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	if median(nil) != 0 || spread(nil) != 0 || spread([]float64{0, 0, 0}) != 0 {
		t.Error("empty or all-zero input must give 0")
	}
}

// A run reports the minimum of its set-ups and the median of
// everything else.
func TestRunFoldsSetupByMinimumAndTheRestByMedian(t *testing.T) {
	sp, scale := smokeSpec(specByName("migrate-uniform"))
	in := mustGenerate(t, sp, 1, scale)
	reps := []*repOut{
		{setupS: 0.9, timedS: 1, rssMB: 30},
		{setupS: 0.5, timedS: 4, rssMB: 10},
		{setupS: 0.7, timedS: 2, rssMB: 20},
	}
	res := &result{sp: sp, metrics: map[string]value{}}
	timedMetrics(res, in, reps)
	if got := res.metrics["setup_s"]; got.val != 0.5 || math.Abs(got.spread-0.4/0.7) > 1e-12 || got.unit != "s" {
		t.Errorf("setup_s = %+v, want the minimum 0.5 with spread 0.4/0.7", got)
	}
	if got := res.metrics["peak_rss_mb"].val; got != 20 {
		t.Errorf("peak_rss_mb = %g, want the median 20", got)
	}
	if got, want := res.metrics["throughput_tps"].val, float64(in.timedTuples())/2; got != want {
		t.Errorf("throughput_tps = %g, want the median %g", got, want)
	}
}

// smokeSpec shrinks a workload's MIGRATE cadence so a 20 000-tuple run
// still migrates; everything else is the workload's own.
func smokeSpec(sp *spec) (*spec, float64) {
	c := *sp
	c.migrateEvery = min(sp.migrateEvery, sp.streams*sp.window+batchTuples)
	return &c, 20000 / float64(sp.tuples)
}

func mustGenerate(t *testing.T, sp *spec, seed uint64, scale float64) *input {
	t.Helper()
	in, err := generate(sp, seed, scale)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// Results are emitted while the batch carrying their newest tuple is
// being fed, so newestBatch must name the batch in progress — on one
// shard and on two.
func TestNewestBatch(t *testing.T) {
	for _, name := range []string{"migrate-hotkey", "ingest-durable"} {
		sp, scale := smokeSpec(specByName(name))
		in := mustGenerate(t, sp, 7, scale)
		current, checked := 0, 0
		engines, err := newEngineSet(sp.shards, func(i int) engine.Config {
			return shardEngineConfig(sp, t.TempDir(), i, nil, func(d engine.Delta) {
				rest := strings.TrimPrefix(resultLine(d), resultPrefix)
				got, ok := in.newestBatch([]byte(rest))
				if !ok || got != current {
					t.Fatalf("%s: newestBatch(%q) = %d, %v during batch %d", name, rest, got, ok, current)
				}
				checked++
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		evs := make([]workload.Event, batchTuples)
		for ; current < in.batches; current++ {
			in.subBatches(current, evs, engines.feed)
			if k, ok := in.migrateAfter(current); ok {
				if err := engines.migrate(in.plans[k]); err != nil {
					t.Fatal(err)
				}
			}
		}
		engines.close()
		if checked == 0 {
			t.Fatalf("%s: no results to check", name)
		}
	}
	in := mustGenerate(t, specByName("migrate-hotkey"), 7, 0.05)
	for _, bad := range []string{"", "12", "12 ", "x 0#1", "12 0#0", "12 9#1", "12 0#", "12 0#1|", "12 0#999999999", "12 0#1x"} {
		if b, ok := in.newestBatch([]byte(bad)); ok {
			t.Errorf("newestBatch(%q) = %d, want a refusal", bad, b)
		}
	}
}

func TestMigrationStageMembership(t *testing.T) {
	sp := specByName("migrate-uniform")
	in := mustGenerate(t, sp, 1, 0.1)
	if in.migEvery != 78 || in.stageLen != 24 {
		t.Fatalf("migEvery, stageLen = %d, %d, want 78 (20 000 tuples) and 24 (6×1000 tuples) batches", in.migEvery, in.stageLen)
	}
	stage := map[int]bool{}
	migrations := 0
	for b := 0; b < in.batches; b++ {
		if k, ok := in.migrateAfter(b); ok {
			if k != migrations {
				t.Fatalf("MIGRATE after batch %d is number %d, want %d", b, k, migrations)
			}
			migrations++
			// The stage is the streams×window tuples fed after the ack.
			for i := 1; i <= in.stageLen; i++ {
				stage[b+i] = true
			}
		}
	}
	if migrations == 0 || migrations > len(in.plans) {
		t.Fatalf("%d migrations, %d plans", migrations, len(in.plans))
	}
	for b := 0; b < in.batches; b++ {
		if in.inStage(b) != stage[b] {
			t.Errorf("inStage(%d) = %v, want %v", b, in.inStage(b), stage[b])
		}
	}
	if _, ok := in.migrateAfter(in.batches - 1); ok {
		t.Error("a MIGRATE after the last batch has no stage to measure")
	}
	if got := orderString(rotated(4, 1)); got != "1,2,3,0" {
		t.Errorf("first rotation of 4 streams = %s, want 1,2,3,0", got)
	}
}

func TestSeedDeterminismAndHotKeyMix(t *testing.T) {
	sp := specByName("migrate-hotkey")
	a := mustGenerate(t, sp, 42, 1)
	b := mustGenerate(t, sp, 42, 1)
	c := mustGenerate(t, sp, 43, 1)
	if string(a.wire) != string(b.wire) {
		t.Error("the same seed gave different inputs")
	}
	if string(a.wire) == string(c.wire) {
		t.Error("different seeds gave the same input")
	}
	hot := 0
	for _, k := range a.keys {
		if k == sp.domain {
			hot++
		} else if k < 0 || k >= sp.domain {
			t.Fatalf("key %d outside [0, %d]", k, sp.domain)
		}
	}
	if share := float64(hot) / float64(len(a.keys)); math.Abs(share-0.02) > 0.001 {
		t.Errorf("hot-key share = %.4f, want 0.02 ± 0.001", share)
	}
	other := mustGenerate(t, specByName("migrate-uniform"), 42, 0.01)
	if other.keys[0] == a.keys[0] && other.keys[1] == a.keys[1] && other.keys[2] == a.keys[2] {
		t.Error("two workloads share a key sequence")
	}
}

// The pre-encoded wire bytes must be what the shipped client writes for
// the same batch.
func TestWireMatchesClient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// capture accepts one connection, acknowledges every line like the
	// server would, and returns everything the client wrote.
	capture := func() <-chan string {
		got := make(chan string, 1)
		go func() {
			defer close(got)
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			var sb strings.Builder
			sc := bufio.NewScanner(conn)
			for sc.Scan() {
				sb.WriteString(sc.Text() + "\n")
				conn.Write([]byte("OK\n"))
			}
			got <- sb.String()
		}()
		return got
	}
	for _, name := range []string{"ingest-durable", "migrate-uniform"} {
		sp, scale := smokeSpec(specByName(name))
		in := mustGenerate(t, sp, 3, scale)
		got := capture()
		c, err := server.Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		var batch []workload.Event
		in.subBatches(5, make([]workload.Event, batchTuples), func(sub []workload.Event) {
			batch = append(batch, sub...)
		})
		if len(batch) != batchTuples {
			t.Fatalf("batch holds %d tuples", len(batch))
		}
		if err := c.FeedBatch(batch); err != nil {
			t.Fatal(err)
		}
		c.Close()
		if want := string(in.wire[in.lineOff[5]:in.lineOff[6]]); <-got != want {
			t.Errorf("%s: client wrote a different batch than the pre-encoded %q…", name, want[:40])
		}
	}
}

// A 20 000-tuple run of every workload through the real child process
// must match the reference: count and multiset hash.
func TestSmokeAgainstOracle(t *testing.T) {
	h, err := newHarness(t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	for _, full := range specs {
		sp, scale := smokeSpec(full)
		in := mustGenerate(t, sp, 11, scale)
		exp, err := reference(in)
		if err != nil {
			t.Fatal(err)
		}
		if exp.results == 0 || len(in.plans) == 0 {
			t.Fatalf("%s: smoke run has %d results and %d migrations", sp.name, exp.results, len(in.plans))
		}
		out, err := h.repetition(in, exp)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if out.failed != 0 || out.attempted != in.tuples()+exp.results {
			t.Errorf("%s: %d of %d operations failed: %s", sp.name, out.failed, out.attempted, out.mismatch)
		}
		if out.invalid != "" && !strings.Contains(out.invalid, "generator used") {
			t.Errorf("%s: %s", sp.name, out.invalid)
		}
		if len(out.lat) != exp.results-exp.warmResults || len(out.migLat) == 0 {
			t.Errorf("%s: %d latencies (%d in a stage) for %d timed results", sp.name, len(out.lat), len(out.migLat), exp.results-exp.warmResults)
		}
		if spills := out.stats.SpillFaults > 0; spills != (sp.stateBudget > 0) {
			t.Errorf("%s: spill faults = %d", sp.name, out.stats.SpillFaults)
		}
	}
}

// A wrong reference must be reported as failed operations, never
// silently accepted.
func TestMismatchCountsAsFailure(t *testing.T) {
	h, err := newHarness(t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	sp, scale := smokeSpec(specByName("migrate-uniform"))
	in := mustGenerate(t, sp, 11, scale)
	exp, err := reference(in)
	if err != nil {
		t.Fatal(err)
	}
	exp.hash++
	out, err := h.repetition(in, exp)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != exp.results || out.mismatch == "" {
		t.Errorf("failed = %d, want all %d results; mismatch %q", out.failed, exp.results, out.mismatch)
	}
}

// BENCHMARK.json is the contract the driver reads; the tables in the
// code are what the program prints. They must not drift.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads, code has %d", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d = %+v, code has %s: %s", i, w, specs[i].name, specs[i].why)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, code has %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		c := endToEnd[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better || m.Bound == nil || *m.Bound != c.bound {
			t.Errorf("end-to-end metric %d = %+v, code has %+v", i, m, c)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, code has %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		c := perLayer[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better || m.Bound != nil {
			t.Errorf("per-layer metric %d = %+v, code has %+v", i, m, c)
		}
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", doc.RunSeconds, runSeconds)
	}
	if strings.Join(doc.Command, " ") != "bash benchmark/run.sh" || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
}
