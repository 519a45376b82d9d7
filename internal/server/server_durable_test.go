package server

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"jisc/internal/core"
	"jisc/internal/durable"
	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/runtime"
	"jisc/internal/workload"
)

func durableServerConfig(dir string) Config {
	return Config{
		Pipeline: runtime.Config{Engine: engine.Config{
			Plan:       plan.MustLeftDeep(0, 1, 2),
			WindowSize: 100,
			Strategy:   core.New(),
		}},
		Durable: durable.Options{
			Dir:   dir,
			Fsync: durable.FsyncAlways,
			// Restart tests exercise pure WAL replay.
			CheckpointInterval: -1,
		},
	}
}

func startDurableServer(t *testing.T, dir string) *Server {
	t.Helper()
	s, err := New(durableServerConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		s.Close()
		t.Fatal(err)
	}
	return s
}

func statField(t *testing.T, stats, key string) string {
	t.Helper()
	for _, f := range strings.Fields(stats) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return v
		}
	}
	t.Fatalf("stats %q has no %q field", stats, key)
	return ""
}

// TestServerDurableRestart is the server-level crash contract: every
// acknowledged mutating command — FEED, MIGRATE, CREATE, DROP — must
// survive a restart, restoring counters, plans, and the query topology.
func TestServerDurableRestart(t *testing.T) {
	dir := t.TempDir()
	s := startDurableServer(t, dir)
	c := dial(t, s)
	for _, line := range []string{
		"FEED 0 7", "FEED 1 7", "FEED 2 7",
		"MIGRATE ((0 2) 1)",
		"FEED 0 9", // post-migration ingest, replays through the migrated plan
		"CREATE pairs 50 (0 1)",
		"FEED pairs 0 3", "FEED pairs 1 3",
		"CREATE doomed 50 (1 2)",
		"DROP doomed",
	} {
		if resp := c.cmd(t, line); resp != "OK" {
			t.Fatalf("%s -> %s", line, resp)
		}
	}
	stats := c.cmd(t, "STATS")
	if got := statField(t, stats, "wal_appends"); got == "0" {
		t.Fatalf("durable server logged nothing: %s", stats)
	}
	wantDefault := map[string]string{
		"input":       statField(t, stats, "input"),
		"output":      statField(t, stats, "output"),
		"transitions": statField(t, stats, "transitions"),
	}
	wantPlan := c.cmd(t, "PLAN")
	s.Close() // no final checkpoint: disk state is crash-equivalent

	s2 := startDurableServer(t, dir)
	defer s2.Close()
	c2 := dial(t, s2)
	stats2 := c2.cmd(t, "STATS")
	for k, want := range wantDefault {
		if got := statField(t, stats2, k); got != want {
			t.Fatalf("after restart %s=%s, want %s (stats %q)", k, got, want, stats2)
		}
	}
	if got := statField(t, stats2, "recovered_events"); got == "0" {
		t.Fatalf("restart replayed nothing: %s", stats2)
	}
	if got := c2.cmd(t, "PLAN"); got != wantPlan {
		t.Fatalf("plan after restart = %q, want %q", got, wantPlan)
	}
	list := c2.cmd(t, "LIST")
	if !strings.Contains(list, "pairs") || strings.Contains(list, "doomed") {
		t.Fatalf("recovered topology = %q; want pairs alive and doomed gone", list)
	}
	pairsStats := c2.cmd(t, "STATS pairs")
	if got := statField(t, pairsStats, "input"); got != "2" {
		t.Fatalf("pairs input after restart = %s, want 2", got)
	}
	// The recovered server keeps working: finish the pairs join.
	if resp := c2.cmd(t, "FEED pairs 0 4"); resp != "OK" {
		t.Fatalf("post-recovery feed: %s", resp)
	}
}

// A DROPped query's durability directory is removed, so re-creating
// the name starts from scratch rather than inheriting stale state.
func TestServerDurableDropClearsState(t *testing.T) {
	dir := t.TempDir()
	s := startDurableServer(t, dir)
	c := dial(t, s)
	for _, line := range []string{
		"CREATE q 50 (0 1)", "FEED q 0 1", "FEED q 1 1",
		"DROP q",
		"CREATE q 50 (0 1)",
	} {
		if resp := c.cmd(t, line); resp != "OK" {
			t.Fatalf("%s -> %s", line, resp)
		}
	}
	s.Close()
	s2 := startDurableServer(t, dir)
	defer s2.Close()
	c2 := dial(t, s2)
	if got := statField(t, c2.cmd(t, "STATS q"), "input"); got != "0" {
		t.Fatalf("re-created query inherited input=%s from its dropped namesake", got)
	}
}

// Durable query names become directory names; reject separators and
// anything else unsafe rather than writing outside the root.
func TestServerDurableRejectsUnsafeNames(t *testing.T) {
	s := startDurableServer(t, t.TempDir())
	defer s.Close()
	c := dial(t, s)
	for _, name := range []string{"a/b", "a\\b", "..", "a b"} {
		if resp := c.cmd(t, "CREATE "+name+" 50 (0 1)"); !strings.HasPrefix(resp, "ERR") {
			t.Fatalf("CREATE %q -> %s, want ERR", name, resp)
		}
	}
}

// The WAL series must reach /metrics: per-query append/fsync counters
// when durability is on, and the wal_disabled gauge + distinct
// unlogged-mutation counter when it is off.
func TestTelemetryWALSeries(t *testing.T) {
	s := startDurableServer(t, t.TempDir())
	defer s.Close()
	if err := s.ServeTelemetry("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c := dial(t, s)
	for _, line := range []string{"FEED 0 1", "FEED 1 1", "MIGRATE ((0 2) 1)"} {
		if resp := c.cmd(t, line); resp != "OK" {
			t.Fatalf("%s -> %s", line, resp)
		}
	}
	c.cmd(t, "STATS") // in-band barrier
	m := scrape(t, s, "/metrics")
	for _, want := range []string{
		`jisc_wal_appends_total{query="default"} 3`,
		`jisc_wal_fsyncs_total{query="default"} 3`,
		`jisc_wal_segments{query="default"} 1`,
		"jisc_wal_disabled{} 0",
		"jisc_wal_disabled_mutations_total{} 0",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	s2 := newTestServer(t)
	if err := s2.ServeTelemetry("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c2 := dial(t, s2)
	if resp := c2.cmd(t, "FEED 0 1"); resp != "OK" {
		t.Fatalf("feed: %s", resp)
	}
	m2 := scrape(t, s2, "/metrics")
	for _, want := range []string{
		"jisc_wal_disabled{} 1",
		"jisc_wal_disabled_mutations_total{} 1",
	} {
		if !strings.Contains(m2, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// Without durability every mutating command is counted as unlogged —
// the operator-facing signal that a crash would lose state.
func TestServerCountsWALDisabledMutations(t *testing.T) {
	s := newTestServer(t)
	c := dial(t, s)
	for _, line := range []string{"FEED 0 1", "FEED 1 2", "MIGRATE ((0 2) 1)"} {
		if resp := c.cmd(t, line); resp != "OK" {
			t.Fatalf("%s -> %s", line, resp)
		}
	}
	c.cmd(t, "STATS") // non-mutating: must not count
	if got := s.walDisabled.Load(); got != 3 {
		t.Fatalf("walDisabled = %d, want 3", got)
	}

	s2 := startDurableServer(t, t.TempDir())
	defer s2.Close()
	c2 := dial(t, s2)
	if resp := c2.cmd(t, "FEED 0 1"); resp != "OK" {
		t.Fatalf("feed: %s", resp)
	}
	if got := s2.walDisabled.Load(); got != 0 {
		t.Fatalf("durable server counted %d unlogged mutations", got)
	}
}

// walFrame encodes one write-ahead-log frame by hand, from the format
// on disk rather than through the durable package's encoder:
// len:u32 | crc32c(payload):u32 | payload, payload = kind:u8 | seq:u64 |
// body, little endian.
func walFrame(kind byte, seq uint64, body []byte) []byte {
	payload := binary.LittleEndian.AppendUint64([]byte{kind}, seq)
	payload = append(payload, body...)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(frame, payload...)
}

// earlierBuildWAL encodes protocol lines as the shard log of a build
// that still wrote a lone FEED as a per-event feed frame (kind 1,
// stream:u8 | key:u64), next to the feedbatch (kind 5, count:u16 |
// count × (stream:u8 | key:u64)) and migrate (kind 2, len:u16 | plan)
// frames every build writes.
func earlierBuildWAL(t *testing.T, lines []string) []byte {
	t.Helper()
	tuple := func(body []byte, stream, key string) []byte {
		s, err1 := strconv.ParseUint(stream, 10, 8)
		k, err2 := strconv.ParseInt(key, 10, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("bad tuple %s %s", stream, key)
		}
		return binary.LittleEndian.AppendUint64(append(body, byte(s)), uint64(k))
	}
	var wal []byte
	for i, line := range lines {
		seq, f := uint64(i+1), strings.Fields(line)
		switch f[0] {
		case "FEED":
			wal = append(wal, walFrame(1, seq, tuple(nil, f[1], f[2]))...)
		case "FEEDB":
			body := binary.LittleEndian.AppendUint16(nil, uint16(len(f)-2))
			for _, key := range f[2:] {
				body = tuple(body, f[1], key)
			}
			wal = append(wal, walFrame(5, seq, body)...)
		case "MIGRATE":
			p := strings.TrimPrefix(line, "MIGRATE ")
			body := binary.LittleEndian.AppendUint16(nil, uint16(len(p)))
			wal = append(wal, walFrame(2, seq, append(body, p...))...)
		default:
			t.Fatalf("no frame for %q", line)
		}
	}
	return wal
}

// TestServerRecoversEarlierBuildsWAL: the log writes one feed record
// kind and reads two. A shard log holding per-event feed frames
// interleaved with feedbatch and migrate frames — what a build before
// this one left behind — recovers to the STATS line and plan of the
// same input logged by this build (feedbatch frames only), and both
// servers then answer the same further input with the same results.
func TestServerRecoversEarlierBuildsWAL(t *testing.T) {
	lines := []string{
		"FEED 0 7", "FEED 1 7", "FEEDB 2 7 8 9", "FEED 0 8", "FEEDB 1 8 9 9",
		"MIGRATE ((0⋈2)⋈1)", // {0,2} is born incomplete; the tail below completes key 9 only
		"FEED 0 9", "FEEDB 1 9 7", "FEED 2 9",
	}
	more := []string{"FEED 1 8", "FEEDB 0 7 8 9", "FEED 2 8", "FEED 1 7"}

	dirNew := t.TempDir()
	s := startDurableServer(t, dirNew)
	c := dial(t, s)
	for _, line := range lines {
		if resp := c.cmd(t, line); resp != "OK" {
			t.Fatalf("%s -> %s", line, resp)
		}
	}
	s.Close() // no final checkpoint: disk state is crash-equivalent

	dirOld := t.TempDir()
	shard := durable.ShardDir(filepath.Join(dirOld, "q-"+DefaultQuery), 0)
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(shard, "wal-0000000000000001.seg"), earlierBuildWAL(t, lines), 0o644); err != nil {
		t.Fatal(err)
	}

	recovered := func(dir string) (stats, plan string, results []string) {
		t.Helper()
		s := startDurableServer(t, dir)
		defer s.Close()
		c := dial(t, s)
		raw, plan := c.cmd(t, "STATS"), c.cmd(t, "PLAN")
		var counted []string // the line minus its wall-clock fields
		for _, f := range strings.Fields(raw) {
			if key, _, _ := strings.Cut(f, "="); !strings.HasSuffix(key, "_ns") && !strings.HasSuffix(key, "_ms") {
				counted = append(counted, f)
			}
		}
		stats = strings.Join(counted, " ")
		sub := dial(t, s)
		if resp := sub.cmd(t, "SUBSCRIBE"); resp != "OK" {
			t.Fatalf("subscribe: %s", resp)
		}
		for _, line := range more {
			if resp := c.cmd(t, line); resp != "OK" {
				t.Fatalf("%s -> %s", line, resp)
			}
		}
		after := c.cmd(t, "STATS")
		produced, _ := strconv.Atoi(statField(t, after, "output"))
		before, _ := strconv.Atoi(statField(t, stats, "output"))
		sub.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		for len(results) < produced-before {
			line, err := sub.r.ReadString('\n')
			if err != nil {
				t.Fatalf("after %d of %d results: %v", len(results), produced-before, err)
			}
			results = append(results, strings.TrimSpace(line))
		}
		sort.Strings(results)
		return stats, plan, results
	}
	statsNew, planNew, resultsNew := recovered(dirNew)
	statsOld, planOld, resultsOld := recovered(dirOld)
	if statsOld != statsNew || planOld != planNew {
		t.Errorf("recovered from the earlier build's log:\n%s\n%s\nfrom this build's:\n%s\n%s", statsOld, planOld, statsNew, planNew)
	}
	if statField(t, statsOld, "recovered_events") != "13" || statField(t, statsOld, "transitions") != "1" {
		t.Errorf("earlier build's log replayed short: %s", statsOld)
	}
	if len(resultsNew) == 0 || strings.Join(resultsOld, "\n") != strings.Join(resultsNew, "\n") {
		t.Errorf("results after recovery:\nearlier build's log %v\nthis build's log %v", resultsOld, resultsNew)
	}
}

// Catalog records are not input tuples: a restart after CREATE, DROP
// and CREATE, with no tuple fed, reports none replayed.
func TestServerRecoveredEventsCountsTuplesOnly(t *testing.T) {
	dir := t.TempDir()
	s := startDurableServer(t, dir)
	c := dial(t, s)
	for _, line := range []string{"CREATE q 50 (0 1)", "DROP q", "CREATE r 50 (0 1)"} {
		if resp := c.cmd(t, line); resp != "OK" {
			t.Fatalf("%s -> %s", line, resp)
		}
	}
	s.Close()
	s2 := startDurableServer(t, dir)
	defer s2.Close()
	if got := s2.DurableStats().RecoveredEvents; got != 0 {
		t.Fatalf("RecoveredEvents = %d after three catalog records and no tuple, want 0", got)
	}
}

// TestServerOpensEarlierBuildsLayout: builds before the catalog had a
// directory of its own kept it as the one file root/catalog.wal. A root
// in that layout — a catalog of CREATE, AUTO ON, CREATE, DROP and
// CREATE, plus the shard log of one query — recovers the same queries,
// AUTO state and per-query input; the open moves catalog.wal into the
// catalog directory, and a second open recovers the same again.
func TestServerOpensEarlierBuildsLayout(t *testing.T) {
	dir := t.TempDir()
	// Catalog bodies: create := nameLen:u8 | name | window:u32 |
	// planLen:u16 | plan, drop := nameLen:u8 | name, auto := drop | on:u8.
	name := func(n string) []byte { return append([]byte{byte(len(n))}, n...) }
	create := func(seq uint64, n, p string) []byte {
		body := binary.LittleEndian.AppendUint32(name(n), 50)
		body = binary.LittleEndian.AppendUint16(body, uint16(len(p)))
		return walFrame(3, seq, append(body, p...))
	}
	var catalog []byte
	for _, frame := range [][]byte{
		create(1, "pairs", "(0⋈1)"),
		walFrame(6, 2, append(name("pairs"), 1)), // AUTO ON pairs
		create(3, "doomed", "(1⋈2)"),
		walFrame(4, 4, name("doomed")),
		create(5, "trio", "((0⋈1)⋈2)"),
	} {
		catalog = append(catalog, frame...)
	}
	legacy := filepath.Join(dir, "catalog.wal")
	if err := os.WriteFile(legacy, catalog, 0o644); err != nil {
		t.Fatal(err)
	}
	shard := durable.ShardDir(filepath.Join(dir, "q-pairs"), 0)
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(shard, "wal-0000000000000001.seg"), earlierBuildWAL(t, []string{"FEEDB 0 3 4", "FEED 1 3"}), 0o644); err != nil {
		t.Fatal(err)
	}

	for open := 1; open <= 2; open++ {
		s := startDurableServer(t, dir)
		c := dial(t, s)
		for line, want := range map[string]string{
			"LIST":              "QUERIES default pairs trio",
			"AUTO STATUS pairs": "enabled=1",
			"AUTO STATUS trio":  "enabled=0",
			"STATS pairs":       "input=3 ",
			"STATS trio":        "input=0 ",
		} {
			if got := c.cmd(t, line); !strings.Contains(got, want) {
				t.Errorf("open %d: %s -> %q, want %q in it", open, line, got, want)
			}
		}
		if got := s.DurableStats().RecoveredEvents; got != 3 {
			t.Errorf("open %d: RecoveredEvents = %d, want pairs' 3 tuples", open, got)
		}
		s.Close()
		if _, err := os.Stat(legacy); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("open %d: catalog.wal still at the root (%v)", open, err)
		}
	}
}

// TestNilStrategyMeansJISC: a template without a strategy runs JISC on
// every query, however the query was made — the default query, a
// CREATE, and both of them recovered from the catalog all answer
// MIGRATE with OK.
func TestNilStrategyMeansJISC(t *testing.T) {
	noLeak(t)
	for _, dir := range []string{"", t.TempDir()} {
		cfg := Config{Pipeline: runtime.Config{Engine: engine.Config{Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 100}}}
		if dir != "" {
			cfg.Durable = durable.Options{Dir: dir, Fsync: durable.FsyncAlways, CheckpointInterval: -1}
		}
		start := func() *Server {
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Listen("127.0.0.1:0"); err != nil {
				s.Close()
				t.Fatal(err)
			}
			return s
		}
		migrate := func(s *Server, p string) {
			c := dial(t, s)
			for _, q := range []string{"", "other "} {
				if resp := c.cmd(t, "MIGRATE "+q+p); resp != "OK" {
					t.Fatalf("durable=%v: MIGRATE %s%s -> %q, want OK", dir != "", q, p, resp)
				}
			}
		}
		s := start()
		if resp := dial(t, s).cmd(t, "CREATE other 100 0,1,2"); resp != "OK" {
			t.Fatalf("CREATE: %s", resp)
		}
		migrate(s, "2,0,1")
		s.Close()
		if dir != "" {
			s = start()
			migrate(s, "1,2,0")
			s.Close()
		}
	}
}

// TestDurableSubscriberMatchesOutput: after a restart that replays the
// WAL, a subscriber reads, line for line, what an engine's Output hands
// out for the same input — the egress encodes whole probes from the
// engine's sink, the reference one built composite at a time — and the
// replay itself sent the subscriber nothing.
func TestDurableSubscriberMatchesOutput(t *testing.T) {
	dir := t.TempDir()
	evs := batchEvents(300)
	cut := 150
	start := func() *Server {
		t.Helper()
		cfg := durableServerConfig(dir)
		cfg.SubscriberBuffer = 1 << 20 // a slow (-race) reader is not dropped
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Listen("127.0.0.1:0"); err != nil {
			s.Close()
			t.Fatal(err)
		}
		return s
	}
	feed := func(s *Server, evs []workload.Event) {
		t.Helper()
		fc, err := Dial(s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer fc.Close()
		for i := 0; i < len(evs); i += 100 {
			if err := fc.FeedBatch(evs[i:min(i+100, len(evs))]); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := start()
	feed(s, evs[:cut])
	s.Close()

	var want []string
	cfg := durableServerConfig(dir).Pipeline.Engine
	cfg.Output = func(d engine.Delta) { want = append(want, wireLine(d)) }
	ref := engine.MustNew(cfg)
	defer ref.Close()
	for _, ev := range evs[:cut] {
		ref.Feed(ev)
	}
	want = want[:0]
	for _, ev := range evs[cut:] {
		ref.Feed(ev)
	}
	if len(want) == 0 {
		t.Fatal("the reference emitted nothing after the cut")
	}

	s2 := start()
	defer s2.Close()
	sub := dial(t, s2)
	if resp := sub.cmd(t, "SUBSCRIBE"); resp != "OK" {
		t.Fatalf("subscribe: %s", resp)
	}
	feed(s2, evs[cut:])
	sub.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	for i, w := range want {
		line, err := sub.r.ReadString('\n')
		if err != nil {
			t.Fatalf("line %d of %d: %v", i, len(want), err)
		}
		if line != w {
			t.Fatalf("line %d = %q, want %q", i, line, w)
		}
	}
	sub.conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if extra, err := sub.r.ReadString('\n'); err == nil {
		t.Fatalf("a line past the reference's %d: %q", len(want), extra)
	}
}
