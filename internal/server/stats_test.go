package server

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"jisc/internal/obs"
)

// filledView returns a view in which every row of metricTable reads a
// different value: each scalar a getter can reach is numbered, and the
// histograms behind the quantile and count keys hold different samples.
func filledView(t *testing.T) *view {
	t.Helper()
	v := &view{query: "q"}
	next := uint64(1000)
	var fill func(reflect.Value)
	fill = func(x reflect.Value) {
		switch x.Kind() {
		case reflect.Struct:
			if _, hist := x.Interface().(obs.HistSnapshot); hist {
				return
			}
			for i := 0; i < x.NumField(); i++ {
				fill(reflect.NewAt(x.Field(i).Type(), x.Field(i).Addr().UnsafePointer()).Elem())
			}
		case reflect.Uint64:
			x.SetUint(next)
			next++
		case reflect.Int64:
			x.SetInt(int64(next))
			next++
		}
	}
	fill(reflect.ValueOf(v).Elem())
	hist := func(n int, base time.Duration) obs.HistSnapshot {
		var h obs.Histogram
		for i := 1; i <= n; i++ {
			h.Record(base * time.Duration(i))
		}
		return h.Snapshot()
	}
	v.o.Feed = hist(100, time.Microsecond)
	v.o.Completion = hist(7, time.Millisecond)
	v.o.WALFsync = hist(5, 3*time.Millisecond)
	v.o.BatchFill = hist(13, 40)
	seen := map[uint64]string{}
	for _, r := range metricTable {
		if r.get == nil {
			continue
		}
		name := r.key + r.family
		if prev, dup := seen[r.get(v)]; dup {
			t.Fatalf("filled view: %s and %s both read %d", prev, name, r.get(v))
		}
		seen[r.get(v)] = name
	}
	return v
}

// TestStatsRoundTrip: what the server renders, the client parses —
// every key lands in its own Stats field with its row's value, no key
// is left unparsed, and no Stats field is left without a key.
func TestStatsRoundTrip(t *testing.T) {
	v := filledView(t)
	line := string(v.statsLine())
	st, err := parseStats(line)
	if err != nil {
		t.Fatal(err)
	}
	fields := map[*uint64]string{}
	for _, r := range metricTable {
		if r.key == "" {
			if r.field != nil {
				t.Errorf("%s: a row without a STATS key has a Stats field", r.family)
			}
			continue
		}
		if r.field == nil {
			t.Errorf("%s: the client leaves this key unparsed", r.key)
			continue
		}
		p := r.field(&st)
		if prev, dup := fields[p]; dup {
			t.Errorf("%s and %s share one Stats field", prev, r.key)
		}
		fields[p] = r.key
		if *p != r.get(v) {
			t.Errorf("%s: parsed %d, served %d", r.key, *p, r.get(v))
		}
		if want := fmt.Sprintf(" %s=%d", r.key, r.get(v)); !strings.Contains(line+" ", want+" ") {
			t.Errorf("STATS line lacks %q: %s", want, line)
		}
	}
	if n := reflect.TypeOf(st).NumField(); n != len(fields) {
		t.Errorf("Stats has %d fields, the table fills %d", n, len(fields))
	}
	if got := len(strings.Fields(line)) - 1; got != len(fields) {
		t.Errorf("STATS line has %d fields, the table has %d keys", got, len(fields))
	}
}

// TestAutoStatusRoundTrip: the AUTO STATUS line is the autopilot's rows
// under their short names, in table order, with the row's values.
func TestAutoStatusRoundTrip(t *testing.T) {
	v := filledView(t)
	want := "AUTO query=q"
	for _, r := range metricTable {
		if r.auto {
			want += fmt.Sprintf(" %s=%d", strings.TrimPrefix(r.key, "auto_"), r.get(v))
		}
	}
	if got := string(v.autoLine()); got != want {
		t.Fatalf("AUTO STATUS line\n got %s\nwant %s", got, want)
	}
	if n := len(strings.Fields(want)); n != 7 {
		t.Fatalf("AUTO STATUS has %d fields, the protocol has 7: %s", n, want)
	}
}

// goldenStatsKeys and goldenFamilies were captured from the commit
// before the table existed: the table may not rename, drop, add or
// (for STATS) reorder what is on the wire.
var goldenStatsKeys = strings.Fields(`input output transitions completions shed feed_p50_ns feed_p99_ns
	episodes subs_dropped wal_appends wal_fsync_p99_ns recovered_events batch_fill_p50 batch_flushes
	state_bytes spill_faults auto_enabled auto_proposals auto_migrations auto_rollbacks
	last_migration_age_ms admission_shed deadline_shed rejected rejected_batches inflight_bytes draining`)

const goldenFamilies = `# TYPE jisc_admission_conns gauge
# TYPE jisc_admission_conns_rejected_total counter
# TYPE jisc_admission_deadline_shed_tuples_total counter
# TYPE jisc_admission_inflight_bytes gauge
# TYPE jisc_admission_rejected_batches_total counter
# TYPE jisc_admission_rejected_tuples_total counter
# TYPE jisc_admission_shed_tuples_total counter
# TYPE jisc_auto_enabled gauge
# TYPE jisc_auto_last_migration_seconds gauge
# TYPE jisc_auto_migrations_total counter
# TYPE jisc_auto_proposals_total counter
# TYPE jisc_auto_rollbacks_total counter
# TYPE jisc_batch_fill histogram
# TYPE jisc_batch_flush_total counter
# TYPE jisc_checkpoint_failures_total counter
# TYPE jisc_checkpoints_total counter
# TYPE jisc_completed_entries_total counter
# TYPE jisc_completion_episode_seconds histogram
# TYPE jisc_completions_total counter
# TYPE jisc_draining gauge
# TYPE jisc_feed_latency_seconds histogram
# TYPE jisc_input_tuples_total counter
# TYPE jisc_migrate_seconds histogram
# TYPE jisc_output_tuples_total counter
# TYPE jisc_queue_depth gauge
# TYPE jisc_recovered_events_total counter
# TYPE jisc_recovery_seconds gauge
# TYPE jisc_shed_tuples_total counter
# TYPE jisc_spill_fault_seconds histogram
# TYPE jisc_spill_fault_total counter
# TYPE jisc_spill_segments gauge
# TYPE jisc_state_bytes gauge
# TYPE jisc_subscribers gauge
# TYPE jisc_subscribers_dropped_total counter
# TYPE jisc_trace_dropped_total counter
# TYPE jisc_trace_events_total counter
# TYPE jisc_transitions_total counter
# TYPE jisc_wal_append_bytes_total counter
# TYPE jisc_wal_append_seconds histogram
# TYPE jisc_wal_appends_total counter
# TYPE jisc_wal_disabled gauge
# TYPE jisc_wal_disabled_mutations_total counter
# TYPE jisc_wal_fsync_seconds histogram
# TYPE jisc_wal_fsyncs_total counter
# TYPE jisc_wal_rotations_total counter
# TYPE jisc_wal_segments gauge
# TYPE jisc_wal_segments_removed_total counter
# TYPE jisc_wal_torn_truncations_total counter
`

func TestGoldenNames(t *testing.T) {
	v := filledView(t)
	var keys []string
	for _, f := range strings.Fields(string(v.statsLine()))[1:] {
		k, _, _ := strings.Cut(f, "=")
		keys = append(keys, k)
	}
	if !reflect.DeepEqual(keys, goldenStatsKeys) {
		t.Errorf("STATS keys\n got %v\nwant %v", keys, goldenStatsKeys)
	}
	var b strings.Builder
	writeMetrics(&b, v, []view{*v})
	var types []string
	for _, l := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(l, "# TYPE ") {
			types = append(types, l)
		}
	}
	sort.Strings(types)
	if got := strings.Join(types, "\n") + "\n"; got != goldenFamilies {
		t.Errorf("/metrics families\n got:\n%swant:\n%s", got, goldenFamilies)
	}
	// One labelled series per query, one unlabelled one for the server.
	for _, r := range metricTable {
		if r.family == "" || r.kind == histogram {
			continue
		}
		labels := `{query="q"} `
		if r.server {
			labels = "{} "
		}
		if n := strings.Count(b.String(), "\n"+r.family+labels); n != 1 {
			t.Errorf("%s: %d series starting %q, want 1", r.family, n, r.family+labels)
		}
	}
}

func TestMetricTableHygiene(t *testing.T) {
	seen := map[string]bool{}
	for i, r := range metricTable {
		if r.key == "" && r.family == "" {
			t.Fatalf("row %d serves nothing", i)
		}
		for _, name := range []string{r.key, r.family} {
			if name != "" && seen[name] {
				t.Errorf("%s appears twice", name)
			}
			seen[name] = true
		}
		name := r.key + r.family
		if r.help == "" {
			t.Errorf("%s: no help text", name)
		}
		if (r.kind == histogram) != (r.hist != nil) || (r.kind != histogram) != (r.get != nil) {
			t.Errorf("%s: kind %q does not match its getter", name, r.kind)
		}
		if (r.family == "") != (r.kind == "") {
			t.Errorf("%s: a family has a kind, a STATS-only row has none", name)
		}
		if (r.kind == counter) != strings.HasSuffix(r.family, "_total") {
			t.Errorf("%s: counters, and only counters, end in _total", name)
		}
		// A family names its unit: seconds exactly when the getter's
		// nanoseconds or milliseconds are scaled, raw otherwise.
		if (r.per != 0) != strings.HasSuffix(r.family, "_seconds") {
			t.Errorf("%s: per=%g but the family name says otherwise", name, r.per)
		}
		if r.auto && (r.key == "" || r.server) {
			t.Errorf("%s: an AUTO STATUS field is a keyed per-query row", name)
		}
		if r.server && r.kind == histogram {
			t.Errorf("%s: no server-wide histograms (writeSeries labels them per query)", name)
		}
	}
}

// renderReference is the documented form of metricTable: the block
// README.md carries between the metrics-reference markers.
func renderReference() string {
	var b strings.Builder
	b.WriteString("| `STATS` key | `/metrics` family | type | meaning |\n|---|---|---|---|\n")
	for _, r := range metricTable {
		cell := func(s string) string {
			if s == "" {
				return "—"
			}
			return "`" + s + "`"
		}
		typ := string(r.kind)
		switch {
		case r.kind == "":
			typ = "—"
		case r.per != 0:
			typ += ", seconds"
		case r.kind == histogram:
			typ += ", raw"
		}
		if r.server {
			typ += ", server-wide"
		}
		help := r.help
		if r.auto {
			help += "; `" + strings.TrimPrefix(r.key, "auto_") + "` in `AUTO STATUS`"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", cell(r.key), cell(r.family), typ, help)
	}
	return b.String()
}

// TestMetricsReference keeps the one written key reference honest: a
// row added, renamed or re-described without the README following
// fails here, and the failure prints the block to paste.
func TestMetricsReference(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- metrics-reference:begin -->\n", "<!-- metrics-reference:end -->"
	_, rest, ok := strings.Cut(string(readme), begin)
	block, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("README.md has no %s … %s block", strings.TrimSpace(begin), end)
	}
	if want := renderReference(); block != want {
		t.Errorf("README.md metrics reference is not what metricTable renders; it should read:\n%s", want)
	}
}
