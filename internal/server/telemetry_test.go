package server

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"testing"

	"jisc/internal/admission"
	"jisc/internal/engine"
	"jisc/internal/obs"
	"jisc/internal/plan"
	"jisc/internal/runtime"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// scrape GETs a telemetry path and returns the body, failing the test
// on any non-200.
func scrape(t *testing.T, s *Server, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + s.TelemetryAddr().String() + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, body %q", path, resp.StatusCode, body)
	}
	return string(body)
}

// TestTelemetryLiveMigration is the end-to-end observability check:
// a live server feeds, migrates under JISC, and keeps feeding so lazy
// completion episodes run; /metrics must then expose a non-empty
// completion-episode histogram, and /trace the migration lifecycle.
func TestTelemetryLiveMigration(t *testing.T) {
	s := newTestServer(t)
	if err := s.ServeTelemetry("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	feed := func(n int, seed int64) {
		src := workload.MustNewSource(workload.Config{Streams: 3, Domain: 24, Seed: seed})
		for i := 0; i < n; i++ {
			if err := c.Feed(src.Next()); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(400, 1)
	if err := c.Migrate(plan.MustLeftDeep(2, 0, 1)); err != nil {
		t.Fatal(err)
	}
	feed(400, 2)
	if _, err := c.Stats(); err != nil { // in-band: everything above is processed
		t.Fatal(err)
	}

	if got := scrape(t, s, "/healthz"); got != "ok\n" {
		t.Fatalf("/healthz = %q", got)
	}

	metrics := scrape(t, s, "/metrics")
	count := func(name string) uint64 {
		re := regexp.MustCompile(`(?m)^` + name + `_count\{query="default"\} (\d+)$`)
		m := re.FindStringSubmatch(metrics)
		if m == nil {
			t.Fatalf("no %s_count series in metrics:\n%s", name, metrics)
		}
		n, err := strconv.ParseUint(m[1], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if count("jisc_completion_episode_seconds") == 0 {
		t.Error("completion-episode histogram empty after live migration")
	}
	if count("jisc_feed_latency_seconds") == 0 {
		t.Error("feed-latency histogram empty")
	}
	if count("jisc_migrate_seconds") == 0 {
		t.Error("migrate histogram empty")
	}
	// Bucket lines must be present and cumulative for the episode
	// histogram (the Prometheus contract scrapers rely on).
	bucketRe := regexp.MustCompile(`(?m)^jisc_completion_episode_seconds_bucket\{query="default",le="[^"]+"\} (\d+)$`)
	var last uint64
	buckets := bucketRe.FindAllStringSubmatch(metrics, -1)
	if len(buckets) == 0 {
		t.Fatal("no completion-episode bucket lines")
	}
	for _, b := range buckets {
		n, _ := strconv.ParseUint(b[1], 10, 64)
		if n < last {
			t.Fatalf("bucket counts not cumulative: %d after %d", n, last)
		}
		last = n
	}
	if !regexp.MustCompile(`(?m)^jisc_transitions_total\{query="default"\} 1$`).MatchString(metrics) {
		t.Error("transitions counter missing or wrong")
	}

	var dump struct {
		Queries []struct {
			Query  string `json:"query"`
			Events []struct {
				Kind string `json:"kind"`
			} `json:"events"`
		} `json:"queries"`
	}
	if err := json.Unmarshal([]byte(scrape(t, s, "/trace")), &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Queries) != 1 || dump.Queries[0].Query != "default" {
		t.Fatalf("trace dump queries = %+v", dump.Queries)
	}
	kinds := map[string]int{}
	for _, ev := range dump.Queries[0].Events {
		kinds[ev.Kind]++
	}
	if kinds["plan-installed"] == 0 {
		t.Errorf("no plan-installed trace event; kinds: %v", kinds)
	}
	if kinds["completion-end"] == 0 {
		t.Errorf("no completion-end trace event; kinds: %v", kinds)
	}
}

// TestStatsLatencyFields: the extended STATS fields reach the typed
// client.
func TestStatsLatencyFields(t *testing.T) {
	s := newTestServer(t)
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	src := workload.MustNewSource(workload.Config{Streams: 3, Domain: 16, Seed: 3})
	for i := 0; i < 200; i++ {
		if err := c.Feed(src.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Migrate(plan.MustLeftDeep(1, 2, 0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := c.Feed(src.Next()); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Input != 400 {
		t.Fatalf("Input = %d, want 400", st.Input)
	}
	if st.FeedP50Ns == 0 || st.FeedP99Ns < st.FeedP50Ns {
		t.Fatalf("feed quantiles p50=%d p99=%d", st.FeedP50Ns, st.FeedP99Ns)
	}
	if st.Episodes == 0 {
		t.Fatal("no completion episodes counted")
	}
	if st.SubsDropped != 0 {
		t.Fatalf("SubsDropped = %d, want 0", st.SubsDropped)
	}
}

// TestSubscriberDropCounted: a subscriber that falls behind is
// disconnected — and that drop is counted and traced, never silent.
func TestSubscriberDropCounted(t *testing.T) {
	q, err := newQuery("q", runtime.Config{Engine: engine.Config{
		Plan: plan.MustLeftDeep(0, 1), WindowSize: 16,
	}}, 2, admission.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.close()
	_, su := q.subscribe()
	e := &egress{q: q}
	for i := 0; i < 4; i++ { // buffer is 2: the third hand-off overflows
		e.emit(engine.Delta{Tuple: tuple.NewBase(0, uint64(i+1), 7, uint64(i+1))})
		e.flush()
	}
	if got := q.dropped(); got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
	if q.subscribers() != 0 {
		t.Fatalf("subscriber still registered after drop")
	}
	// The lines handed off before the drop still drain; then the stream
	// ends.
	if chunk, ok := su.take(nil); !ok || string(chunk) != "RESULT 7 0#1\nRESULT 7 0#2\n" {
		t.Fatalf("drained %q, %v", chunk, ok)
	}
	if _, ok := su.take(nil); ok {
		t.Fatal("dropped subscriber's stream did not end")
	}
	found := false
	for _, ev := range q.obs.Tracer.Events() {
		if ev.Kind == obs.EvSubscriberDropped {
			found = true
		}
	}
	if !found {
		t.Fatal("no subscriber-dropped trace event")
	}
}
