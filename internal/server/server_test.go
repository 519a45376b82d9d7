package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"jisc/internal/core"
	"jisc/internal/durable"
	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/runtime"
	"jisc/internal/storage"
	"jisc/internal/workload"
)

func newTestServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(Config{Pipeline: runtime.Config{Engine: engine.Config{
		Plan:       plan.MustLeftDeep(0, 1, 2),
		WindowSize: 100,
		Strategy:   core.New(),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

type client struct {
	conn net.Conn
	r    *bufio.Reader
}

func dial(t *testing.T, s *Server) *client {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{conn: conn, r: bufio.NewReader(conn)}
}

func (c *client) cmd(t *testing.T, line string) string {
	t.Helper()
	if _, err := fmt.Fprintln(c.conn, line); err != nil {
		t.Fatal(err)
	}
	resp, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatalf("reading response to %q: %v", line, err)
	}
	return strings.TrimSpace(resp)
}

func TestServerFeedAndStats(t *testing.T) {
	s := newTestServer(t)
	c := dial(t, s)
	for _, cmdLine := range []string{"FEED 0 7", "FEED 1 7", "FEED 2 7"} {
		if resp := c.cmd(t, cmdLine); resp != "OK" {
			t.Fatalf("%s -> %s", cmdLine, resp)
		}
	}
	stats := c.cmd(t, "STATS")
	if !strings.HasPrefix(stats, "STATS ") || !strings.Contains(stats, "input=3") {
		t.Fatalf("stats = %q", stats)
	}
	if !strings.Contains(stats, "output=1") {
		t.Fatalf("stats = %q, want one join result", stats)
	}
}

func TestServerSubscribe(t *testing.T) {
	s := newTestServer(t)
	sub := dial(t, s)
	if resp := sub.cmd(t, "SUBSCRIBE"); resp != "OK" {
		t.Fatalf("subscribe: %s", resp)
	}
	if resp := sub.cmd(t, "SUBSCRIBE"); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("double subscribe: %s", resp)
	}

	feeder := dial(t, s)
	feeder.cmd(t, "FEED 0 9")
	feeder.cmd(t, "FEED 1 9")
	feeder.cmd(t, "FEED 2 9")

	sub.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := sub.r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "RESULT 9 ") {
		t.Fatalf("subscription line = %q", line)
	}
	if s.Subscribers(DefaultQuery) != 1 {
		t.Fatalf("Subscribers = %d", s.Subscribers(DefaultQuery))
	}
}

func TestServerMigrateAndPlan(t *testing.T) {
	s := newTestServer(t)
	c := dial(t, s)
	if resp := c.cmd(t, "PLAN"); resp != "PLAN ((0⋈1)⋈2)" {
		t.Fatalf("plan = %q", resp)
	}
	if resp := c.cmd(t, "MIGRATE 2,0,1"); resp != "OK" {
		t.Fatalf("migrate: %s", resp)
	}
	if resp := c.cmd(t, "PLAN"); resp != "PLAN ((2⋈0)⋈1)" {
		t.Fatalf("plan after migrate = %q", resp)
	}
	if resp := c.cmd(t, "MIGRATE ((("); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("bad migrate: %s", resp)
	}
	// Feeding still works after migration; results flow.
	c.cmd(t, "FEED 0 5")
	c.cmd(t, "FEED 1 5")
	c.cmd(t, "FEED 2 5")
	stats := c.cmd(t, "STATS")
	if !strings.Contains(stats, "transitions=1") || !strings.Contains(stats, "output=1") {
		t.Fatalf("stats = %q", stats)
	}
}

func TestServerErrors(t *testing.T) {
	s := newTestServer(t)
	c := dial(t, s)
	// "FEED 12 7" is the fuzz-found remote crash: stream 12 parses (it
	// is under MaxStreams) but is not in the 3-stream plan, and used to
	// reach the engine's unknown-stream panic.
	for _, bad := range []string{"FEED", "FEED x 1", "FEED 0 x", "FEED 99 1", "FEED 12 7", "FEEDB 12 7 8", "BOGUS"} {
		if resp := c.cmd(t, bad); !strings.HasPrefix(resp, "ERR") {
			t.Fatalf("%q -> %q, want ERR", bad, resp)
		}
	}
	if resp := c.cmd(t, "QUIT"); resp != "OK" {
		t.Fatalf("quit: %s", resp)
	}
}

func TestServerConfigValidation(t *testing.T) {
	if _, err := New(Config{Pipeline: runtime.Config{Engine: engine.Config{
		Plan:   plan.MustLeftDeep(0, 1),
		Output: func(engine.Delta) {},
	}}}); err == nil {
		t.Error("output-owning config accepted")
	}
	if _, err := New(Config{
		Pipeline:         runtime.Config{Engine: engine.Config{Plan: plan.MustLeftDeep(0, 1)}},
		SubscriberBuffer: -1,
	}); err == nil {
		t.Error("negative buffer accepted")
	}
	// A server with no default query is legal: CREATE adds queries.
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Queries()) != 0 {
		t.Errorf("queries = %v", s.Queries())
	}
	s.Close()
}

func TestServerCloseIsIdempotent(t *testing.T) {
	s := newTestServer(t)
	c := dial(t, s)
	c.cmd(t, "FEED 0 1")
	s.Close()
	s.Close()
}

func TestServerConcurrentClients(t *testing.T) {
	s := newTestServer(t)
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			conn, err := net.Dial("tcp", s.Addr().String())
			if err != nil {
				done <- err
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			for i := 0; i < 100; i++ {
				fmt.Fprintf(conn, "FEED %d %d\n", (w+i)%3, i%10)
				if _, err := r.ReadString('\n'); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	c := dial(t, s)
	stats := c.cmd(t, "STATS")
	if !strings.Contains(stats, "input=400") {
		t.Fatalf("stats = %q, want input=400", stats)
	}
}

func TestClientRoundTrip(t *testing.T) {
	s := newTestServer(t)
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, ev := range []workload.Event{{Stream: 0, Key: 7}, {Stream: 1, Key: 7}, {Stream: 2, Key: 7}} {
		if err := c.Feed(ev); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Input != 3 || st.Output != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if err := c.Migrate(plan.MustLeftDeep(2, 0, 1)); err != nil {
		t.Fatal(err)
	}
	p, err := c.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(plan.MustLeftDeep(2, 0, 1)) {
		t.Fatalf("plan = %s", p)
	}
	if err := c.Feed(workload.Event{Stream: 99, Key: 0}); err == nil {
		t.Fatal("bad feed accepted")
	}
}

func TestClientSubscribe(t *testing.T) {
	s := newTestServer(t)
	sub, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	results, err := sub.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	feeder, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer feeder.Close()
	for _, ev := range []workload.Event{{Stream: 0, Key: 5}, {Stream: 1, Key: 5}, {Stream: 2, Key: 5}} {
		if err := feeder.Feed(ev); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case r := <-results:
		if r.Key != 5 || r.Retraction || r.Fingerprint != "0#1|1#1|2#1" {
			t.Fatalf("result = %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no result streamed")
	}
}

func TestServerCheckpointCommand(t *testing.T) {
	s := newTestServer(t)
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Feed(workload.Event{Stream: 0, Key: 4}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "srv.ckpt")
	if err := c.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	payload, err := durable.ReadSnapshotFile(storage.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	restored, err := engine.Restore(bytes.NewReader(payload), engine.Config{
		WindowSize: 100, Strategy: core.New(),
		Output: func(engine.Delta) { n++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	restored.Feed(workload.Event{Stream: 1, Key: 4})
	restored.Feed(workload.Event{Stream: 2, Key: 4})
	if n != 1 {
		t.Fatalf("restored results = %d", n)
	}
	if err := c.Checkpoint(""); err == nil {
		t.Fatal("empty path accepted")
	}
}

func TestServerMultiQuery(t *testing.T) {
	s := newTestServer(t)
	c := dial(t, s)
	// Create a second query with its own plan and window.
	if resp := c.cmd(t, "CREATE alerts 50 ((0 1) 2)"); resp != "OK" {
		t.Fatalf("create: %s", resp)
	}
	if resp := c.cmd(t, "CREATE alerts 50 0,1"); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("duplicate create: %s", resp)
	}
	if resp := c.cmd(t, "LIST"); resp != "QUERIES alerts default" {
		t.Fatalf("list: %s", resp)
	}
	// Feed the named query and the default query independently.
	for _, line := range []string{"FEED alerts 0 9", "FEED alerts 1 9", "FEED alerts 2 9", "FEED 0 9"} {
		if resp := c.cmd(t, line); resp != "OK" {
			t.Fatalf("%s -> %s", line, resp)
		}
	}
	if resp := c.cmd(t, "STATS alerts"); !strings.Contains(resp, "input=3") || !strings.Contains(resp, "output=1") {
		t.Fatalf("alerts stats: %s", resp)
	}
	if resp := c.cmd(t, "STATS"); !strings.Contains(resp, "input=1") {
		t.Fatalf("default stats: %s", resp)
	}
	// Migrate only the named query.
	if resp := c.cmd(t, "MIGRATE alerts 2,1,0"); resp != "OK" {
		t.Fatalf("migrate alerts: %s", resp)
	}
	if resp := c.cmd(t, "PLAN alerts"); resp != "PLAN ((2⋈1)⋈0)" {
		t.Fatalf("alerts plan: %s", resp)
	}
	if resp := c.cmd(t, "PLAN"); resp != "PLAN ((0⋈1)⋈2)" {
		t.Fatalf("default plan changed: %s", resp)
	}
	// Drop the named query.
	if resp := c.cmd(t, "DROP alerts"); resp != "OK" {
		t.Fatalf("drop: %s", resp)
	}
	if resp := c.cmd(t, "DROP alerts"); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("double drop: %s", resp)
	}
	if resp := c.cmd(t, "LIST"); resp != "QUERIES default" {
		t.Fatalf("list after drop: %s", resp)
	}
	if resp := c.cmd(t, "FEED alerts 0 1"); !strings.HasPrefix(resp, "ERR") {
		// "alerts" no longer resolves; falls through to the default
		// query, where "alerts" is not a valid stream id.
		t.Fatalf("feed to dropped query: %s", resp)
	}
}

func TestServerMultiQuerySubscriptions(t *testing.T) {
	s := newTestServer(t)
	admin := dial(t, s)
	if resp := admin.cmd(t, "CREATE side 50 0,1"); resp != "OK" {
		t.Fatalf("create: %s", resp)
	}
	sub := dial(t, s)
	if resp := sub.cmd(t, "SUBSCRIBE side"); resp != "OK" {
		t.Fatalf("subscribe side: %s", resp)
	}
	// One connection may subscribe to several queries.
	if resp := sub.cmd(t, "SUBSCRIBE"); resp != "OK" {
		t.Fatalf("subscribe default: %s", resp)
	}
	admin.cmd(t, "FEED side 0 4")
	admin.cmd(t, "FEED side 1 4")
	sub.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := sub.r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "RESULT 4 ") {
		t.Fatalf("line = %q", line)
	}
	if s.Subscribers("side") != 1 || s.Subscribers(DefaultQuery) != 1 {
		t.Fatalf("subscribers: side=%d default=%d", s.Subscribers("side"), s.Subscribers(DefaultQuery))
	}
	// Dropping the subscribed query ends its stream without killing
	// the connection.
	if resp := admin.cmd(t, "DROP side"); resp != "OK" {
		t.Fatalf("drop: %s", resp)
	}
	if resp := sub.cmd(t, "LIST"); resp != "QUERIES default" {
		t.Fatalf("list after drop: %s", resp)
	}
}

func TestServerNoDefaultQuery(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	c := dial(t, s)
	if resp := c.cmd(t, "FEED 0 1"); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("feed with no queries: %s", resp)
	}
	if resp := c.cmd(t, "CREATE q1 10 0,1"); resp != "OK" {
		t.Fatalf("create: %s", resp)
	}
	if resp := c.cmd(t, "FEED q1 0 1"); resp != "OK" {
		t.Fatalf("feed q1: %s", resp)
	}
	if resp := c.cmd(t, "CREATE bad 0 0,1"); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("zero window create: %s", resp)
	}
}

func TestScopedClient(t *testing.T) {
	s := newTestServer(t)
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Create("other", 20, plan.MustLeftDeep(0, 1)); err != nil {
		t.Fatal(err)
	}
	names, err := c.List()
	if err != nil || len(names) != 2 {
		t.Fatalf("list = %v, %v", names, err)
	}
	sc := c.On("other")
	if err := sc.Feed(workload.Event{Stream: 0, Key: 3}); err != nil {
		t.Fatal(err)
	}
	if err := sc.Feed(workload.Event{Stream: 1, Key: 3}); err != nil {
		t.Fatal(err)
	}
	st, err := sc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Input != 2 || st.Output != 1 {
		t.Fatalf("scoped stats = %+v", st)
	}
	if err := sc.Migrate(plan.MustLeftDeep(1, 0)); err != nil {
		t.Fatal(err)
	}
	// The default query is untouched.
	dst, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if dst.Input != 0 || dst.Transitions != 0 {
		t.Fatalf("default stats = %+v", dst)
	}
	if err := c.Drop("other"); err != nil {
		t.Fatal(err)
	}
	if err := c.Drop("other"); err == nil {
		t.Fatal("double drop accepted")
	}
	if _, err := c.Raw("LIST"); err != nil {
		t.Fatal(err)
	}
}

// TestSplitQuery: only the first word is looked up. A hosted query's
// name is consumed and what follows comes back with its blanks
// normalised; any other first word — a stream number, an unknown name —
// addresses the default query with the payload exactly as it arrived.
func TestSplitQuery(t *testing.T) {
	s := newTestServer(t)
	c := dial(t, s)
	if resp := c.cmd(t, "CREATE side 50 0,1"); resp != "OK" {
		t.Fatalf("create: %s", resp)
	}
	cases := []struct{ rest, query, args string }{
		{"side", "side", ""},
		{" \t side\t", "side", ""},
		{"side 0 7", "side", "0 7"},
		{"\t side \t0   7 \t 8 ", "side", "0 7 8"},
		{"0 7 8", DefaultQuery, "0 7 8"},
		{" \t0  7\t8 ", DefaultQuery, " \t0  7\t8 "},
		{"sidecar 0 7", DefaultQuery, "sidecar 0 7"},
		{"default 1 2", DefaultQuery, "1 2"},
		{"", DefaultQuery, ""},
		{" \t ", DefaultQuery, " \t "},
	}
	for _, tc := range cases {
		q, args, err := s.splitQuery(tc.rest)
		if err != nil || q.name != tc.query || args != tc.args {
			t.Errorf("splitQuery(%q) = %v, %q, %v; want query %q, args %q", tc.rest, q, args, err, tc.query, tc.args)
		}
	}
	empty, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	if _, _, err := empty.splitQuery("0 7"); err == nil || !strings.Contains(err.Error(), "no default query") {
		t.Errorf("no default query: err = %v", err)
	}
}
