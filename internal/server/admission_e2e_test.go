package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"jisc/internal/admission"
	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/runtime"
	"jisc/internal/workload"
)

// admissionServer starts a server with the given admission config and
// timeouts over the standard 3-stream test pipeline.
func admissionServer(t *testing.T, adm admission.Config, readTO, writeTO time.Duration) *Server {
	t.Helper()
	s, err := New(Config{
		Pipeline: runtime.Config{Engine: engine.Config{
			Plan:       plan.MustLeftDeep(0, 1, 2),
			WindowSize: 100,
			Strategy:   core.New(),
		}},
		Admission:    adm,
		ReadTimeout:  readTO,
		WriteTimeout: writeTO,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestServerConnCap: dials beyond -max-conns draw one BUSY line and a
// close; a released slot is immediately reusable.
func TestServerConnCap(t *testing.T) {
	noLeak(t)
	s := admissionServer(t, admission.Config{MaxConns: 1}, 0, 0)
	c1 := dial(t, s)
	if resp := c1.cmd(t, "FEED 0 1"); resp != "OK" {
		t.Fatalf("capped conn 1: %s", resp)
	}

	c2, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c2.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(c2).ReadString('\n')
	if err != nil {
		t.Fatalf("over-cap dial: %v", err)
	}
	if !strings.HasPrefix(line, "ERR BUSY too many connections") {
		t.Fatalf("over-cap greeting = %q", line)
	}
	// The server closes the rejected conn: the next read is EOF.
	if _, err := bufio.NewReader(c2).ReadString('\n'); err == nil {
		t.Fatal("rejected conn left open")
	}
	c2.Close()

	// Releasing the held slot lets a new dial in.
	c1.conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c3, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c3.SetDeadline(time.Now().Add(2 * time.Second))
		fmt.Fprintf(c3, "FEED 0 2\n")
		resp, err := bufio.NewReader(c3).ReadString('\n')
		c3.Close()
		if err == nil && strings.TrimSpace(resp) == "OK" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never released: resp=%q err=%v", resp, err)
		}
		time.Sleep(20 * time.Millisecond) // the old conn's teardown may lag the close
	}
}

// TestServerRateLimitShedAccounting: a hose past the ingest rate gets
// every line acknowledged OK, but STATS shows the overage as
// admission_shed and conservation holds: input + admission_shed ==
// sent.
func TestServerRateLimitShedAccounting(t *testing.T) {
	noLeak(t)
	s := admissionServer(t, admission.Config{Rate: 50, Burst: 50}, 0, 0)
	c := dial(t, s)
	const sent = 300
	for i := 0; i < sent; i++ {
		if resp := c.cmd(t, fmt.Sprintf("FEED %d %d", i%3, i%7)); resp != "OK" {
			t.Fatalf("feed %d: %q (sheds must ack OK)", i, resp)
		}
	}
	stats := c.cmd(t, "STATS")
	input := statUint(t, stats, "input")
	shed := statUint(t, stats, "admission_shed")
	if input+shed != sent {
		t.Fatalf("conservation: input %d + admission_shed %d != %d\n%s", input, shed, sent, stats)
	}
	if shed == 0 {
		t.Fatal("nothing shed at 6x the rate limit")
	}
	if input == 0 {
		t.Fatal("everything shed — the burst should have admitted some")
	}
}

// TestServerInflightBudgetBusy: a single batch whose cost exceeds the
// whole in-flight budget is rejected with a retriable BUSY naming the
// budget, and counted.
func TestServerInflightBudgetBusy(t *testing.T) {
	noLeak(t)
	// Budget of 2 tuples' worth: any FEEDB with more can never fit.
	s := admissionServer(t, admission.Config{InflightBytes: 64}, 0, 0)
	c := dial(t, s)
	resp := c.cmd(t, "FEEDB 0 1 2 3 4")
	if !strings.HasPrefix(resp, "ERR BUSY") || !strings.Contains(resp, "in-flight budget") {
		t.Fatalf("over-budget FEEDB -> %q", resp)
	}
	stats := c.cmd(t, "STATS")
	if got := statUint(t, stats, "rejected"); got != 4 {
		t.Fatalf("rejected = %d, want 4", got)
	}
	if got := statUint(t, stats, "rejected_batches"); got != 1 {
		t.Fatalf("rejected_batches = %d, want 1", got)
	}
	// Within-budget traffic still flows.
	if resp := c.cmd(t, "FEED 0 1"); resp != "OK" {
		t.Fatalf("within-budget feed: %s", resp)
	}
}

// TestClientRetriesBusy: the typed client's jittered-backoff retry
// turns transient BUSY rejections into eventual delivery — under a
// tight in-flight budget and concurrent feeders, every tuple lands
// exactly once.
func TestClientRetriesBusy(t *testing.T) {
	noLeak(t)
	s := admissionServer(t, admission.Config{InflightBytes: 8 * 32}, 0, 0)
	const feeders, perFeeder = 4, 200
	var wg sync.WaitGroup
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			c, err := Dial(s.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			c.RetryBusy = 100
			src := workload.MustNewSource(workload.Config{Streams: 3, Domain: 8, Seed: int64(f)})
			evs := src.Take(perFeeder)
			for i := 0; i < len(evs); i += 8 {
				end := i + 8
				if end > len(evs) {
					end = len(evs)
				}
				if err := c.FeedBatch(evs[i:end]); err != nil {
					t.Errorf("feeder %d: %v", f, err)
					return
				}
			}
		}(f)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Input != feeders*perFeeder {
		t.Fatalf("input = %d, want %d (BUSY retries must deliver exactly once)", st.Input, feeders*perFeeder)
	}
}

// TestServerReadTimeout: a half-sent command times the connection out,
// but a fully idle connection is never reaped — the deadline arms only
// once the first byte of a line arrives.
func TestServerReadTimeout(t *testing.T) {
	noLeak(t)
	s := admissionServer(t, admission.Config{}, 150*time.Millisecond, 0)

	// Idle conn: no bytes sent, must survive well past the timeout.
	idle := dial(t, s)
	time.Sleep(450 * time.Millisecond)
	if resp := idle.cmd(t, "FEED 0 1"); resp != "OK" {
		t.Fatalf("idle conn reaped: %s", resp)
	}

	// Half a line and then silence: the server must cut the conn.
	stuck, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stuck.Close()
	if _, err := fmt.Fprintf(stuck, "FEE"); err != nil {
		t.Fatal(err)
	}
	stuck.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := bufio.NewReader(stuck).ReadString('\n'); err == nil {
		t.Fatal("half-line conn survived the read timeout")
	}
}

// TestBlockedSubscriberCannotStallFeeds is the satellite-4 regression:
// subscriber-drop (slow consumer) and admission shed share one
// ordering, and a subscriber wedged mid-TCP-write is bounded by the
// write deadline — it can never pin its connection's writer lock, and
// the feed path keeps acknowledging at full speed throughout.
func TestBlockedSubscriberCannotStallFeeds(t *testing.T) {
	noLeak(t)
	s, err := New(Config{
		Pipeline: runtime.Config{Engine: engine.Config{
			Plan:       plan.MustLeftDeep(0, 1),
			WindowSize: 2000,
			Strategy:   core.New(),
		}},
		SubscriberBuffer: 4,
		WriteTimeout:     200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	// The victim subscriber: tiny receive window, then never reads.
	subConn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer subConn.Close()
	if tc, ok := subConn.(*net.TCPConn); ok {
		tc.SetReadBuffer(1 << 10)
	}
	fmt.Fprintf(subConn, "SUBSCRIBE\n")
	subConn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if line, err := bufio.NewReader(subConn).ReadString('\n'); err != nil || strings.TrimSpace(line) != "OK" {
		t.Fatalf("subscribe: %q, %v", line, err)
	}
	// From here on the subscriber reads nothing.

	// The feeder: a high-fanout join (every stream-1 tuple matches the
	// whole windowed stream-0 population) floods the subscriber with
	// result lines until its socket jams.
	feeder := dial(t, s)
	for i := 0; i < 1000; i++ {
		if resp := feeder.cmd(t, "FEED 0 7"); resp != "OK" {
			t.Fatalf("warmup feed %d: %s", i, resp)
		}
	}
	// Each of these produces ~1000 result lines; the feed ack must
	// come back promptly even while the subscriber's conn is wedged.
	for i := 0; i < 200; i++ {
		feeder.conn.SetDeadline(time.Now().Add(5 * time.Second))
		if resp := feeder.cmd(t, "FEED 1 7"); resp != "OK" {
			t.Fatalf("fanout feed %d: %s", i, resp)
		}
	}

	// The wedged subscriber must be gone within the write deadline —
	// dropped by the slow-consumer policy and its conn closed by the
	// deadline, counted in subs_dropped.
	deadline := time.Now().Add(10 * time.Second)
	for s.Subscribers(DefaultQuery) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocked subscriber still registered")
		}
		time.Sleep(20 * time.Millisecond)
	}
	st, err := func() (Stats, error) {
		c, err := Dial(s.Addr().String())
		if err != nil {
			return Stats{}, err
		}
		defer c.Close()
		return c.Stats()
	}()
	if err != nil {
		t.Fatal(err)
	}
	if st.SubsDropped != 1 {
		t.Fatalf("subs_dropped = %d, want 1 (the drop must be counted, not silent)", st.SubsDropped)
	}
}

// statUint reads one numeric field from a raw STATS line.
func statUint(t *testing.T, stats, key string) uint64 {
	t.Helper()
	var v uint64
	if _, err := fmt.Sscanf(statField(t, stats, key), "%d", &v); err != nil {
		t.Fatalf("stats field %s: %v", key, err)
	}
	return v
}
