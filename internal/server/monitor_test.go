package server

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"jisc/internal/adaptive"
	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/runtime"
)

// TestServerMonitorReadsDoNotQueue holds the default query's worker in
// the middle of a FEEDB with another queued behind it. A /metrics
// scrape of the query, which has no state budget, and an autopilot
// decision tick must answer within 100 ms, from the batches the worker
// finished. STATS is the protocol's barrier: it waits for the worker and
// then counts every FEEDB sent before it.
func TestServerMonitorReadsDoNotQueue(t *testing.T) {
	noLeak(t)
	var hold atomic.Bool
	held, release := make(chan struct{}), make(chan struct{})
	s, err := New(Config{Pipeline: runtime.Config{Engine: engine.Config{
		Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 100, Strategy: core.New(),
		AfterFeed: func(uint64) {
			if hold.CompareAndSwap(true, false) {
				close(held)
				<-release
			}
		},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if err := s.ServeTelemetry("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c := dial(t, s)
	if resp := c.cmd(t, "FEEDB 0 1 2 3"); resp != "OK" {
		t.Fatalf("FEEDB: %s", resp)
	}
	if got := statField(t, c.cmd(t, "STATS"), "input"); got != "3" {
		t.Fatalf("input = %s before the hold, want 3", got)
	}
	hold.Store(true)
	for _, line := range []string{"FEEDB 1 1 2", "FEEDB 2 1 2"} {
		if resp := c.cmd(t, line); resp != "OK" {
			t.Fatalf("%s: %s", line, resp)
		}
	}
	<-held

	within := func(name string, read func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- read() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
		case <-time.After(100 * time.Millisecond):
			t.Errorf("%s still blocked after 100 ms behind a held worker", name)
		}
	}
	within("/metrics", func() error {
		resp, err := http.Get("http://" + s.TelemetryAddr().String() + "/metrics")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if want := `jisc_input_tuples_total{query="default"} 3`; err == nil && !strings.Contains(string(body), want) {
			err = fmt.Errorf("no %q in the scrape", want)
		}
		return err
	})
	within("Controller.Step", func() error {
		adaptive.MustNew(s.queries[DefaultQuery].runner, adaptive.Config{}).Step(time.Now())
		return nil
	})

	stats := make(chan string, 1)
	c2 := dial(t, s)
	go func() {
		fmt.Fprintln(c2.conn, "STATS")
		line, _ := c2.r.ReadString('\n')
		stats <- line
	}()
	select {
	case line := <-stats:
		close(release)
		t.Fatalf("STATS answered %q past a held worker", line)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if got := statField(t, <-stats, "input"); got != "7" {
		t.Fatalf("STATS input = %s, want all 7 tuples fed before it", got)
	}
}
