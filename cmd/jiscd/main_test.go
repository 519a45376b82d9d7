package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"jisc/internal/durable"
	"jisc/internal/runtime"
	"jisc/internal/server"
)

// buildJiscd compiles the daemon once per test binary.
func buildJiscd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "jiscd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startJiscd launches the daemon and waits until its TCP port accepts.
func startJiscd(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	// Ask the kernel for a free port, then hand it to the daemon. The
	// tiny race (the port being grabbed between Close and exec) is
	// acceptable in a test.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			conn.Close()
			return cmd, addr
		}
		if time.Now().After(deadline) {
			t.Fatalf("jiscd never came up on %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

type lineConn struct {
	conn net.Conn
	r    *bufio.Reader
}

func dialDaemon(t *testing.T, addr string) *lineConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &lineConn{conn: conn, r: bufio.NewReader(conn)}
}

func (c *lineConn) cmd(t *testing.T, line string) string {
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

func statOf(t *testing.T, stats, key string) string {
	t.Helper()
	for _, f := range strings.Fields(stats) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return v
		}
	}
	t.Fatalf("stats %q has no %q field", stats, key)
	return ""
}

// TestJiscdSurvivesSIGKILL is the quick-start promise as a test: run
// the daemon with -wal, feed it and migrate it, kill -9 mid-flight,
// restart with the same flags, and find the counters, plan, and query
// topology exactly where they were.
func TestJiscdSurvivesSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildJiscd(t)
	wal := filepath.Join(t.TempDir(), "wal")
	args := []string{"-wal", wal, "-fsync", "always", "-plan", "0,1,2", "-window", "100"}

	proc, addr := startJiscd(t, bin, args...)
	c := dialDaemon(t, addr)
	for _, line := range []string{
		"FEED 0 7", "FEED 1 7", "FEED 2 7",
		"MIGRATE ((0 2) 1)",
		"FEED 0 9",
		"CREATE pairs 50 (0 1)",
		"FEED pairs 0 3",
	} {
		if resp := c.cmd(t, line); resp != "OK" {
			t.Fatalf("%s -> %s", line, resp)
		}
	}
	stats := c.cmd(t, "STATS")
	wantInput := statOf(t, stats, "input")
	wantOutput := statOf(t, stats, "output")
	wantPlan := c.cmd(t, "PLAN")

	// The unclean death: no shutdown handler runs, no buffer flushes.
	if err := proc.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	proc.Wait()

	_, addr2 := startJiscd(t, bin, args...)
	c2 := dialDaemon(t, addr2)
	stats2 := c2.cmd(t, "STATS")
	if got := statOf(t, stats2, "input"); got != wantInput {
		t.Fatalf("input after kill -9 = %s, want %s (stats %q)", got, wantInput, stats2)
	}
	if got := statOf(t, stats2, "output"); got != wantOutput {
		t.Fatalf("output after kill -9 = %s, want %s", got, wantOutput)
	}
	if got := statOf(t, stats2, "recovered_events"); got == "0" {
		t.Fatalf("restart replayed nothing: %s", stats2)
	}
	if got := c2.cmd(t, "PLAN"); got != wantPlan {
		t.Fatalf("plan after kill -9 = %q, want %q", got, wantPlan)
	}
	if list := c2.cmd(t, "LIST"); !strings.Contains(list, "pairs") {
		t.Fatalf("CREATEd query lost: %q", list)
	}
	// And the recovered daemon still works.
	if resp := c2.cmd(t, "FEED 1 9"); resp != "OK" {
		t.Fatalf("post-recovery feed: %s", resp)
	}
}

// -shed or -feed-deadline with -wal must be rejected at startup: a
// tuple dropped after (or instead of) its log append would make replay
// diverge from the live run. The runtime's validation is the one check;
// its error must reach the start-up output.
func TestJiscdRejectsShedWithWAL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildJiscd(t)
	for _, tc := range []struct {
		flags []string
		want  string
	}{
		{[]string{"-shed"}, "shed"},
		{[]string{"-feed-deadline", "1s"}, "deadline"},
	} {
		cmd := exec.Command(bin, append([]string{"-wal", t.TempDir()}, tc.flags...)...)
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("jiscd accepted %v with -wal:\n%s", tc.flags, out)
		}
		if !strings.Contains(string(out), tc.want) || !strings.Contains(string(out), "durability") {
			t.Fatalf("%v: unhelpful error:\n%s", tc.flags, out)
		}
	}
}

// TestParseBytes: the one byte-size parser behind -state-budget (which
// has an "off") and -inflight-budget (which has not).
func TestParseBytes(t *testing.T) {
	for _, tc := range []struct {
		in       string
		allowOff bool
		want     int64
		bad      bool
	}{
		{"", true, 0, false},
		{"", false, 0, false},
		{"off", true, -1, false},
		{" OFF ", true, -1, false},
		{"off", false, 0, true},
		{"4096", false, 4096, false},
		{"64k", true, 64 << 10, false},
		{"64M", false, 64 << 20, false},
		{"1g", true, 1 << 30, false},
		{"0", false, 0, true},
		{"-5m", true, 0, true},
		{"m", false, 0, true},
		{"12q", true, 0, true},
	} {
		got, err := parseBytes("some-budget", tc.in, tc.allowOff)
		if (err != nil) != tc.bad || got != tc.want {
			t.Errorf("parseBytes(%q, off=%v) = %d, %v; want %d, error=%v", tc.in, tc.allowOff, got, err, tc.want, tc.bad)
		}
		if err != nil {
			msg := err.Error()
			if !strings.Contains(msg, "-some-budget") || strings.Contains(msg, `or "off"`) != tc.allowOff {
				t.Errorf("parseBytes(%q, off=%v) error %q: want the flag named and \"off\" offered only where it is accepted", tc.in, tc.allowOff, msg)
			}
		}
	}
}

// flagDefaults is options as parsing no arguments leaves it.
func flagDefaults() options {
	return options{
		addr: "127.0.0.1:7878", plan: "0,1,2", window: 10000, strategy: "jisc",
		queue: 4096, shards: 1, fsync: "batch", drainTimeout: 30 * time.Second,
	}
}

// TestOptionsConfig drives the one validation pass: what the flags
// build, and that a flag which could only be ignored — a modifier of
// something that is off — is refused with its name in the message.
func TestOptionsConfig(t *testing.T) {
	cfg, err := flagDefaults().config()
	if err != nil {
		t.Fatal(err)
	}
	if eng := cfg.Pipeline.Engine; eng.Plan.String() != "((0⋈1)⋈2)" || eng.WindowSize != 10000 || eng.Strategy.Name() != "jisc" ||
		cfg.Pipeline.QueueSize != 4096 || cfg.Pipeline.Shards != 1 || cfg.Durable.Enabled() {
		t.Errorf("defaults built %+v", cfg)
	}

	for _, tc := range []struct {
		name string
		set  func(*options)
		want string // substring of the error; "" = accepted
		ok   func(server.Config) bool
	}{
		{name: "wal", set: func(o *options) {
			o.wal, o.fsync, o.fsyncInterval, o.checkpointInterval = "/w", "always", time.Millisecond, -1
		}, ok: func(c server.Config) bool {
			d := c.Durable
			return d.Dir == "/w" && d.Fsync == durable.FsyncAlways && d.FlushInterval == time.Millisecond && d.CheckpointInterval == -1
		}},
		{name: "admission", set: func(o *options) {
			o.ingestRate, o.ingestBurst, o.inflightBudget, o.maxConns = 50, 5, "8k", 2
		}, ok: func(c server.Config) bool {
			a := c.Admission
			return a.Rate == 50 && a.Burst == 5 && a.InflightBytes == 8<<10 && a.MaxConns == 2
		}},
		{name: "spill", set: func(o *options) { o.stateBudget, o.spillDir, o.shed = "1m", "/s", true }, ok: func(c server.Config) bool {
			return c.Pipeline.Engine.StateBudget == 1<<20 && c.Pipeline.Engine.SpillDir == "/s" && c.Pipeline.Overflow == runtime.Shed
		}},
		{name: "spill dir with an auto budget", set: func(o *options) { o.spillDir = "/s" }, ok: func(c server.Config) bool {
			return c.Pipeline.Engine.StateBudget == 0
		}},
		{name: "bad plan", set: func(o *options) { o.plan = "(0 1" }, want: "-plan"},
		{name: "bad strategy", set: func(o *options) { o.strategy = "eager" }, want: "-strategy"},
		{name: "bad state budget", set: func(o *options) { o.stateBudget = "lots" }, want: "-state-budget"},
		{name: "bad inflight budget", set: func(o *options) { o.inflightBudget = "off" }, want: "-inflight-budget"},
		{name: "misspelt fsync with wal", set: func(o *options) { o.wal, o.fsync = "/w", "alway" }, want: "-fsync"},
		{name: "misspelt fsync without wal", set: func(o *options) { o.fsync = "alway" }, want: "-fsync"},
		{name: "fsync interval without wal", set: func(o *options) { o.fsyncInterval = time.Millisecond }, want: "-fsync-interval"},
		{name: "checkpoint interval without wal", set: func(o *options) { o.checkpointInterval = -1 }, want: "-checkpoint-interval"},
		{name: "burst without rate", set: func(o *options) { o.ingestBurst = 100 }, want: "-ingest-burst"},
		{name: "spill dir with budget off", set: func(o *options) { o.stateBudget, o.spillDir = "off", "/s" }, want: "-spill-dir"},
	} {
		o := flagDefaults()
		tc.set(&o)
		cfg, err := o.config()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want == "" && !tc.ok(cfg):
			t.Errorf("%s: built %+v", tc.name, cfg)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want one naming %s", tc.name, err, tc.want)
		}
	}
}
