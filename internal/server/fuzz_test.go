package server

import (
	"bufio"
	"net"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/runtime"
)

// FuzzServerCommand throws arbitrary bytes at the full line protocol.
// The contract under fuzz: the server never panics (a panic in a
// handler fails the in-process test), never leaks a goroutine past
// Close, and always resyncs — after any garbage, a fresh connection
// gets a well-formed answer to a well-formed command.
//
// CHECKPOINT is the one verb with a filesystem side effect, so fuzzed
// checkpoint lines have their path argument confined to the test's
// temp directory before they reach the wire.
func FuzzServerCommand(f *testing.F) {
	// Seed corpus: every protocol shape the README demonstrates, plus
	// framing edge cases the parser must survive.
	for _, seed := range []string{
		"FEED 0 7\nFEED 1 7\nFEED 2 7\nMIGRATE ((0 2) 1)\nSTATS\n",
		"FEEDB 0 7 8 9\nFEEDB 1 7 8 9\nFEEDB 2 7 8 9\nSTATS\n",
		"AUTO STATUS\nPLAN\n",
		"AUTO ON\nAUTO OFF\n",
		"CREATE pairs 50 (0 1)\nFEED pairs 0 3\nFEED pairs 1 3\nSTATS pairs\nDROP pairs\nLIST\n",
		"SUBSCRIBE\nFEED 0 5\nFEED 1 5\nFEED 2 5\n",
		"CHECKPOINT /tmp/x.ckpt\n",
		"QUIT\n",
		"STATS\nPLAN\nLIST\n",
		"MIGRATE 2,0,1\nPLAN\n",
		"",
		"\n\n\n",
		"FEED\nFEED x\nFEED 0 x\nFEED 99 1\nBOGUS\n",
		"FEEDB 0\nFEEDB\nMIGRATE (((\n",
		"CREATE q 0 0,1\nCREATE 50 (0 1)\nDROP nosuch\n",
		"\x00\x01\x02\nFEED 0 1\n",
		strings.Repeat("A", 2000) + "\nSTATS\n",
		"FEED 0 1 trailing garbage here\nSUBSCRIBE nosuchquery\n",
	} {
		f.Add([]byte(seed))
	}
	// Every row of the command table, and a verb that is in none.
	for line := range commandLines() {
		f.Add([]byte(line + "\n"))
		f.Add([]byte(strings.ToLower(line) + " default 0 1\n"))
	}
	f.Add([]byte("NOSUCHVERB 0 1\nAUTO SIDEWAYS\n"))

	ckptDir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			t.Skip("oversized input")
		}
		base := goruntime.NumGoroutine()
		s, err := New(Config{Pipeline: runtime.Config{Engine: engine.Config{
			Plan:       plan.MustLeftDeep(0, 1, 2),
			WindowSize: 32,
			Strategy:   core.New(),
		}}})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer s.Close()

		conn, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second))

		// Drain whatever the server says in the background so its
		// writer never blocks on a full socket.
		go func() {
			r := bufio.NewReader(conn)
			for {
				if _, err := r.ReadString('\n'); err != nil {
					return
				}
			}
		}()

		for _, line := range strings.SplitAfter(string(data), "\n") {
			if line == "" {
				continue
			}
			out := confineCheckpoint(line, ckptDir)
			if !strings.HasSuffix(out, "\n") {
				out += "\n" // an unterminated tail would just sit in the server's buffer
			}
			if _, err := conn.Write([]byte(out)); err != nil {
				break // server closed us (QUIT, oversized line): legal
			}
		}
		conn.Close()

		// Resync proof: a fresh connection speaks the protocol cleanly,
		// whatever the garbage did.
		probe, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatalf("server stopped accepting after fuzz input %q: %v", data, err)
		}
		defer probe.Close()
		probe.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := probe.Write([]byte("PLAN\n")); err != nil {
			t.Fatalf("probe write: %v", err)
		}
		resp, err := bufio.NewReader(probe).ReadString('\n')
		if err != nil {
			t.Fatalf("no response to PLAN after fuzz input %q: %v", data, err)
		}
		if !strings.HasPrefix(resp, "PLAN ") {
			t.Fatalf("PLAN answered %q after fuzz input %q", resp, data)
		}
		// Goroutine hygiene: after Close every handler, subscriber
		// pump, and worker must unwind — a per-iteration leak would
		// compound across the fuzz run and OOM it anyway, so fail
		// fast and name the stacks.
		s.Close()
		deadline := time.Now().Add(5 * time.Second)
		for goruntime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("goroutine leak after input %q: %d live, baseline %d\n%s",
					data, goruntime.NumGoroutine(), base, buf[:goruntime.Stack(buf, true)])
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// confineCheckpoint rewrites any line whose verb is CHECKPOINT so its
// path argument lands inside dir — fuzzed inputs must not write
// outside the test sandbox.
func confineCheckpoint(line, dir string) string {
	fields := strings.Fields(line)
	if len(fields) == 0 || !strings.EqualFold(fields[0], "CHECKPOINT") {
		return line
	}
	return "CHECKPOINT " + filepath.Join(dir, "fuzz.ckpt") + "\n"
}
