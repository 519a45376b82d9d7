package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jisc/internal/admission"
	"jisc/internal/chaosnet"
	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/runtime"
	"jisc/internal/testseed"
)

// chaosServer: an admission-limited server plus a chaosnet proxy in
// front of it. Clients dial the proxy; assertions dial the server
// directly.
func chaosServer(t *testing.T, adm admission.Config, readTO time.Duration, ccfg chaosnet.Config) (*Server, *chaosnet.Proxy) {
	t.Helper()
	s := admissionServer(t, adm, readTO, 500*time.Millisecond)
	p, err := chaosnet.New("127.0.0.1:0", s.Addr().String(), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return s, p
}

// TestChaosSlowLinkConservation hoses the server through a slow, jittery,
// bandwidth-capped link at well over the admission rate. Every line the
// client saw acknowledged OK must be covered by the server's books
// (processed or shed — an ack is a promise), and the server must end
// healthy.
func TestChaosSlowLinkConservation(t *testing.T) {
	noLeak(t)
	seed := testseed.Seed(t, 0xc4a05)
	s, p := chaosServer(t,
		admission.Config{Rate: 2000, Burst: 200},
		0,
		chaosnet.Config{
			Seed:        seed,
			Latency:     time.Millisecond,
			Jitter:      2 * time.Millisecond,
			BytesPerSec: 256 << 10,
			ChunkBytes:  512,
		})

	const feeders, lines, per = 3, 150, 4
	var acked atomic.Uint64
	var wg sync.WaitGroup
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", p.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(60 * time.Second))
			r := bufio.NewReader(conn)
			for i := 0; i < lines; i++ {
				fmt.Fprintf(conn, "FEEDB %d %d %d %d %d\n", i%3, i%7, (i+1)%7, (i+2)%7, (i+3)%7)
				resp, err := r.ReadString('\n')
				if err != nil {
					return // link death: unacked lines are unclaimed
				}
				if strings.TrimSpace(resp) == "OK" {
					acked.Add(per)
				}
			}
		}(f)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Assert through a direct connection — the proxy is not trusted
	// for the audit.
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	accounted := st.Input + st.AdmissionShed
	if accounted < acked.Load() {
		t.Fatalf("acked %d tuples but the server accounts only %d (input %d + shed %d)",
			acked.Load(), accounted, st.Input, st.AdmissionShed)
	}
	if st.InflightBytes != 0 {
		t.Fatalf("inflight_bytes = %d at quiescence, want 0", st.InflightBytes)
	}
}

// TestChaosMidWriteResets: connections die by RST mid-conversation,
// repeatedly. The server must shrug — no leaked handlers, and a fresh
// direct connection serves normally afterwards.
func TestChaosMidWriteResets(t *testing.T) {
	noLeak(t)
	seed := testseed.Seed(t, 0xc4a06)
	s, p := chaosServer(t,
		admission.Config{Rate: 1e6, Burst: 1e6},
		0,
		chaosnet.Config{Seed: seed, ResetAfterBytes: 512, ChunkBytes: 128})

	for round := 0; round < 8; round++ {
		conn, err := net.Dial("tcp", p.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		r := bufio.NewReader(conn)
		for i := 0; ; i++ {
			if _, err := fmt.Fprintf(conn, "FEED %d %d\n", i%3, i%7); err != nil {
				break
			}
			if _, err := r.ReadString('\n'); err != nil {
				break
			}
		}
		conn.Close()
	}
	if got := p.Stats().Resets; got == 0 {
		t.Fatal("the proxy never fired a reset — the test exercised nothing")
	}

	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Feed(batchEvents(1)[0]); err != nil {
		t.Fatalf("server unhealthy after resets: %v", err)
	}
}

// TestChaosHalfOpenStall: a connection goes silent mid-line (the proxy
// half-opens it). The server's read deadline must reap the wedged
// handler instead of holding it forever — proven by the noLeak check
// once the test server closes.
func TestChaosHalfOpenStall(t *testing.T) {
	noLeak(t)
	seed := testseed.Seed(t, 0xc4a07)
	s, p := chaosServer(t,
		admission.Config{},
		200*time.Millisecond,
		chaosnet.Config{Seed: seed, StallAfterBytes: 256, ChunkBytes: 64})

	conn, err := net.Dial("tcp", p.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Short deadline: once the link stalls, the client's next read
	// only needs to fail, not wait out a long patience budget.
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	r := bufio.NewReader(conn)
	for i := 0; i < 1000; i++ {
		if _, err := fmt.Fprintf(conn, "FEED %d %d\n", i%3, i%7); err != nil {
			break
		}
		if _, err := r.ReadString('\n'); err != nil {
			break
		}
	}
	if got := p.Stats().Stalls; got == 0 {
		t.Fatal("the proxy never stalled — the test exercised nothing")
	}
	// The server side of the stalled link holds a half-received line;
	// its read deadline reaps it. Give it a moment, then check health
	// directly.
	time.Sleep(400 * time.Millisecond)
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Stats(); err != nil {
		t.Fatalf("server unhealthy after stall: %v", err)
	}
}

// TestChaosPartitionRecovery: a full partition kills every client
// mid-hose; after healing, service resumes and the books are
// consistent.
func TestChaosPartitionRecovery(t *testing.T) {
	noLeak(t)
	seed := testseed.Seed(t, 0xc4a08)
	_, p := chaosServer(t,
		admission.Config{Rate: 1e6, Burst: 1e6},
		0,
		chaosnet.Config{Seed: seed})

	var wg sync.WaitGroup
	started := make(chan struct{})
	for f := 0; f < 3; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", p.Addr().String())
			if err != nil {
				return
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(30 * time.Second))
			r := bufio.NewReader(conn)
			for i := 0; ; i++ {
				if i == 10 && f == 0 {
					close(started)
				}
				if _, err := fmt.Fprintf(conn, "FEED %d %d\n", i%3, i%7); err != nil {
					return
				}
				if _, err := r.ReadString('\n'); err != nil {
					return
				}
			}
		}(f)
	}
	<-started
	p.SetPartitioned(true)
	// Every feeder must die promptly — a partition is not a hang.
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(15 * time.Second):
		t.Fatal("feeders hung across the partition")
	}

	p.SetPartitioned(false)
	conn, err := net.Dial("tcp", p.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprintf(conn, "STATS\n")
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "STATS ") {
		t.Fatalf("post-heal STATS = %q, %v", line, err)
	}
}

// TestChaosDrainUnderFire: SIGTERM-equivalent — Drain lands while
// clients hose through a lossy, laggy proxy. The drain must complete
// within its bound and the durable restart must see every batch that
// was acknowledged. This is the library-level twin of the
// overload_smoke.sh script.
func TestChaosDrainUnderFire(t *testing.T) {
	noLeak(t)
	seed := testseed.Seed(t, 0xc4a09)
	dir := t.TempDir()
	s, err := New(Config{
		Pipeline: runtime.Config{Engine: engine.Config{
			Plan:       plan.MustLeftDeep(0, 1, 2),
			WindowSize: 100,
			Strategy:   core.New(),
		}},
		Durable:   durableServerConfig(dir).Durable,
		Admission: admission.Config{Rate: 1e6, Burst: 1e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	p, err := chaosnet.New("127.0.0.1:0", s.Addr().String(), chaosnet.Config{
		Seed:    seed,
		Latency: 500 * time.Microsecond,
		Jitter:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	var acked atomic.Uint64
	var wg sync.WaitGroup
	hoseUp := make(chan struct{})
	var once sync.Once
	for f := 0; f < 3; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", p.Addr().String())
			if err != nil {
				return
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(30 * time.Second))
			r := bufio.NewReader(conn)
			for i := 0; ; i++ {
				if i == 5 {
					once.Do(func() { close(hoseUp) })
				}
				if _, err := fmt.Fprintf(conn, "FEEDB %d %d %d\n", i%3, i%7, (i+1)%7); err != nil {
					return
				}
				resp, err := r.ReadString('\n')
				if err != nil {
					return
				}
				if strings.TrimSpace(resp) == "OK" {
					acked.Add(2)
				} else {
					return // BUSY: the drain fence is up
				}
			}
		}(f)
	}
	<-hoseUp
	if err := s.Drain(15 * time.Second); err != nil {
		t.Fatalf("Drain under fire: %v", err)
	}
	wg.Wait()

	// Restart from the drained state: everything acknowledged must be
	// there. (Acked is a lower bound: lines processed whose ack was
	// lost in flight are legal extras.)
	s2 := startDurableServer(t, dir)
	defer s2.Close()
	c, err := Dial(s2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Input < acked.Load() {
		t.Fatalf("restarted input = %d < %d acked tuples: the drain lost admitted batches", st.Input, acked.Load())
	}
}
