package runtime

import (
	"testing"
	"time"

	"jisc/internal/adaptive"
	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/workload"
)

// TestAutopilotShiftWorkload runs the full concurrent stack — sharded
// runtime, background controller goroutine, producer goroutine — under
// a skewed workload that starts on its worst plan order. The autopilot
// must install exactly one plan switch (Cooldown is an hour, so a
// second would be a pacing bug), and the counters, plan reads, and
// migration fan-out must all be race-clean (this test is the reason
// the suite runs under -race).
func TestAutopilotShiftWorkload(t *testing.T) {
	initial := plan.MustLeftDeep(0, 1, 2)
	rt, err := New(Config{
		Engine: engine.Config{
			Plan:       initial,
			WindowSize: 200,
			Strategy:   core.New(),
		},
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if err := rt.StartAuto(adaptive.Config{Interval: 2 * time.Millisecond, Cooldown: time.Hour, MinProbes: 16}); err != nil {
		t.Fatal(err)
	}

	// Stream 0 is a hose (tiny key domain): the initial order probes
	// its matches first, the worst choice.
	src := workload.MustNewSource(workload.Config{
		Streams: 3, Domain: 200, Seed: 11, Domains: []int64{4, 2000, 2000},
	})
	deadline := time.Now().Add(30 * time.Second)
	for rt.Auto().Migrations() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the autopilot never migrated a skewed workload off its worst plan")
		}
		for i := 0; i < 500; i++ {
			if err := rt.Feed(src.Next()); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Keep feeding well past the switch: the hour-long cooldown must
	// pin the count at exactly one.
	for i := 0; i < 10000; i++ {
		if err := rt.Feed(src.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := rt.Auto().Migrations(); got != 1 {
		t.Fatalf("Migrations = %d, want exactly 1 under an hour-long cooldown", got)
	}
	p := rt.Plan()
	if p.Equal(initial) {
		t.Fatalf("plan still %s after an autopilot migration", p)
	}
	if _, err := p.Order(); err != nil {
		t.Fatalf("autopilot installed a non-left-deep plan %s: %v", p, err)
	}
	if rt.Auto().LastMigration().IsZero() {
		t.Fatal("LastMigration still zero after a migration")
	}
}

// TestStartStopAutoLifecycle covers the manual AUTO ON/OFF path the
// server uses, including double starts and stop-then-restart.
func TestStartStopAutoLifecycle(t *testing.T) {
	rt, err := New(Config{Engine: engine.Config{
		Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 10, Strategy: core.New(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.Auto() != nil {
		t.Fatal("autopilot running before StartAuto")
	}
	if err := rt.StartAuto(adaptive.Config{Interval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if rt.Auto() == nil {
		t.Fatal("Auto() nil after StartAuto")
	}
	if err := rt.StartAuto(adaptive.Config{}); err == nil {
		t.Fatal("double StartAuto accepted")
	}
	rt.StopAuto()
	if rt.Auto() != nil {
		t.Fatal("Auto() non-nil after StopAuto")
	}
	rt.StopAuto() // idempotent
	if err := rt.StartAuto(adaptive.Config{Interval: time.Millisecond}); err != nil {
		t.Fatalf("restart after stop: %v", err)
	}
	// Close with a live controller: Close must stop it first.
}

// TestScanStatsMergesShards pins the cross-shard stat merge: per-shard
// counters sum per stream, ascending by stream ID.
func TestScanStatsMergesShards(t *testing.T) {
	rt, err := New(Config{
		Engine: engine.Config{Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 50, Strategy: core.New()},
		Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	src := workload.MustNewSource(workload.Config{Streams: 3, Domain: 10, Seed: 3})
	var fed uint64
	for i := 0; i < 900; i++ {
		if err := rt.Feed(src.Next()); err != nil {
			t.Fatal(err)
		}
		fed++
	}
	if err := rt.Flush(); err != nil {
		t.Fatal(err)
	}
	stats := rt.ScanStats()
	if len(stats) != 3 {
		t.Fatalf("ScanStats returned %d streams, want 3", len(stats))
	}
	var probes uint64
	for i, s := range stats {
		if int(s.Stream) != i {
			t.Fatalf("stats not ascending by stream: %v", stats)
		}
		probes += s.Probes
	}
	if probes == 0 {
		t.Fatal("no probes recorded across shards")
	}
	// Fed tuples are visible through the merged snapshot too.
	if got := rt.Snapshot().Input; got != fed {
		t.Fatalf("Snapshot().Input = %d, want %d", got, fed)
	}
}
