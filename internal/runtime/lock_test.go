package runtime

// Tests of the shard's one lock: it fences Close against every sender,
// and it pins a checkpoint to an exact WAL position.

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jisc/internal/admission"
	"jisc/internal/core"
	"jisc/internal/durable"
	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/storage"
	"jisc/internal/workload"
)

// noLeak fails the test unless the goroutine count settles back to its
// value at the call. Register it before building the runtime under
// test.
func noLeak(t *testing.T) {
	t.Helper()
	base := goruntime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if goruntime.NumGoroutine() <= base {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		t.Errorf("goroutine leak: %d live, baseline %d\n%s",
			goruntime.NumGoroutine(), base, buf[:goruntime.Stack(buf, true)])
	})
}

func memWAL() durable.Options {
	return durable.Options{Dir: "wal", Fsync: durable.FsyncOff, CheckpointInterval: -1, FS: storage.NewMemFS()}
}

// TestCloseRacesEveryEntryPoint: callers of every queue-bound entry
// point race one Close. Each call returns nil or ErrClosed — never a
// panic (send on closed channel), never a hang — every admission
// reservation comes back, and no goroutine outlives Close.
func TestCloseRacesEveryEntryPoint(t *testing.T) {
	for _, durableOn := range []bool{false, true} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("durable=%v/shards=%d", durableOn, shards), func(t *testing.T) {
				noLeak(t)
				adm := admission.MustNew(admission.Config{InflightBytes: 1 << 30})
				cfg := Config{
					Engine:    engine.Config{Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 64, Strategy: core.New()},
					Shards:    shards,
					QueueSize: 8, // senders block on a full queue while holding the lock
					Admission: adm,
				}
				if durableOn {
					cfg.Durability = memWAL()
				}
				rt := MustNew(cfg)
				evs := workload.MustNewSource(workload.Config{Streams: 3, Domain: 64, Seed: 5}).Take(32)
				plans := []*plan.Plan{plan.MustLeftDeep(2, 0, 1), plan.MustLeftDeep(0, 1, 2)}
				calls := map[string]func(i int) error{
					"Feed":      func(i int) error { return rt.Feed(evs[i%len(evs)]) },
					"FeedBatch": func(i int) error { return rt.FeedBatch(evs[:1+i%len(evs)]) },
					"Migrate":   func(i int) error { return rt.Migrate(plans[i%2]) },
					"Metrics":   func(int) error { _, err := rt.Metrics(); return err },
				}
				if durableOn {
					calls["CheckpointNow"] = func(int) error { return rt.CheckpointNow() }
				}
				const warmCalls = 4 // Close lands once every caller has made this many
				var wg, warm sync.WaitGroup
				for name, call := range calls {
					wg.Add(1)
					warm.Add(1)
					go func(name string, call func(int) error) {
						defer wg.Done()
						for i := 0; ; i++ {
							if i == warmCalls {
								warm.Done()
							}
							err := call(i)
							if err == nil {
								continue
							}
							if !errors.Is(err, ErrClosed) {
								t.Errorf("%s: %v, want nil or ErrClosed", name, err)
							}
							if i < warmCalls {
								warm.Done()
							}
							return
						}
					}(name, call)
				}
				warm.Wait() // every caller is mid-stream
				rt.Close()
				wg.Wait()
				if got := adm.Snapshot().InflightBytes; got != 0 {
					t.Fatalf("InflightBytes = %d after Close, want 0", got)
				}
			})
		}
	}
}

// TestCheckpointPinnedToWALPosition: with a producer hammering
// FeedBatch, every CheckpointNow snapshot must cover exactly the
// records up to the sequence it is filed under — restoring it and
// replaying the log from there lands on the live runtime's final
// counters. A feed slipping between the sequence read and the snapshot's
// place in the queue would be applied twice.
func TestCheckpointPinnedToWALPosition(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dopts := memWAL()
			dopts.KeepCheckpoints = 1 << 20 // keep every snapshot for the check below
			cfg := Config{
				Engine: engine.Config{Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 32, Strategy: core.New()},
				Shards: shards, QueueSize: 4, Durability: dopts,
			}
			rt := MustNew(cfg)
			var done atomic.Bool
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer done.Store(true)
				src := workload.MustNewSource(workload.Config{Streams: 3, Domain: 8, Seed: 11})
				for i := 0; i < 200; i++ {
					if err := rt.FeedBatch(src.Take(1 + i%16)); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			for n := 0; n < 24 && !done.Load(); n++ {
				if err := rt.CheckpointNow(); err != nil {
					t.Fatal(err)
				}
			}
			wg.Wait()
			m, err := rt.Metrics() // in-band: after everything fed
			if err != nil {
				t.Fatal(err)
			}
			want := counterMapOf(m)
			rt.Close()

			// Recover from the newest snapshot, then delete each shard's
			// newest and recover again, down to a pure log replay.
			for round := 0; ; round++ {
				rec := MustNew(cfg)
				got := counterMapOf(rec.Snapshot())
				rec.Close()
				if !sameCounters(got, want) {
					t.Fatalf("recovery %d (newest %d snapshots per shard deleted) diverged:\n got %v\nwant %v", round, round, got, want)
				}
				removed := false
				for i := 0; i < shards; i++ {
					dir := durable.ShardDir(dopts.Dir, i)
					names, err := dopts.FS.ReadDir(dir)
					if err != nil {
						t.Fatal(err)
					}
					sort.Strings(names) // ckpt-<seq as 16 hex digits>.snap: name order is sequence order
					for j := len(names) - 1; j >= 0; j-- {
						if strings.HasPrefix(names[j], "ckpt-") {
							if err := dopts.FS.Remove(dir + "/" + names[j]); err != nil {
								t.Fatal(err)
							}
							removed = true
							break
						}
					}
				}
				if !removed {
					if round == 0 {
						t.Fatal("no checkpoint was taken while the producer ran")
					}
					return
				}
			}
		})
	}
}
