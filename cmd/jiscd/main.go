// Command jiscd runs a continuous multi-way join query as a network
// daemon: producers FEED tuples over TCP, consumers SUBSCRIBE to
// results, and an operator (or an external optimizer) MIGRATEs the
// live plan — under JISC, without halting the query.
//
// Usage:
//
//	jiscd -addr :7878 -plan 0,1,2 -window 10000 -strategy jisc
//
// With -wal DIR every mutating command (FEED, FEEDB, MIGRATE, CREATE,
// DROP) is write-ahead logged before it is acknowledged, and a restart
// recovers the full topology and per-query state from DIR — kill -9
// the daemon and bring it back up with the same flags. -fsync picks
// the durability/throughput trade-off: always, batch (group commit,
// the default), or off.
//
// Protocol (one line per command; [query] defaults to "default"):
//
//	FEED [query] <stream> <key>
//	FEEDB [query] <stream> <key>... ingest every key on the line as one
//	                                batch of <stream> tuples: one queue
//	                                slot, one WAL frame, one OK — the
//	                                high-throughput ingest path
//	MIGRATE [query] <plan>          e.g. MIGRATE ((0 2) 1)  or  MIGRATE 0,2,1
//	AUTO ON|OFF|STATUS [query]      toggle or inspect the autopilot (see
//	                                -auto to start it at boot); with -wal
//	                                the toggle survives restarts
//	SUBSCRIBE [query]
//	CREATE <query> <window> <plan>
//	DROP <query> | LIST
//	STATS [query] | PLAN [query] | CHECKPOINT [query] <path> | QUIT
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"jisc/internal/adaptive"
	"jisc/internal/admission"
	"jisc/internal/core"
	"jisc/internal/durable"
	"jisc/internal/engine"
	"jisc/internal/migrate"
	"jisc/internal/plan"
	"jisc/internal/runtime"
	"jisc/internal/server"
)

// parseBytes parses a byte-size flag: "" → 0 (the flag's default:
// -state-budget derives from GOMEMLIMIT when set, -inflight-budget is
// unlimited), "off" → -1 where allowOff says the flag has such a
// setting (-state-budget: never spill), otherwise a positive byte
// count with an optional k/m/g suffix (powers of 1024).
func parseBytes(flagName, s string, allowOff bool) (int64, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	if s == "" {
		return 0, nil
	}
	orOff := ""
	if allowOff {
		if s == "off" {
			return -1, nil
		}
		orOff = `, or "off"`
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k':
		mult, s = 1<<10, s[:len(s)-1]
	case 'm':
		mult, s = 1<<20, s[:len(s)-1]
	case 'g':
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad -%s %q: want a positive byte count with optional k/m/g suffix%s", flagName, s, orOff)
	}
	return n * mult, nil
}

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7878", "listen address")
		planSrc   = flag.String("plan", "0,1,2", "initial plan (infix tree or comma-separated left-deep order)")
		window    = flag.Int("window", 10000, "per-stream window size in tuples")
		timeSpan  = flag.Uint64("timespan", 0, "time-based window span in ticks (0 = count-based)")
		strat     = flag.String("strategy", "jisc", "migration strategy: jisc, moving-state, static")
		queue     = flag.Int("queue", 4096, "input queue size (per shard)")
		shedding  = flag.Bool("shed", false, "drop tuples instead of blocking when the queue is full")
		shards    = flag.Int("shards", 1, "worker shards per query (hash-partitioned by join key)")
		telemetry = flag.String("telemetry", "", "HTTP observability address, e.g. 127.0.0.1:9090 (/metrics, /trace, /healthz, /debug/pprof/); empty = off")
		walDir    = flag.String("wal", "", "durability directory: write-ahead log every mutating command and recover from it on start; empty = off")
		fsyncMode = flag.String("fsync", "batch", "WAL fsync policy: always (fsync before every ack), batch (group commit), off (no fsync)")
		fsyncIvl  = flag.Duration("fsync-interval", 0, "group-commit window for -fsync batch (0 = default 2ms)")
		ckptIvl   = flag.Duration("checkpoint-interval", 0, "background checkpoint period (0 = default 15s, negative = never)")
		budget    = flag.String("state-budget", "", "resident state budget across shards, e.g. 64m or 1g (suffix k/m/g, powers of 1024): cold state spills to disk and faults back on demand; empty = auto from GOMEMLIMIT when set, otherwise unbounded; \"off\" = never spill")
		spillDir  = flag.String("spill-dir", "", "spill segment directory (a cache, wiped on start); empty = a temp directory")
		auto      = flag.Bool("auto", false, "start the autopilot on the default query: watch live selectivities and migrate the plan automatically (toggle per query at runtime with AUTO ON/OFF)")
		autoIvl   = flag.Duration("auto-interval", 0, "autopilot control-loop period (0 = default 500ms)")
		autoCool  = flag.Duration("auto-cooldown", 0, "minimum pause between autopilot migrations (0 = default 5s)")

		maxConns     = flag.Int("max-conns", 0, "max concurrent client connections; dials beyond the cap draw a retriable ERR BUSY (0 = unlimited)")
		ingestRate   = flag.Float64("ingest-rate", 0, "sustained ingest admission rate in tuples/sec per query; arrivals beyond it are shed counted and acknowledged OK (0 = unlimited)")
		ingestBurst  = flag.Float64("ingest-burst", 0, "token-bucket burst above -ingest-rate, in tuples (0 = one second of -ingest-rate)")
		inflight     = flag.String("inflight-budget", "", "admitted-but-unprocessed ingest byte budget per query, e.g. 8m (suffix k/m/g); batches beyond it draw a retriable ERR BUSY; empty = unlimited")
		feedDeadline = flag.Duration("feed-deadline", 0, "per-batch queue deadline: an admitted batch still queued after this long is dropped counted instead of processed late (0 = off; incompatible with -wal)")
		readTimeout  = flag.Duration("read-timeout", 0, "per-command read deadline, armed once a line starts arriving; idle connections are never timed out (0 = off)")
		writeTimeout = flag.Duration("write-timeout", 0, "per-write deadline on acks and subscriber result lines; a timed-out write closes the connection (0 = off)")
		drainTO      = flag.Duration("drain-timeout", 30*time.Second, "SIGTERM graceful-drain bound: how long to wait for in-flight batches to flush before giving up and exiting non-zero (0 = wait forever)")
	)
	flag.Parse()

	die := func(err error) {
		fmt.Fprintf(os.Stderr, "jiscd: %v\n", err)
		os.Exit(1)
	}

	p, err := plan.Parse(*planSrc)
	if err != nil {
		die(err)
	}
	var strategy engine.Strategy
	switch *strat {
	case "jisc":
		strategy = core.New()
	case "moving-state":
		strategy = migrate.MovingState{}
	case "static":
		strategy = engine.Static{}
	default:
		die(fmt.Errorf("unknown strategy %q", *strat))
	}
	overflow := runtime.Block
	if *shedding {
		overflow = runtime.Shed
	}
	stateBudget, err := parseBytes("state-budget", *budget, true)
	if err != nil {
		die(err)
	}
	inflightBudget, err := parseBytes("inflight-budget", *inflight, false)
	if err != nil {
		die(err)
	}

	var dur durable.Options
	if *walDir != "" {
		// -shed and -feed-deadline are refused with -wal by the runtime's
		// own validation, which reaches die through server.New.
		policy, err := durable.ParsePolicy(*fsyncMode)
		if err != nil {
			die(err)
		}
		dur = durable.Options{
			Dir:                *walDir,
			Fsync:              policy,
			FlushInterval:      *fsyncIvl,
			CheckpointInterval: *ckptIvl,
		}
	}

	srv, err := server.New(server.Config{
		Pipeline: runtime.Config{
			Engine: engine.Config{
				Plan:        p,
				WindowSize:  *window,
				TimeSpan:    *timeSpan,
				Strategy:    strategy,
				StateBudget: stateBudget,
				SpillDir:    *spillDir,
			},
			QueueSize: *queue,
			Overflow:  overflow,
			Shards:    *shards,
		},
		Durable: dur,
		Adaptive: adaptive.Config{
			Interval: *autoIvl,
			Cooldown: *autoCool,
		},
		AutoStart: *auto,
		Admission: admission.Config{
			MaxConns:      *maxConns,
			Rate:          *ingestRate,
			Burst:         *ingestBurst,
			InflightBytes: inflightBudget,
			FeedDeadline:  *feedDeadline,
		},
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
	})
	if err != nil {
		die(err)
	}
	if dur.Enabled() {
		ds := srv.DurableStats()
		fmt.Printf("jiscd: recovered from %s in %.3fs (%d events replayed, %d torn tails truncated; fsync %s)\n",
			*walDir, float64(ds.RecoveryNs)/1e9, ds.RecoveredEvents, ds.TornTruncations, dur.Fsync)
	}
	if err := srv.Listen(*addr); err != nil {
		die(err)
	}
	if *telemetry != "" {
		if err := srv.ServeTelemetry(*telemetry); err != nil {
			die(err)
		}
		fmt.Printf("jiscd: telemetry on http://%s/metrics\n", srv.TelemetryAddr())
	}
	autopilot := ""
	if *auto {
		autopilot = ", autopilot on"
	}
	fmt.Printf("jiscd: serving %s on %s (strategy %s, window %d, shards %d%s)\n",
		p, srv.Addr(), *strat, *window, *shards, autopilot)

	// SIGTERM is the rolling-restart signal: stop accepting, fence new
	// work behind BUSY, flush everything admitted, checkpoint (when
	// durable), and exit 0 — the supervisor's replacement loses
	// nothing. SIGINT stays the fast path: close immediately.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	if got := <-sig; got == syscall.SIGTERM {
		fmt.Println("jiscd: draining (SIGTERM)")
		if err := srv.Drain(*drainTO); err != nil {
			fmt.Fprintf(os.Stderr, "jiscd: drain: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("jiscd: drained cleanly")
		return
	}
	fmt.Println("jiscd: shutting down")
	srv.Close()
}
