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
//	STATS [query] | PLAN [query] | QUIT
//	CHECKPOINT [query]              checkpoint now; with -wal only
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

// options holds the value of every flag; config is the one place they
// are checked and turned into the server's configuration.
type options struct {
	addr, plan, strategy, telemetry   string
	window, queue, shards, maxConns   int
	timeSpan                          uint64
	windowSet, shed, auto             bool // windowSet: -window was given
	wal, fsync, stateBudget, spillDir string
	fsyncInterval, checkpointInterval time.Duration
	autoInterval, autoCooldown        time.Duration
	ingestRate, ingestBurst           float64
	inflightBudget                    string
	feedDeadline, readTimeout         time.Duration
	writeTimeout, drainTimeout        time.Duration
}

// config validates the flags against each other and builds the server
// configuration. A flag that would silently do nothing — because the
// flag it modifies is off — is an error naming it. -shed and
// -feed-deadline with -wal are refused by the runtime's own validation,
// which reaches the operator through server.New.
func (o options) config() (server.Config, error) {
	var cfg server.Config
	p, err := plan.Parse(o.plan)
	if err != nil {
		return cfg, fmt.Errorf("bad -plan: %w", err)
	}
	var strategy engine.Strategy
	switch o.strategy {
	case "jisc":
		strategy = core.New()
	case "moving-state":
		strategy = migrate.MovingState{}
	case "static":
		strategy = engine.Static{}
	default:
		return cfg, fmt.Errorf("unknown -strategy %q (want jisc, moving-state, or static)", o.strategy)
	}
	overflow := runtime.Block
	if o.shed {
		overflow = runtime.Shed
	}
	stateBudget, err := parseBytes("state-budget", o.stateBudget, true)
	if err != nil {
		return cfg, err
	}
	inflightBudget, err := parseBytes("inflight-budget", o.inflightBudget, false)
	if err != nil {
		return cfg, err
	}
	policy, err := durable.ParsePolicy(o.fsync)
	if err != nil {
		return cfg, fmt.Errorf("bad -fsync: %w", err)
	}
	switch {
	case o.wal == "" && o.fsyncInterval != 0:
		return cfg, fmt.Errorf("-fsync-interval %v without -wal: there is no log to group-commit", o.fsyncInterval)
	case o.wal == "" && o.checkpointInterval != 0:
		return cfg, fmt.Errorf("-checkpoint-interval %v without -wal: there is no directory to checkpoint into", o.checkpointInterval)
	case o.ingestBurst != 0 && o.ingestRate == 0:
		return cfg, fmt.Errorf("-ingest-burst %v without -ingest-rate: an unlimited rate has no bucket to burst above", o.ingestBurst)
	case o.spillDir != "" && stateBudget < 0:
		return cfg, fmt.Errorf("-spill-dir %s with -state-budget off: nothing will ever spill there", o.spillDir)
	case o.windowSet && o.timeSpan > 0:
		return cfg, fmt.Errorf("-window %d with -timespan %d: a time window's span is in ticks, so the count window size would be ignored", o.window, o.timeSpan)
	}
	var dur durable.Options
	if o.wal != "" {
		dur = durable.Options{
			Dir:                o.wal,
			Fsync:              policy,
			FlushInterval:      o.fsyncInterval,
			CheckpointInterval: o.checkpointInterval,
		}
	}
	return server.Config{
		Pipeline: runtime.Config{
			Engine: engine.Config{
				Plan:        p,
				WindowSize:  o.window,
				TimeSpan:    o.timeSpan,
				Strategy:    strategy,
				StateBudget: stateBudget,
				SpillDir:    o.spillDir,
			},
			QueueSize: o.queue,
			Overflow:  overflow,
			Shards:    o.shards,
		},
		Durable: dur,
		Adaptive: adaptive.Config{
			Interval: o.autoInterval,
			Cooldown: o.autoCooldown,
		},
		AutoStart: o.auto,
		Admission: admission.Config{
			MaxConns:      o.maxConns,
			Rate:          o.ingestRate,
			Burst:         o.ingestBurst,
			InflightBytes: inflightBudget,
			FeedDeadline:  o.feedDeadline,
		},
		ReadTimeout:  o.readTimeout,
		WriteTimeout: o.writeTimeout,
	}, nil
}

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7878", "listen address")
		planSrc   = flag.String("plan", "0,1,2", "initial plan (infix tree or comma-separated left-deep order)")
		window    = flag.Int("window", 10000, "per-stream window size in tuples, counted per shard: a shard's window holds the last N tuples of the stream that reached that shard")
		timeSpan  = flag.Uint64("timespan", 0, "time-based window span in ticks, in place of -window (0 = count-based); a shard's clock ticks once per tuple that reaches that shard")
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
	o := options{
		addr: *addr, plan: *planSrc, strategy: *strat, telemetry: *telemetry,
		window: *window, queue: *queue, shards: *shards, maxConns: *maxConns,
		timeSpan: *timeSpan, shed: *shedding, auto: *auto,
		wal: *walDir, fsync: *fsyncMode, stateBudget: *budget, spillDir: *spillDir,
		fsyncInterval: *fsyncIvl, checkpointInterval: *ckptIvl,
		autoInterval: *autoIvl, autoCooldown: *autoCool,
		ingestRate: *ingestRate, ingestBurst: *ingestBurst, inflightBudget: *inflight,
		feedDeadline: *feedDeadline, readTimeout: *readTimeout,
		writeTimeout: *writeTimeout, drainTimeout: *drainTO,
	}
	flag.Visit(func(f *flag.Flag) { o.windowSet = o.windowSet || f.Name == "window" })

	die := func(err error) {
		fmt.Fprintf(os.Stderr, "jiscd: %v\n", err)
		os.Exit(1)
	}
	cfg, err := o.config()
	if err != nil {
		die(err)
	}
	srv, err := server.New(cfg)
	if err != nil {
		die(err)
	}
	if cfg.Durable.Enabled() {
		ds := srv.DurableStats()
		fmt.Printf("jiscd: recovered from %s in %.3fs (%d events replayed, %d torn tails truncated; fsync %s)\n",
			o.wal, float64(ds.RecoveryNs)/1e9, ds.RecoveredEvents, ds.TornTruncations, cfg.Durable.Fsync)
	}
	if err := srv.Listen(o.addr); err != nil {
		die(err)
	}
	if o.telemetry != "" {
		if err := srv.ServeTelemetry(o.telemetry); err != nil {
			die(err)
		}
		fmt.Printf("jiscd: telemetry on http://%s/metrics\n", srv.TelemetryAddr())
	}
	autopilot := ""
	if o.auto {
		autopilot = ", autopilot on"
	}
	fmt.Printf("jiscd: serving %s on %s (strategy %s, window %d, shards %d%s)\n",
		cfg.Pipeline.Engine.Plan, srv.Addr(), o.strategy, o.window, o.shards, autopilot)

	// SIGTERM is the rolling-restart signal: stop accepting, fence new
	// work behind BUSY, flush everything admitted, checkpoint (when
	// durable), and exit 0 — the supervisor's replacement loses
	// nothing. SIGINT stays the fast path: close immediately.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	if got := <-sig; got == syscall.SIGTERM {
		fmt.Println("jiscd: draining (SIGTERM)")
		if err := srv.Drain(o.drainTimeout); err != nil {
			fmt.Fprintf(os.Stderr, "jiscd: drain: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("jiscd: drained cleanly")
		return
	}
	fmt.Println("jiscd: shutting down")
	srv.Close()
}
