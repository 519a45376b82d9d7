// Package server exposes running continuous queries over a TCP line
// protocol, so external producers can feed streams and external
// consumers can subscribe to results — the shape a deployed DSMS node
// takes. The server hosts any number of named queries (each a
// runtime.Runtime); plan transitions arrive as protocol commands and
// migrate the live queries under the configured strategy (JISC by
// default: no halt, steady output to subscribers).
//
// Protocol (one command per line, ASCII). Commands that omit the query
// name address the default query:
//
//	FEED [query] <stream> <key>      ingest a tuple
//	FEEDB [query] <stream> <key>...  ingest a batch: every key on the
//	                                 line becomes one tuple of <stream>,
//	                                 delivered as a single FeedBatch and
//	                                 acknowledged with a single OK
//	MIGRATE [query] <plan>           transition, e.g. MIGRATE ((0 2) 1)
//	AUTO ON|OFF|STATUS [query]       toggle or inspect the autopilot: a
//	                                 per-query adaptive controller that
//	                                 watches live selectivities and
//	                                 migrates the plan by itself
//	SUBSCRIBE [query]                stream results on this connection
//	STATS [query]                    one-line counters
//	PLAN [query]                     current plan
//	CHECKPOINT [query] <path>        write a checkpoint (server-local)
//	CREATE <query> <window> <plan>   start a new named query
//	DROP <query>                     stop and remove a named query
//	LIST                             names of the hosted queries
//	QUIT                             close the connection
//
// Responses: "OK", "ERR <msg>", "STATS <...>", "PLAN <plan>",
// "QUERIES <names...>"; streamed results are "RESULT <key>
// <fingerprint>" and "RETRACT <key> <fingerprint>" lines. Results leave
// in batches: each is encoded once into its shard's chunk, and the
// chunk is handed to the subscribers when the ingest batch that
// produced it ends (a lone FEED's results go out at once) or reaches
// 32 KiB; a subscriber connection gets everything handed off since its
// last write in one write. A SUBSCRIBE starts at a line boundary of
// that stream. Subscribers with stalled connections are disconnected
// rather than allowed to block a query — one that is SubscriberBuffer
// lines behind when more results arrive; every such drop is counted
// (subs_dropped) and traced.
//
// The STATS response is one line of space-separated key=value fields
// (all unsigned decimal, unknown fields must be ignored by clients):
//
//	input/output/transitions/completions/shed   lifetime counters
//	feed_p50_ns, feed_p99_ns                    per-tuple feed-latency
//	                                            quantiles (sampled;
//	                                            0 until samples exist)
//	episodes                                    completion episodes run
//	subs_dropped                                subscribers dropped for
//	                                            falling SubscriberBuffer
//	                                            lines behind
//	batch_fill_p50                              median realized ingest
//	                                            batch size, in tuples
//	                                            (0 until batches flow)
//	batch_flushes                               ingest batches processed
//	                                            (FeedBatch calls: FEEDB
//	                                            lines plus coalesced
//	                                            FEED runs)
//	auto_enabled                                1 while the autopilot is
//	                                            on for the query
//	auto_proposals, auto_migrations,            plan changes proposed /
//	auto_rollbacks                              installed / rolled back
//	                                            by the autopilot since
//	                                            its last AUTO ON
//	last_migration_age_ms                       milliseconds since the
//	                                            autopilot last installed
//	                                            a plan (0 = never;
//	                                            reported ≥ 1 otherwise)
//	admission_shed                              tuples dropped by the
//	                                            ingest rate limiter
//	                                            (acknowledged OK)
//	deadline_shed                               admitted tuples dropped
//	                                            in queue past their
//	                                            feed deadline
//	rejected, rejected_batches                  tuples / batches refused
//	                                            with ERR BUSY (in-flight
//	                                            budget, or drain fence)
//	inflight_bytes                              admitted-but-unprocessed
//	                                            byte gauge (bounded by
//	                                            the in-flight budget)
//	draining                                    1 while a graceful drain
//	                                            is in progress
//
// "AUTO STATUS [query]" answers with the same autopilot fields on one
// "AUTO query=<name> ..." line.
//
// Lines are read through a 1 MiB cap: an over-long command draws
// "ERR line longer than ..." and the connection survives, it is not
// silently dropped. Pipelined commands are acknowledged in order but
// flushed together — one write per drained read buffer, not one per
// ack — and consecutive FEED lines for the same query already sitting
// in the read buffer are coalesced into a single FeedBatch (still one
// OK per line).
//
// ServeTelemetry additionally exposes HTTP observability (/metrics
// Prometheus text, /trace JSON event dump, /healthz, /debug/pprof/) —
// see its method documentation.
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"

	"jisc/internal/adaptive"
	"jisc/internal/admission"
	"jisc/internal/core"
	"jisc/internal/durable"
	"jisc/internal/plan"
	"jisc/internal/runtime"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// Config parameterizes a Server.
type Config struct {
	// Pipeline configures the default query's runtime and serves as
	// the template for CREATEd queries (strategy, queue size,
	// overflow policy, shard count). Setting its Shards field above 1
	// hash-partitions every hosted query across that many worker
	// shards; CHECKPOINT then writes one file per shard
	// (<path>.0 … <path>.N-1). Its Engine.Output and ShardOutput are
	// owned by the server and must be nil. Engine.Plan may be nil to start the
	// server with no default query (CREATE adds queries at runtime).
	// Its Durability field is owned by the server and must be zero;
	// set Config.Durable instead.
	Pipeline runtime.Config
	// SubscriberBuffer is how many result lines a subscriber may fall
	// behind (default 1024): one that is this far behind when further
	// results are handed to it is disconnected and counted in
	// subs_dropped. The bound is in lines, not hand-offs — a single
	// batch's results never drop a subscriber that has kept up — and
	// the memory held for a stalled subscriber is at most this many
	// lines plus one 32 KiB chunk.
	SubscriberBuffer int
	// Durable, when enabled (Dir set), makes every mutating command
	// durable: FEED and MIGRATE are write-ahead logged per query shard
	// before they are acknowledged, CREATE and DROP go to the query
	// catalog (Dir/catalog.wal, always fsynced), and New recovers the
	// whole topology — catalog fold, then per-query checkpoint + WAL
	// replay — before Listen accepts a single connection.
	Durable durable.Options
	// Adaptive is the autopilot template AUTO ON starts controllers
	// with (and recovery, for queries whose logged AUTO state was on).
	// The zero value uses the adaptive package defaults.
	Adaptive adaptive.Config
	// AutoStart turns the autopilot on for the default query at
	// startup (cmd/jiscd -auto). With durability on, the toggle is
	// logged like an AUTO ON command.
	AutoStart bool
	// Admission configures overload control. MaxConns is server-wide
	// (the accept loop refuses connections past the cap with "ERR BUSY
	// too many connections"); Rate/Burst, InflightBytes, and
	// FeedDeadline become a per-query controller each hosted query
	// feeds through. The zero value disables every limit. A
	// FeedDeadline cannot be combined with Durable (the runtime rejects
	// the pair).
	Admission admission.Config
	// ReadTimeout bounds how long a started command line may take to
	// finish arriving (armed once the first byte of a line exists;
	// idle connections are never timed out). 0 disables. A timeout
	// closes the connection.
	ReadTimeout time.Duration
	// WriteTimeout bounds each write to a connection (acks and
	// subscriber result lines). 0 disables. A timed-out write closes
	// the connection, so a stalled consumer can never hold the
	// connection's write lock — and with it the feed path's acks —
	// beyond this bound.
	WriteTimeout time.Duration
}

// Server hosts named continuous queries over TCP.
type Server struct {
	template runtime.Config
	bufSize  int
	ln       net.Listener
	durable  durable.Options
	catalog  *durable.Catalog
	catStats *durable.Stats
	// walDisabled counts mutating commands (FEED, MIGRATE, CREATE,
	// DROP, AUTO ON/OFF) executed while durability is off — each one is
	// state a crash would silently lose, so the telemetry endpoint
	// exposes the count distinctly rather than leaving "no WAL"
	// invisible.
	walDisabled atomic.Uint64
	// autoCfg is the autopilot template AUTO ON instantiates.
	autoCfg adaptive.Config
	// admCfg is the per-query admission template newQuery instantiates
	// (MaxConns stripped); adm is the server-wide controller owning the
	// connection gate, nil when MaxConns is 0.
	admCfg admission.Config
	adm    *admission.Controller
	// draining is the graceful-drain fence: once up, mutating commands
	// draw "ERR BUSY draining" while reads (STATS, PLAN, LIST) keep
	// answering. See Drain.
	draining atomic.Bool
	// inflight is read-held by a handler from its fence check to the
	// end of a mutating command; Drain write-locks it once, after
	// raising the fence, to wait those commands out. fenceHook, set by
	// tests only, runs in such a handler right after the fence check.
	inflight     sync.RWMutex
	fenceHook    func()
	readTimeout  time.Duration
	writeTimeout time.Duration

	mu          sync.Mutex
	queries     map[string]*query
	conns       map[net.Conn]struct{}
	closed      bool
	telemetry   *http.Server
	telemetryLn net.Listener
	connWG      sync.WaitGroup
	acceptWG    sync.WaitGroup
}

// New builds a server and starts the default query (when the config
// carries a plan). With durability enabled it first recovers every
// query recorded in the catalog. Call Listen to accept connections.
func New(cfg Config) (*Server, error) {
	if cfg.Pipeline.Engine.Output != nil || cfg.Pipeline.ShardOutput != nil {
		return nil, errors.New("server: Engine.Output and ShardOutput are owned by the server")
	}
	if cfg.Pipeline.Durability.Enabled() {
		return nil, errors.New("server: Pipeline.Durability is owned by the server; set Config.Durable")
	}
	if cfg.SubscriberBuffer == 0 {
		cfg.SubscriberBuffer = 1024
	}
	if cfg.SubscriberBuffer < 0 {
		return nil, fmt.Errorf("server: negative subscriber buffer")
	}
	if cfg.ReadTimeout < 0 || cfg.WriteTimeout < 0 {
		return nil, fmt.Errorf("server: negative timeout")
	}
	s := &Server{
		template:     cfg.Pipeline,
		bufSize:      cfg.SubscriberBuffer,
		autoCfg:      cfg.Adaptive,
		admCfg:       cfg.Admission,
		readTimeout:  cfg.ReadTimeout,
		writeTimeout: cfg.WriteTimeout,
		queries:      make(map[string]*query),
		conns:        make(map[net.Conn]struct{}),
	}
	if cfg.Admission.MaxConns > 0 {
		ctrl, err := admission.New(admission.Config{MaxConns: cfg.Admission.MaxConns})
		if err != nil {
			return nil, err
		}
		s.adm = ctrl
	} else if _, err := admission.New(cfg.Admission); err != nil {
		return nil, err // surface a bad template before any query uses it
	}
	if cfg.Durable.Enabled() {
		if err := s.recoverDurable(cfg); err != nil {
			return nil, err
		}
	} else if cfg.Pipeline.Engine.Plan != nil {
		q, err := newQuery(DefaultQuery, cfg.Pipeline, s.bufSize, s.admCfg)
		if err != nil {
			return nil, err
		}
		s.queries[DefaultQuery] = q
	}
	if cfg.AutoStart {
		q, ok := s.queries[DefaultQuery]
		if !ok {
			s.Close()
			return nil, errors.New("server: AutoStart needs a default query")
		}
		if err := s.autoOn(q); err != nil {
			s.Close()
			return nil, fmt.Errorf("server: starting autopilot: %w", err)
		}
	}
	return s, nil
}

// autoOn starts the autopilot on q from the server's template and,
// with durability on, logs the toggle to the catalog — recovery then
// re-enables it before Listen. Idempotent: an already-running
// autopilot is left untouched (and nothing is re-logged).
func (s *Server) autoOn(q *query) error {
	if q.runner.Auto() != nil {
		return nil
	}
	if err := q.runner.StartAuto(s.autoCfg); err != nil {
		return err
	}
	if s.catalog != nil {
		if err := s.catalog.AppendAuto(q.name, true); err != nil {
			q.runner.StopAuto()
			return fmt.Errorf("logging AUTO ON: %w", err)
		}
	}
	return nil
}

// autoOff stops the autopilot on q, logging the toggle when durable.
// Idempotent.
func (s *Server) autoOff(q *query) error {
	if q.runner.Auto() == nil {
		return nil
	}
	q.runner.StopAuto()
	if s.catalog != nil {
		if err := s.catalog.AppendAuto(q.name, false); err != nil {
			return fmt.Errorf("logging AUTO OFF: %w", err)
		}
	}
	return nil
}

// autoStats reads q's autopilot telemetry: the enabled flag, the
// proposal/migration/rollback counters, and the age of the last
// autopilot migration in milliseconds (0 = never; clamped to ≥ 1 when
// one happened, so "never" stays unambiguous). All zeros while the
// autopilot is off — the counters belong to the running controller.
func autoStats(q *query) (enabled, proposals, migrations, rollbacks, ageMS uint64) {
	c := q.runner.Auto()
	if c == nil {
		return 0, 0, 0, 0, 0
	}
	enabled = 1
	proposals, migrations, rollbacks = c.Proposals(), c.Migrations(), c.Rollbacks()
	if t := c.LastMigration(); !t.IsZero() {
		ms := time.Since(t).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		ageMS = uint64(ms)
	}
	return enabled, proposals, migrations, rollbacks, ageMS
}

// recoverDurable restores the server's query topology from the
// durability directory: open and fold the catalog, then bring up the
// config's default query and every cataloged query, each recovering
// its own shards from checkpoint + WAL tail.
func (s *Server) recoverDurable(cfg Config) error {
	opts := cfg.Durable.WithDefaults()
	s.durable = opts
	s.catStats = &durable.Stats{}
	start := time.Now()
	cat, entries, auto, err := durable.OpenCatalog(opts, s.catStats)
	if err != nil {
		return fmt.Errorf("server: opening catalog: %w", err)
	}
	s.catalog = cat
	fail := func(err error) error {
		for name, q := range s.queries {
			q.close()
			delete(s.queries, name)
		}
		cat.Close()
		return err
	}
	if cfg.Pipeline.Engine.Plan != nil {
		q, err := s.newDurableQuery(DefaultQuery, cfg.Pipeline)
		if err != nil {
			return fail(fmt.Errorf("server: recovering default query: %w", err))
		}
		s.queries[DefaultQuery] = q
	}
	for _, e := range entries {
		if _, dup := s.queries[e.Name]; dup {
			// The catalog can only collide with the config default
			// (create rejects duplicate names); the config wins.
			continue
		}
		p, err := plan.Parse(e.Plan)
		if err != nil {
			return fail(fmt.Errorf("server: catalog entry %q: %w", e.Name, err))
		}
		qcfg := s.template
		qcfg.Engine.Plan = p
		qcfg.Engine.WindowSize = e.Window
		if qcfg.Engine.Strategy == nil {
			qcfg.Engine.Strategy = core.New()
		}
		q, err := s.newDurableQuery(e.Name, qcfg)
		if err != nil {
			return fail(fmt.Errorf("server: recovering query %q: %w", e.Name, err))
		}
		s.queries[e.Name] = q
	}
	// Autopilot state survives recovery: re-enable the controller of
	// every query whose last logged toggle was ON (no re-logging — the
	// catalog already says so).
	for name, on := range auto {
		if !on {
			continue
		}
		if q, ok := s.queries[name]; ok {
			if err := q.runner.StartAuto(s.autoCfg); err != nil {
				return fail(fmt.Errorf("server: restarting autopilot of %q: %w", name, err))
			}
		}
	}
	durable.MarkRecovery(s.catStats, start)
	return nil
}

// queryDir returns the named query's durability directory.
func (s *Server) queryDir(name string) string {
	return filepath.Join(s.durable.Dir, "q-"+name)
}

// newDurableQuery builds a query whose runtime persists under the
// server's durability root.
func (s *Server) newDurableQuery(name string, cfg runtime.Config) (*query, error) {
	cfg.Durability = s.durable
	cfg.Durability.Dir = s.queryDir(name)
	return newQuery(name, cfg, s.bufSize, s.admCfg)
}

// validDurableName restricts durable query names to characters that
// are safe in a directory name on every platform.
func validDurableName(name string) bool {
	if name == "" || name == "." || name == ".." {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts accepting.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.acceptWG.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the bound address after Listen.
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Queries returns the hosted query names, sorted.
func (s *Server) Queries() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.queries))
	for name := range s.queries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Subscribers returns the live subscriber count of the named query.
func (s *Server) Subscribers(name string) int {
	s.mu.Lock()
	q := s.queries[name]
	s.mu.Unlock()
	if q == nil {
		return 0
	}
	return q.subscribers()
}

// lookup resolves a query by name.
func (s *Server) lookup(name string) (*query, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queries[name]
	if !ok {
		return nil, fmt.Errorf("no query %q", name)
	}
	return q, nil
}

// create starts a new named query from the server template. With
// durability on it is logged to the catalog before the OK: the command
// sequence is newQuery (validates everything and brings the runtime
// up), then AppendCreate (fsynced), then acknowledge — a crash between
// the two leaves an unacknowledged query that simply doesn't exist
// after restart.
func (s *Server) create(name string, windowSize int, p *plan.Plan) error {
	if name == "" || strings.ContainsAny(name, " \t") {
		return fmt.Errorf("bad query name %q", name)
	}
	if s.durable.Enabled() && !validDurableName(name) {
		return fmt.Errorf("bad query name %q: durable query names use [A-Za-z0-9._-] only", name)
	}
	cfg := s.template
	cfg.Engine.Plan = p
	cfg.Engine.WindowSize = windowSize
	if cfg.Engine.Strategy == nil {
		cfg.Engine.Strategy = core.New()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("server closed")
	}
	if _, dup := s.queries[name]; dup {
		return fmt.Errorf("query %q exists", name)
	}
	if s.durable.Enabled() {
		// A crash between a logged DROP and its directory removal can
		// leave stale state under this name; a fresh CREATE must start
		// empty, never resurrect it. (Recovery-time creation takes the
		// other branch in recoverDurable and keeps the directory.)
		if err := s.durable.FS.RemoveAll(s.queryDir(name)); err != nil {
			return fmt.Errorf("clearing stale state for %q: %w", name, err)
		}
		cfg.Durability = s.durable
		cfg.Durability.Dir = s.queryDir(name)
	}
	q, err := newQuery(name, cfg, s.bufSize, s.admCfg)
	if err != nil {
		return err
	}
	if s.catalog != nil {
		if err := s.catalog.AppendCreate(name, windowSize, p.String()); err != nil {
			q.close()
			return fmt.Errorf("logging CREATE: %w", err)
		}
	}
	s.queries[name] = q
	return nil
}

// drop stops and removes a named query. With durability on the DROP is
// logged to the catalog, then the query's directory is removed; a
// crash between the two is healed by the next CREATE of the same name
// (which clears the directory first). Dropping the config's default
// query only empties it: the config recreates it, fresh, on restart.
func (s *Server) drop(name string) error {
	s.mu.Lock()
	q, ok := s.queries[name]
	if ok {
		delete(s.queries, name)
	}
	cat := s.catalog
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("no query %q", name)
	}
	q.close()
	if cat != nil {
		if err := cat.AppendDrop(name); err != nil {
			return fmt.Errorf("logging DROP: %w", err)
		}
		if err := s.durable.FS.RemoveAll(s.queryDir(name)); err != nil {
			return fmt.Errorf("removing state of %q: %w", name, err)
		}
	}
	return nil
}

func (s *Server) acceptLoop() {
	defer s.acceptWG.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		// The connection cap is the outermost rung of the degradation
		// ladder: refuse with a retriable BUSY line instead of letting
		// goroutine and buffer costs grow unbounded. The rejected dial
		// is counted (conn_rejected) and never enters the conn map.
		if !s.adm.AcquireConn() {
			go func(c net.Conn) {
				c.SetWriteDeadline(time.Now().Add(time.Second))
				fmt.Fprintf(c, "ERR BUSY too many connections\n")
				c.Close()
			}(conn)
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			s.adm.ReleaseConn()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.connWG.Add(1)
		go s.handle(conn)
	}
}

// lockedWriter serializes whole-line writes from the command handler
// and the subscription streamers onto one connection. With a write
// timeout configured, every operation that may touch the socket (an
// explicit flush, or a buffered write spilling a full buffer) first
// arms a write deadline — so a consumer that stops reading can hold
// the write lock for at most the timeout before the write errors, the
// connection is closed, and both the streamer and the command loop
// unwind. Without the deadline a blocked subscriber would pin the
// lock and stall the same connection's feed acks forever.
type lockedWriter struct {
	mu      sync.Mutex
	w       *bufio.Writer
	conn    net.Conn
	timeout time.Duration
}

// writeLine buffers one line without flushing: the command loop
// flushes once per drained read buffer (just before it would block on
// the next read) so a pipelined burst of commands costs one write
// syscall for all its acks.
func (lw *lockedWriter) writeLine(format string, args ...any) error {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	lw.armDeadline()
	_, err := fmt.Fprintf(lw.w, format+"\n", args...)
	if err != nil {
		lw.conn.Close()
	}
	return err
}

func (lw *lockedWriter) flush() error { return lw.writeChunk(nil) }

// writeChunk flushes the buffered acks and then sends chunk — a
// subscriber's whole result lines — in one socket write of its own: the
// acks ahead of it (the SUBSCRIBE's own OK) keep their place, the chunk
// is not copied through the ack buffer, and the deadline is armed once
// for all its lines.
func (lw *lockedWriter) writeChunk(chunk []byte) error {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	lw.armDeadline()
	err := lw.w.Flush()
	if err == nil && len(chunk) > 0 {
		_, err = lw.conn.Write(chunk)
	}
	if err != nil {
		// A timed-out or failed write leaves the protocol stream torn
		// mid-line; the connection is unusable either way. Closing it
		// here (not just in the goroutine that noticed) unblocks the
		// peer goroutine sharing the writer.
		lw.conn.Close()
	}
	return err
}

// armDeadline sets the per-write deadline; callers hold lw.mu.
func (lw *lockedWriter) armDeadline() {
	if lw.timeout > 0 {
		lw.conn.SetWriteDeadline(time.Now().Add(lw.timeout))
	}
}

// maxLineBytes caps one protocol line. A FEEDB line of maximal batch
// size fits comfortably; anything longer draws an ERR instead of
// killing the connection (the old Scanner died silently at its 64 KiB
// default token limit).
const maxLineBytes = 1 << 20

// maxCoalesce bounds how many consecutive buffered FEED lines fold
// into one FeedBatch, so one connection's burst cannot monopolize a
// shard queue slot arbitrarily.
const maxCoalesce = 512

var errLineTooLong = errors.New("line too long")

// readLine reads one \n-terminated line of at most maxLineBytes.
// An over-long line is discarded through its terminator and reported
// as errLineTooLong, leaving the stream positioned at the next line.
func readLine(br *bufio.Reader) (string, error) {
	var long []byte
	for {
		frag, err := br.ReadSlice('\n')
		if err == nil {
			if long == nil {
				return string(frag[:len(frag)-1]), nil
			}
			long = append(long, frag...)
			if len(long) > maxLineBytes {
				return "", errLineTooLong
			}
			return string(long[:len(long)-1]), nil
		}
		if err != bufio.ErrBufferFull {
			return "", err
		}
		long = append(long, frag...)
		if len(long) > maxLineBytes {
			for {
				if _, err := br.ReadSlice('\n'); err == nil {
					return "", errLineTooLong
				} else if err != bufio.ErrBufferFull {
					return "", err
				}
			}
		}
	}
}

// bufferedLine returns the next complete line already sitting in br's
// buffer, without consuming it, and whether one exists. Consuming it
// is the caller's Discard(n) of the returned length.
func bufferedLine(br *bufio.Reader) (string, int, bool) {
	buffered, _ := br.Peek(br.Buffered())
	nl := bytes.IndexByte(buffered, '\n')
	if nl < 0 {
		return "", 0, false
	}
	return string(buffered[:nl]), nl + 1, true
}

// splitQuery interprets the optional leading query name of a command:
// when the first field names a hosted query, it is consumed and the
// remaining fields are returned joined by single spaces; otherwise the
// default query is addressed and rest comes back untouched. Only the
// first field is cut out to be looked up — a FEEDB payload is not
// tokenised to find out that its first word is a stream number.
func (s *Server) splitQuery(rest string) (*query, string, error) {
	first := strings.TrimLeftFunc(rest, unicode.IsSpace)
	after := ""
	if i := strings.IndexFunc(first, unicode.IsSpace); i >= 0 {
		first, after = first[:i], first[i:]
	}
	s.mu.Lock()
	q, named := s.queries[first]
	if !named {
		q = s.queries[DefaultQuery]
	}
	s.mu.Unlock()
	switch {
	case named:
		return q, strings.Join(strings.Fields(after), " "), nil
	case q == nil:
		return nil, "", fmt.Errorf("no default query; name one of %v", s.Queries())
	}
	return q, rest, nil
}

func (s *Server) handle(conn net.Conn) {
	defer s.connWG.Done()
	defer s.adm.ReleaseConn()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	lw := &lockedWriter{w: bufio.NewWriter(conn), conn: conn, timeout: s.writeTimeout}
	br := bufio.NewReaderSize(conn, 64<<10)
	var batch []workload.Event
	// Per-connection subscriptions: at most one per query.
	type sub struct {
		q  *query
		id int
	}
	var subs []sub
	var subWG sync.WaitGroup
	defer func() {
		for _, su := range subs {
			su.q.unsubscribe(su.id)
		}
		subWG.Wait()
	}()
	respond := func(err error) error {
		if err != nil {
			return lw.writeLine("ERR %v", err)
		}
		return lw.writeLine("OK")
	}
	for {
		if _, _, ok := bufferedLine(br); !ok {
			// About to block (no complete line buffered): everything
			// acknowledged so far goes out in one write.
			if err := lw.flush(); err != nil {
				return
			}
			if s.readTimeout > 0 {
				// The command read deadline arms only once a line has
				// started arriving: Peek blocks without a deadline (an
				// idle connection may sit forever), but after the first
				// byte the rest of the line must land within the
				// timeout — a half-open peer or a byte-trickling client
				// cannot pin the handler goroutine.
				if _, err := br.Peek(1); err != nil {
					return
				}
				conn.SetReadDeadline(time.Now().Add(s.readTimeout))
			}
		}
		line, rerr := readLine(br)
		if s.readTimeout > 0 {
			conn.SetReadDeadline(time.Time{})
		}
		if rerr == errLineTooLong {
			if lw.writeLine("ERR line longer than %d bytes", maxLineBytes) != nil {
				return
			}
			continue
		}
		if rerr != nil {
			return
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var werr error
		verb, rest, _ := strings.Cut(line, " ")
		mutating := false
		switch strings.ToUpper(verb) {
		case "FEED", "FEEDB", "MIGRATE", "CREATE", "DROP", "CHECKPOINT", "AUTO":
			// The drain fence: mutating commands are rejected retriably
			// (the client's BUSY backoff will land on the replacement
			// process after the rolling restart) while reads keep
			// answering so operators can watch the drain progress. The
			// flag is read under the in-flight lock, held until the
			// command is done, so Drain can wait out every command that
			// saw the fence down before it takes the final checkpoint.
			s.inflight.RLock()
			if s.draining.Load() {
				s.inflight.RUnlock()
				if respond(admission.Busy("draining")) != nil {
					return
				}
				continue
			}
			mutating = true
			if s.fenceHook != nil {
				s.fenceHook()
			}
		}
		switch strings.ToUpper(verb) {
		case "FEED", "FEEDB", "MIGRATE", "CREATE", "DROP":
			if !s.durable.Enabled() {
				s.walDisabled.Add(1)
			}
		}
		switch strings.ToUpper(verb) {
		case "FEED":
			q, args, err := s.splitQuery(rest)
			var ev workload.Event
			if err == nil {
				ev, err = parseFeedEvent(args)
			}
			if err == nil && !q.hasStream(ev.Stream) {
				err = fmt.Errorf("stream %d not in query %q", ev.Stream, q.name)
			}
			if err != nil {
				werr = respond(err)
				break
			}
			batch = append(batch[:0], ev)
			// Coalesce consecutive FEEDs to the same query already
			// sitting in the read buffer: the whole run becomes one
			// FeedBatch — one queue slot and, on a durable server, one
			// WAL frame — while the client still sees one OK per line.
			acks := 1
			for len(batch) < maxCoalesce {
				next, consume, ok := bufferedLine(br)
				if !ok {
					break
				}
				v, r, _ := strings.Cut(strings.TrimSpace(next), " ")
				if !strings.EqualFold(v, "FEED") {
					break
				}
				q2, args2, err2 := s.splitQuery(r)
				if err2 != nil || q2 != q {
					break
				}
				ev2, err2 := parseFeedEvent(args2)
				if err2 != nil || !q.hasStream(ev2.Stream) {
					break
				}
				br.Discard(consume)
				batch = append(batch, ev2)
				acks++
			}
			if acks > 1 && !s.durable.Enabled() {
				s.walDisabled.Add(uint64(acks - 1)) // the first FEED is counted above
			}
			ferr := q.runner.FeedBatch(batch)
			for i := 0; i < acks && werr == nil; i++ {
				werr = respond(ferr)
			}
		case "FEEDB":
			q, args, err := s.splitQuery(rest)
			if err == nil {
				var evs []workload.Event
				if evs, err = parseFeedBatch(args); err == nil {
					if len(evs) > 0 && !q.hasStream(evs[0].Stream) {
						err = fmt.Errorf("stream %d not in query %q", evs[0].Stream, q.name)
					} else {
						err = q.runner.FeedBatch(evs)
					}
				}
			}
			werr = respond(err)
		case "MIGRATE":
			q, args, err := s.splitQuery(rest)
			if err == nil {
				var p *plan.Plan
				if p, err = plan.Parse(args); err == nil {
					err = q.runner.Migrate(p)
				}
			}
			werr = respond(err)
		case "SUBSCRIBE":
			q, _, err := s.splitQuery(rest)
			if err != nil {
				werr = respond(err)
				break
			}
			already := false
			for _, su := range subs {
				if su.q == q {
					already = true
				}
			}
			if already {
				werr = respond(fmt.Errorf("already subscribed to %q", q.name))
				break
			}
			id, su := q.subscribe()
			subs = append(subs, sub{q: q, id: id})
			werr = respond(nil)
			subWG.Add(1)
			go func() {
				defer subWG.Done()
				// One socket write for everything handed off since the
				// last one: bursts batch up, a lone result still goes
				// out as soon as its batch ends.
				var chunk []byte
				for {
					var ok bool
					if chunk, ok = su.take(chunk); !ok {
						return
					}
					if lw.writeChunk(chunk) != nil {
						return
					}
				}
			}()
		case "AUTO":
			action, qname, _ := strings.Cut(strings.TrimSpace(rest), " ")
			q, leftover, err := s.splitQuery(qname)
			if err != nil {
				werr = respond(err)
				break
			}
			if leftover != "" {
				// Unlike FEED, AUTO takes no payload after the query name,
				// so a leftover token is a typo'd name — don't let it fall
				// through to the default query.
				werr = respond(fmt.Errorf("no query %q", leftover))
				break
			}
			switch strings.ToUpper(action) {
			case "ON":
				if !s.durable.Enabled() {
					s.walDisabled.Add(1)
				}
				werr = respond(s.autoOn(q))
			case "OFF":
				if !s.durable.Enabled() {
					s.walDisabled.Add(1)
				}
				werr = respond(s.autoOff(q))
			case "STATUS":
				en, pr, mg, rb, age := autoStats(q)
				werr = lw.writeLine("AUTO query=%s enabled=%d proposals=%d migrations=%d rollbacks=%d last_migration_age_ms=%d",
					q.name, en, pr, mg, rb, age)
			default:
				werr = respond(fmt.Errorf("AUTO wants ON, OFF, or STATUS"))
			}
		case "STATS":
			q, _, err := s.splitQuery(rest)
			if err != nil {
				werr = respond(err)
				break
			}
			m, merr := q.runner.Metrics()
			if merr != nil {
				werr = respond(merr)
				break
			}
			o := q.obs.Snapshot()
			ds := q.runner.DurableStats()
			en, pr, mg, rb, age := autoStats(q)
			stateBytes, sberr := q.runner.StateBytes()
			if sberr != nil {
				werr = respond(sberr)
				break
			}
			spill, _ := q.runner.SpillStats()
			adm := q.adm.Snapshot()
			draining := 0
			if s.draining.Load() {
				draining = 1
			}
			werr = lw.writeLine("STATS input=%d output=%d transitions=%d completions=%d shed=%d feed_p50_ns=%d feed_p99_ns=%d episodes=%d subs_dropped=%d wal_appends=%d wal_fsync_p99_ns=%d recovered_events=%d batch_fill_p50=%d batch_flushes=%d state_bytes=%d spill_faults=%d auto_enabled=%d auto_proposals=%d auto_migrations=%d auto_rollbacks=%d last_migration_age_ms=%d admission_shed=%d deadline_shed=%d rejected=%d rejected_batches=%d inflight_bytes=%d draining=%d",
				m.Input, m.Output, m.Transitions, m.Completions, q.runner.Shed(),
				o.Feed.Quantile(0.50), o.Feed.Quantile(0.99), o.Completion.Count, q.dropped(),
				ds.Appends, o.WALFsync.Quantile(0.99), ds.RecoveredEvents,
				uint64(o.BatchFill.Quantile(0.50)), o.BatchFill.Count,
				stateBytes, spill.Faults,
				en, pr, mg, rb, age,
				adm.ShedTuples, adm.DeadlineShedTuples, adm.RejectedTuples, adm.RejectedBatches,
				adm.InflightBytes, draining)
		case "PLAN":
			q, _, err := s.splitQuery(rest)
			if err != nil {
				werr = respond(err)
				break
			}
			p, perr := q.runner.Plan()
			if perr != nil {
				werr = respond(perr)
				break
			}
			werr = lw.writeLine("PLAN %s", p)
		case "CHECKPOINT":
			q, args, err := s.splitQuery(rest)
			if err != nil {
				werr = respond(err)
				break
			}
			path := strings.TrimSpace(args)
			if path == "" {
				werr = respond(fmt.Errorf("CHECKPOINT wants <path>"))
				break
			}
			werr = respond(q.checkpoint(path))
		case "CREATE":
			fields := strings.Fields(rest)
			if len(fields) < 3 {
				werr = respond(fmt.Errorf("CREATE wants <name> <window> <plan>"))
				break
			}
			win, err := strconv.Atoi(fields[1])
			if err != nil || win <= 0 {
				werr = respond(fmt.Errorf("bad window %q", fields[1]))
				break
			}
			p, err := plan.Parse(strings.Join(fields[2:], " "))
			if err == nil {
				err = s.create(fields[0], win, p)
			}
			werr = respond(err)
		case "DROP":
			// Dropping a query this connection subscribes to closes
			// that subscription; its streamer exits cleanly.
			werr = respond(s.drop(strings.TrimSpace(rest)))
		case "LIST":
			werr = lw.writeLine("QUERIES %s", strings.Join(s.Queries(), " "))
		case "QUIT":
			lw.writeLine("OK")
			lw.flush()
			return
		default:
			werr = lw.writeLine("ERR unknown command %q", verb)
		}
		if mutating {
			s.inflight.RUnlock()
		}
		if werr != nil {
			return
		}
	}
}

func parseStream(field string) (tuple.StreamID, error) {
	stream, err := strconv.Atoi(field)
	if err != nil || stream < 0 || stream >= tuple.MaxStreams {
		return 0, fmt.Errorf("bad stream %q", field)
	}
	return tuple.StreamID(stream), nil
}

func parseFeedEvent(rest string) (workload.Event, error) {
	fields := strings.Fields(rest)
	if len(fields) != 2 {
		return workload.Event{}, fmt.Errorf("FEED wants [query] <stream> <key>")
	}
	stream, err := parseStream(fields[0])
	if err != nil {
		return workload.Event{}, err
	}
	key, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return workload.Event{}, fmt.Errorf("bad key %q", fields[1])
	}
	return workload.Event{Stream: stream, Key: tuple.Value(key)}, nil
}

// parseFeedBatch parses the tail of "FEEDB [query] <stream> <key>
// [<key>...]": one batch of same-stream tuples in line order.
func parseFeedBatch(rest string) ([]workload.Event, error) {
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return nil, fmt.Errorf("FEEDB wants [query] <stream> <key> [<key>...]")
	}
	stream, err := parseStream(fields[0])
	if err != nil {
		return nil, err
	}
	evs := make([]workload.Event, len(fields)-1)
	for i, f := range fields[1:] {
		key, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad key %q", f)
		}
		evs[i] = workload.Event{Stream: stream, Key: tuple.Value(key)}
	}
	return evs, nil
}

// Close stops accepting, closes every connection, and shuts all
// queries down.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	queries := make([]*query, 0, len(s.queries))
	for name, q := range s.queries {
		queries = append(queries, q)
		delete(s.queries, name)
	}
	telemetry := s.telemetry
	s.mu.Unlock()
	if telemetry != nil {
		telemetry.Close()
	}
	if s.ln != nil {
		s.ln.Close()
		s.acceptWG.Wait()
	}
	s.connWG.Wait()
	for _, q := range queries {
		q.close()
	}
	if s.catalog != nil {
		s.catalog.Close()
	}
}

// Durable reports whether the server write-ahead logs mutations.
func (s *Server) Durable() bool { return s.durable.Enabled() }

// WALDisabledMutations returns the number of mutating commands
// executed while durability was off.
func (s *Server) WALDisabledMutations() uint64 { return s.walDisabled.Load() }

// DurableStats aggregates the durability counters across the catalog
// and every hosted query. Zero when durability is off.
func (s *Server) DurableStats() durable.StatsSnapshot {
	total := s.catStats.Snapshot()
	for _, q := range s.sortedQueries() {
		total = total.Add(q.runner.DurableStats())
	}
	return total
}
