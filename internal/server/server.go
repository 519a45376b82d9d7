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
//	CHECKPOINT [query]               checkpoint now (durable servers
//	                                 only): every shard's snapshot at
//	                                 its log position; the log truncates
//	CREATE <query> <window> <plan>   start a new named query
//	DROP <query>                     stop and remove a named query
//	LIST                             names of the hosted queries
//	QUIT                             close the connection
//
// Responses: "OK", "ERR <msg>", "STATS <...>", "PLAN <plan>",
// "QUERIES <names...>"; streamed results are "RESULT <key>
// <fingerprint>" and "RETRACT <key> <fingerprint>" lines. Results leave
// in batches: each probe's results are encoded in one pass into its
// shard's chunk, and the
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
// (all unsigned decimal; clients must ignore fields they do not know),
// and "AUTO STATUS [query]" answers with the autopilot's fields on one
// "AUTO query=<name> ..." line. README.md, "Metrics reference", lists
// every key with the /metrics family that carries the same quantity.
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
	"unicode/utf8"

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
	// overflow policy, shard count). A nil Engine.Strategy means JISC
	// (core.New) for every query. Setting its Shards field above 1
	// hash-partitions every hosted query across that many worker
	// shards. Its Engine.Output, Engine.Sink and ShardOutput are owned
	// by the server and must be nil: every root lends its results to one
	// sink per shard, the shard's egress. Engine.Plan may be nil to start the server with
	// no default query (CREATE adds queries at runtime).
	// Its Durability field is owned by the server and must be zero;
	// set Config.Durable instead.
	Pipeline runtime.Config
	// SubscriberBuffer is how many result lines a subscriber may fall
	// behind (default 1024): one that is this far behind when further
	// results are handed to it is disconnected and counted in
	// subs_dropped. The bound is in lines, not hand-offs — a single
	// batch's results never drop a subscriber that has kept up — and
	// the memory held for a stalled subscriber is at most this many
	// lines plus one chunk (32 KiB, overshot by at most one probe's
	// lines, which are encoded whole). A subscriber with nothing
	// pending takes a chunk without a copy (DESIGN.md §17, the swap
	// rule), so a lone subscriber costs the shard no copy at all.
	SubscriberBuffer int
	// Durable, when enabled (Dir set), makes every mutating command
	// durable: FEED and MIGRATE are write-ahead logged per query shard
	// before they are acknowledged, CREATE, DROP and AUTO go to the
	// query catalog (a log under Dir/catalog/, always fsynced), and New
	// recovers the whole topology — catalog fold, then per-query
	// checkpoint + WAL replay — before Listen accepts a single
	// connection.
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
	// (the fenced rows of the command table) draw "ERR BUSY draining"
	// while reads (STATS, PLAN, LIST, AUTO STATUS) keep answering. See
	// Drain.
	draining atomic.Bool
	// inflight is read-held by a handler from its fence check to the
	// end of a mutating command; Drain write-locks it once, after
	// raising the fence, to wait those commands out. Set by tests only,
	// fenceHook runs in such a handler right after the fence check, and
	// ackHook in every handler after a command returns, before its ack
	// is flushed.
	inflight     sync.RWMutex
	fenceHook    func()
	ackHook      func()
	readTimeout  time.Duration
	writeTimeout time.Duration

	mu      sync.Mutex
	queries map[string]*query
	// conns holds each open connection with the writer its acks are
	// buffered in, so Drain can flush what a handler has not.
	conns       map[net.Conn]*lockedWriter
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
	if cfg.Pipeline.Engine.Output != nil || cfg.Pipeline.Engine.Sink != nil || cfg.Pipeline.ShardOutput != nil {
		return nil, errors.New("server: Engine.Output, Engine.Sink and ShardOutput are owned by the server")
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
		conns:        make(map[net.Conn]*lockedWriter),
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
		s.durable = cfg.Durable.WithDefaults()
		s.catStats = &durable.Stats{}
	}
	start := time.Now()
	if p := cfg.Pipeline.Engine.Plan; p != nil {
		q, err := s.startQuery(DefaultQuery, cfg.Pipeline.Engine.WindowSize, p)
		if err != nil {
			return nil, fmt.Errorf("server: starting the default query: %w", err)
		}
		s.queries[DefaultQuery] = q
	}
	if s.durable.Enabled() {
		if err := s.recoverCatalog(start); err != nil {
			s.Close()
			return nil, err
		}
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

// recoverCatalog restores the rest of a durable server's query
// topology: it opens and folds the catalog, then brings up every
// cataloged query, each recovering its own shards from checkpoint + WAL
// tail, and restarts the autopilots the catalog left on. start is when
// recovery began, the default query's included.
func (s *Server) recoverCatalog(start time.Time) error {
	cat, entries, auto, err := durable.OpenCatalog(s.durable, s.catStats)
	if err != nil {
		return fmt.Errorf("server: opening catalog: %w", err)
	}
	s.catalog = cat
	for _, e := range entries {
		if _, dup := s.queries[e.Name]; dup {
			// The catalog can only collide with the config default
			// (create rejects duplicate names); the config wins.
			continue
		}
		p, err := plan.Parse(e.Plan)
		if err != nil {
			return fmt.Errorf("server: catalog entry %q: %w", e.Name, err)
		}
		q, err := s.startQuery(e.Name, e.Window, p)
		if err != nil {
			return fmt.Errorf("server: recovering query %q: %w", e.Name, err)
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
				return fmt.Errorf("server: restarting autopilot of %q: %w", name, err)
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

// startQuery starts the named query on plan p over windows of
// windowSize from the server template: JISC when it names no strategy,
// and the query's own directory on a durable server. The default query,
// CREATE and catalog recovery all come here, so none runs differently.
func (s *Server) startQuery(name string, windowSize int, p *plan.Plan) (*query, error) {
	cfg := s.template
	cfg.Engine.Plan = p
	cfg.Engine.WindowSize = windowSize
	if cfg.Engine.Strategy == nil {
		cfg.Engine.Strategy = core.New()
	}
	if s.durable.Enabled() {
		cfg.Durability = s.durable
		cfg.Durability.Dir = s.queryDir(name)
	}
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

// create starts a new named query from the server template. With
// durability on it is logged to the catalog before the OK: the command
// sequence is startQuery (validates everything and brings the runtime
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
		// other branch in recoverCatalog and keeps the directory.)
		if err := s.durable.FS.RemoveAll(s.queryDir(name)); err != nil {
			return fmt.Errorf("clearing stale state for %q: %w", name, err)
		}
	}
	q, err := s.startQuery(name, windowSize, p)
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
		lw := &lockedWriter{w: bufio.NewWriter(conn), conn: conn, timeout: s.writeTimeout}
		s.conns[conn] = lw
		s.mu.Unlock()
		s.connWG.Add(1)
		go s.handle(conn, lw)
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
	return lw.writeString(fmt.Sprintf(format+"\n", args...))
}

// writeString buffers line, which ends in its newline, as writeLine
// does, without formatting it — the path every OK takes.
func (lw *lockedWriter) writeString(line string) error {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	lw.armDeadline()
	_, err := lw.w.WriteString(line)
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

// maxKeptBatch bounds the batch slice a session keeps between lines
// (64 KiB of events): a FEEDB line of up to maxLineBytes can carry half
// a million keys, and one such line must not pin its slice for the
// connection's life.
const maxKeptBatch = 4096

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
// buffer, without its newline and without consuming or copying it, and
// whether one exists. The bytes are valid until br is next read;
// consuming the line is the caller's Discard(len(line)+1).
func bufferedLine(br *bufio.Reader) ([]byte, bool) {
	buffered, _ := br.Peek(br.Buffered())
	nl := bytes.IndexByte(buffered, '\n')
	if nl < 0 {
		return nil, false
	}
	return buffered[:nl], true
}

// splitQuery interprets the optional leading query name of a command:
// when the first field names a hosted query, it is consumed and what
// follows it comes back untouched; otherwise the default query is
// addressed and rest comes back untouched. Either way the handler sees
// the same bytes it would for the default query, and only the first
// field is cut out to be looked up — a FEEDB payload is not tokenised
// or copied to find out that its first word is a stream number.
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
		return q, after, nil
	case q == nil:
		return nil, "", fmt.Errorf("no default query; name one of %v", s.Queries())
	}
	return q, rest, nil
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
// [<key>...]" — one batch of same-stream tuples in line order — into
// evs[:0], growing it as needed, and returns the batch. The line is
// read once, in place: its fields are those strings.Fields would split
// out, and a key of plain decimal digits is read inline; any other key
// goes to strconv.ParseInt, so the keys accepted and the errors are
// exactly those of the split-then-parse reading.
func parseFeedBatch(evs []workload.Event, rest string) ([]workload.Event, error) {
	evs = evs[:0]
	first, rest := nextField(rest)
	f, rest := nextField(rest)
	if f == "" {
		return evs, fmt.Errorf("FEEDB wants [query] <stream> <key> [<key>...]")
	}
	stream, err := parseStream(first)
	if err != nil {
		return evs, err
	}
	for ; f != ""; f, rest = nextField(rest) {
		key, ok := plainDecimal(f)
		if !ok {
			k, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return evs, fmt.Errorf("bad key %q", f)
			}
			key = k
		}
		evs = append(evs, workload.Event{Stream: stream, Key: tuple.Value(key)})
	}
	return evs, nil
}

// nextField returns the first field of s and what follows it, splitting
// where strings.Fields does: at runs of unicode.IsSpace runes. field is
// empty when s holds none.
func nextField(s string) (field, rest string) {
	i := 0
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				break
			}
			i++
		} else if n := spaceAt(s, i); n > 0 {
			i += n
		} else {
			break
		}
	}
	for j := i; j < len(s); j++ {
		if c := s[j]; c < utf8.RuneSelf && !asciiSpace[c] {
			continue
		}
		if spaceAt(s, j) > 0 {
			return s[i:j], s[j:]
		}
	}
	return s[i:], ""
}

// asciiSpace marks the ASCII bytes unicode.IsSpace calls space.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// spaceAt returns the width of the space starting at s[i] as
// unicode.IsSpace defines one, or 0 when none starts there: ASCII is
// decided by its byte, anything else is decoded (an invalid byte
// decodes to RuneError, not a space).
func spaceAt(s string, i int) int {
	if c := s[i]; c < utf8.RuneSelf {
		if asciiSpace[c] {
			return 1
		}
		return 0
	}
	if r, n := utf8.DecodeRuneInString(s[i:]); unicode.IsSpace(r) {
		return n
	}
	return 0
}

// plainDecimal reads f when it is 1–18 decimal digits — no sign, and
// too short to overflow an int64 — and reports whether it was.
func plainDecimal(f string) (int64, bool) {
	if len(f) == 0 || len(f) > 18 {
		return 0, false
	}
	var v int64
	for i := 0; i < len(f); i++ {
		d := f[i] - '0'
		if d > 9 {
			return 0, false
		}
		v = v*10 + int64(d)
	}
	return v, true
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

// DurableStats aggregates the durability counters across the catalog
// and every hosted query. Zero when durability is off.
func (s *Server) DurableStats() durable.StatsSnapshot {
	total := s.catStats.Snapshot()
	for _, q := range s.sortedQueries() {
		total = total.Add(q.runner.DurableStats())
	}
	return total
}
