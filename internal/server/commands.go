package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"jisc/internal/admission"
	"jisc/internal/plan"
	"jisc/internal/workload"
)

// command is one protocol verb. dispatch finds the row once per line
// and applies the two policies that depend on what the command does:
//
// fenced commands mutate, so a drain rejects them retriably (the
// client's BUSY backoff will land on the replacement process after the
// rolling restart) while reads keep answering so operators can watch
// the drain progress. The flag is read under the in-flight lock, held
// until the command is done, so Drain can wait out every command that
// saw the fence down before it takes the final checkpoint.
//
// counted commands are state a crash would lose when durability is
// off; each protocol line of one adds to walDisabled.
type command struct {
	verb    string
	fenced  bool
	counted bool
	run     func(c *session, rest string) error
	// actions, when set, are picked by the word after the verb and
	// carry the flags; run answers when that word names none of them.
	actions []command
}

const verbFeed = "FEED"

var commands = []command{
	{verb: verbFeed, fenced: true, counted: true, run: onQuery((*session).feed)},
	{verb: "FEEDB", fenced: true, counted: true, run: onQuery((*session).feedBatch)},
	{verb: "MIGRATE", fenced: true, counted: true, run: onQuery((*session).migrate)},
	{verb: "SUBSCRIBE", run: onQuery((*session).subscribe)},
	{verb: "AUTO", run: auto((*session).autoUsage), actions: []command{
		{verb: "ON", fenced: true, counted: true, run: auto(func(c *session, q *query) error { return c.respond(c.s.autoOn(q)) })},
		{verb: "OFF", fenced: true, counted: true, run: auto(func(c *session, q *query) error { return c.respond(c.s.autoOff(q)) })},
		{verb: "STATUS", run: auto((*session).autoStatus)},
	}},
	{verb: "STATS", run: onQuery((*session).stats)},
	{verb: "PLAN", run: onQuery((*session).plan)},
	{verb: "CHECKPOINT", fenced: true, run: onQuery((*session).checkpoint)},
	{verb: "CREATE", fenced: true, counted: true, run: (*session).create},
	{verb: "DROP", fenced: true, counted: true, run: (*session).drop},
	{verb: "LIST", run: (*session).list},
	{verb: "QUIT", run: (*session).quit},
}

// onQuery adapts a handler that addresses a query: the optional leading
// query name is resolved first, and the handler gets the query and what
// follows the name.
func onQuery(f func(c *session, q *query, args string) error) func(*session, string) error {
	return func(c *session, rest string) error {
		q, args, err := c.s.splitQuery(rest)
		if err != nil {
			return c.respond(err)
		}
		return f(c, q, args)
	}
}

// auto adapts an AUTO action. Unlike FEED, AUTO takes no payload after
// the query name, so a leftover token is a typo'd name — don't let it
// fall through to the default query.
func auto(f func(c *session, q *query) error) func(*session, string) error {
	return onQuery(func(c *session, q *query, leftover string) error {
		if leftover = strings.TrimSpace(leftover); leftover != "" {
			return c.respond(fmt.Errorf("no query %q", leftover))
		}
		return f(c, q)
	})
}

func lookupCommand(table []command, word string) *command {
	for i := range table {
		if strings.EqualFold(table[i].verb, word) {
			return &table[i]
		}
	}
	return nil
}

// session is one client connection: the writer its acks and its
// subscriptions' result lines share, its read buffer, the FEED
// coalescing batch, and its subscriptions (at most one per query).
type session struct {
	s     *Server
	lw    *lockedWriter
	br    *bufio.Reader
	batch []workload.Event
	subs  []subscription
	subWG sync.WaitGroup
	// lines is how many protocol lines the running command consumed: 1,
	// or the length of a coalesced FEED run.
	lines int
}

type subscription struct {
	q  *query
	id int
}

var errQuit = errors.New("quit")

func (s *Server) handle(conn net.Conn, lw *lockedWriter) {
	defer s.connWG.Done()
	defer s.adm.ReleaseConn()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	c := &session{s: s, lw: lw, br: bufio.NewReaderSize(conn, 64<<10)}
	defer func() {
		for _, su := range c.subs {
			su.q.unsubscribe(su.id)
		}
		c.subWG.Wait()
	}()
	for {
		if _, ok := bufferedLine(c.br); !ok {
			// About to block (no complete line buffered): everything
			// acknowledged so far goes out in one write.
			if err := c.lw.flush(); err != nil {
				return
			}
			if s.readTimeout > 0 {
				// The command read deadline arms only once a line has
				// started arriving: Peek blocks without a deadline (an
				// idle connection may sit forever), but after the first
				// byte the rest of the line must land within the
				// timeout — a half-open peer or a byte-trickling client
				// cannot pin the handler goroutine.
				if _, err := c.br.Peek(1); err != nil {
					return
				}
				conn.SetReadDeadline(time.Now().Add(s.readTimeout))
			}
		}
		line, rerr := readLine(c.br)
		if s.readTimeout > 0 {
			conn.SetReadDeadline(time.Time{})
		}
		if rerr == errLineTooLong {
			if c.lw.writeLine("ERR line longer than %d bytes", maxLineBytes) != nil {
				return
			}
			continue
		}
		if rerr != nil {
			return
		}
		if line = strings.TrimSpace(line); line == "" {
			continue
		}
		if c.dispatch(line) != nil {
			return
		}
		if s.ackHook != nil {
			s.ackHook()
		}
	}
}

// dispatch runs one command line. A non-nil return ends the
// connection: a failed write, or QUIT.
func (c *session) dispatch(line string) error {
	s := c.s
	word, rest, _ := strings.Cut(line, " ")
	cmd := lookupCommand(commands, word)
	if cmd == nil {
		return c.lw.writeLine("ERR unknown command %q", word)
	}
	if cmd.actions != nil {
		word, rest, _ = strings.Cut(strings.TrimSpace(rest), " ")
		if action := lookupCommand(cmd.actions, word); action != nil {
			cmd = action
		}
	}
	if cmd.fenced {
		s.inflight.RLock()
		defer s.inflight.RUnlock()
		if s.draining.Load() {
			return c.respond(admission.Busy("draining"))
		}
		if s.fenceHook != nil {
			s.fenceHook()
		}
	}
	c.lines = 1
	err := cmd.run(c, rest)
	if cmd.counted && !s.durable.Enabled() {
		s.walDisabled.Add(uint64(c.lines))
	}
	return err
}

func (c *session) respond(err error) error {
	if err != nil {
		return c.lw.writeLine("ERR %v", err)
	}
	return c.lw.writeString("OK\n")
}

func (c *session) feed(q *query, args string) error {
	ev, err := parseFeedEvent(args)
	if err == nil && !q.hasStream(ev.Stream) {
		err = fmt.Errorf("stream %d not in query %q", ev.Stream, q.name)
	}
	if err != nil {
		return c.respond(err)
	}
	c.batch = append(c.batch[:0], ev)
	// Coalesce consecutive FEEDs to the same query already sitting in
	// the read buffer: the whole run becomes one FeedBatch — one queue
	// slot and, on a durable server, one WAL frame — while the client
	// still sees one OK per line.
	for len(c.batch) < maxCoalesce {
		line, ok := bufferedLine(c.br)
		if !ok {
			break
		}
		next := string(line)
		v, r, _ := strings.Cut(strings.TrimSpace(next), " ")
		if !strings.EqualFold(v, verbFeed) {
			break
		}
		q2, args2, err2 := c.s.splitQuery(r)
		if err2 != nil || q2 != q {
			break
		}
		ev2, err2 := parseFeedEvent(args2)
		if err2 != nil || !q.hasStream(ev2.Stream) {
			break
		}
		c.br.Discard(len(next) + 1)
		c.batch = append(c.batch, ev2)
	}
	c.lines = len(c.batch)
	ferr := q.runner.FeedBatch(c.batch)
	for range c.batch {
		if err := c.respond(ferr); err != nil {
			return err
		}
	}
	return nil
}

func (c *session) feedBatch(q *query, args string) error {
	// The batch is parsed into the session's reused slice: FeedBatch
	// copies what it is handed.
	evs, err := parseFeedBatch(c.batch, args)
	if err == nil {
		if !q.hasStream(evs[0].Stream) {
			err = fmt.Errorf("stream %d not in query %q", evs[0].Stream, q.name)
		} else {
			err = q.runner.FeedBatch(evs)
		}
	}
	if cap(evs) <= maxKeptBatch {
		c.batch = evs
	}
	return c.respond(err)
}

func (c *session) migrate(q *query, args string) error {
	p, err := plan.Parse(args)
	if err == nil {
		err = q.runner.Migrate(p)
	}
	return c.respond(err)
}

func (c *session) subscribe(q *query, _ string) error {
	for _, su := range c.subs {
		if su.q == q {
			return c.respond(fmt.Errorf("already subscribed to %q", q.name))
		}
	}
	id, su := q.subscribe()
	c.subs = append(c.subs, subscription{q: q, id: id})
	werr := c.respond(nil)
	c.subWG.Add(1)
	go func() {
		defer c.subWG.Done()
		// One socket write for everything handed off since the last
		// one: bursts batch up, a lone result still goes out as soon as
		// its batch ends.
		var chunk []byte
		for {
			var ok bool
			if chunk, ok = su.take(chunk); !ok {
				return
			}
			if c.lw.writeChunk(chunk) != nil {
				return
			}
		}
	}()
	return werr
}

func (c *session) autoStatus(q *query) error {
	v := view{query: q.name, auto: readAuto(q)}
	return c.lw.writeLine("%s", v.autoLine())
}

func (c *session) autoUsage(*query) error {
	return c.respond(errors.New("AUTO wants ON, OFF, or STATUS"))
}

// stats is the protocol's barrier: the reply reflects every command
// this query was sent before it.
func (c *session) stats(q *query, _ string) error {
	if err := q.runner.Flush(); err != nil {
		return c.respond(err)
	}
	v := gather(q, c.s.serverView())
	return c.lw.writeLine("%s", v.statsLine())
}

func (c *session) plan(q *query, _ string) error {
	return c.lw.writeLine("PLAN %s", q.runner.Plan())
}

// checkpoint writes the checkpoint recovery reads, one per shard, and
// truncates the log behind it. It writes nowhere a client names, so a
// server without a log has nothing to write and answers ERR.
func (c *session) checkpoint(q *query, args string) error {
	if args = strings.TrimSpace(args); args != "" {
		return c.respond(fmt.Errorf("no query %q (CHECKPOINT takes a query name, not a path)", args))
	}
	return c.respond(q.runner.CheckpointNow())
}

func (c *session) create(rest string) error {
	fields := strings.Fields(rest)
	if len(fields) < 3 {
		return c.respond(fmt.Errorf("CREATE wants <name> <window> <plan>"))
	}
	win, err := strconv.Atoi(fields[1])
	if err != nil || win <= 0 {
		return c.respond(fmt.Errorf("bad window %q", fields[1]))
	}
	p, err := plan.Parse(strings.Join(fields[2:], " "))
	if err == nil {
		err = c.s.create(fields[0], win, p)
	}
	return c.respond(err)
}

// drop of a query this connection subscribes to closes that
// subscription; its streamer exits cleanly.
func (c *session) drop(rest string) error {
	return c.respond(c.s.drop(strings.TrimSpace(rest)))
}

func (c *session) list(string) error {
	return c.lw.writeLine("QUERIES %s", strings.Join(c.s.Queries(), " "))
}

func (c *session) quit(string) error {
	c.lw.writeLine("OK")
	c.lw.flush()
	return errQuit
}
