package server

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"jisc/internal/plan"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// Client speaks the jiscd line protocol. A Client is safe for
// concurrent use; commands are serialized over one connection.
// Subscribe takes the connection over for streaming — use a dedicated
// Client for subscriptions.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader

	// RetryBusy, when > 0, makes commands that draw a retriable
	// "ERR BUSY ..." response (connection caps, in-flight budget,
	// drain fence) retry up to that many additional times with
	// jittered exponential backoff before surfacing the error.
	// FeedBatch retries only the BUSY'd lines, not the whole batch.
	// 0 (the default) surfaces BUSY immediately.
	RetryBusy int
	// RetryBase is the first backoff step (default 5ms); each retry
	// doubles it, capped at 500ms, with full jitter in [d/2, d).
	RetryBase time.Duration
}

// IsBusy reports whether err is a retriable server BUSY rejection
// (overload or drain) rather than a hard protocol or transport error.
func IsBusy(err error) bool {
	return err != nil && strings.Contains(err.Error(), "server: BUSY")
}

// backoff returns the jittered exponential delay for retry attempt n.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.RetryBase
	if d <= 0 {
		d = 5 * time.Millisecond
	}
	for i := 0; i < attempt && d < 500*time.Millisecond; i++ {
		d *= 2
	}
	if d > 500*time.Millisecond {
		d = 500 * time.Millisecond
	}
	// Full jitter over the upper half: concurrent producers hitting
	// the same BUSY wall spread out instead of retrying in lockstep.
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// Dial connects to a jiscd server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: bufio.NewReader(conn)}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip sends one command line and reads one response line,
// retrying BUSY rejections per the client's retry policy.
func (c *Client) roundTrip(line string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for attempt := 0; ; attempt++ {
		resp, err := c.roundTripLocked(line)
		if err == nil || !IsBusy(err) || attempt >= c.RetryBusy {
			return resp, err
		}
		time.Sleep(c.backoff(attempt))
	}
}

func (c *Client) roundTripLocked(line string) (string, error) {
	if _, err := fmt.Fprintln(c.conn, line); err != nil {
		return "", err
	}
	resp, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	resp = strings.TrimSpace(resp)
	if strings.HasPrefix(resp, "ERR ") {
		return "", fmt.Errorf("server: %s", strings.TrimPrefix(resp, "ERR "))
	}
	return resp, nil
}

// Feed ingests one tuple.
func (c *Client) Feed(ev workload.Event) error {
	_, err := c.roundTrip(fmt.Sprintf("FEED %d %d", ev.Stream, ev.Key))
	return err
}

// maxKeysPerLine bounds one FEEDB line well under the server's 1 MiB
// line cap (a key is at most 20 decimal characters plus a separator).
const maxKeysPerLine = 4096

// FeedBatch ingests a batch of tuples. Each run of consecutive
// same-stream events becomes one FEEDB line; all lines are written in
// one pipelined burst and their acks read afterwards, so an N-run
// batch costs one round trip instead of len(evs).
func (c *Client) FeedBatch(evs []workload.Event) error { return c.feedBatch("", evs) }

func (c *Client) feedBatch(name string, evs []workload.Event) error {
	if len(evs) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for attempt := 0; ; attempt++ {
		retry, busyErr, hardErr, terr := c.feedBatchLocked(name, evs)
		if terr != nil {
			return terr // transport: the connection is gone
		}
		if hardErr != nil {
			return hardErr // protocol error: retrying won't help
		}
		if len(retry) == 0 {
			return nil
		}
		if attempt >= c.RetryBusy {
			return busyErr
		}
		time.Sleep(c.backoff(attempt))
		evs = retry
	}
}

// feedBatchLocked writes one pipelined burst of FEEDB lines and drains
// their acks. BUSY'd lines come back as retry (their events, in
// order) with the first BUSY error; any non-BUSY ERR is hardErr; terr
// is a transport failure. The connection stays in lockstep on every
// non-transport outcome — all acks are drained even after an error.
func (c *Client) feedBatchLocked(name string, evs []workload.Event) (retry []workload.Event, busyErr, hardErr, terr error) {
	var sb strings.Builder
	type span struct{ from, to int }
	var spans []span
	for i := 0; i < len(evs); {
		j := i
		for j < len(evs) && evs[j].Stream == evs[i].Stream && j-i < maxKeysPerLine {
			j++
		}
		sb.WriteString("FEEDB ")
		if name != "" {
			sb.WriteString(name)
			sb.WriteByte(' ')
		}
		sb.WriteString(strconv.Itoa(int(evs[i].Stream)))
		spans = append(spans, span{from: i, to: j})
		for ; i < j; i++ {
			sb.WriteByte(' ')
			sb.WriteString(strconv.FormatInt(int64(evs[i].Key), 10))
		}
		sb.WriteByte('\n')
	}
	if _, err := c.conn.Write([]byte(sb.String())); err != nil {
		return nil, nil, nil, err
	}
	for _, sp := range spans {
		resp, err := c.r.ReadString('\n')
		if err != nil {
			return nil, nil, nil, err
		}
		resp = strings.TrimSpace(resp)
		if !strings.HasPrefix(resp, "ERR ") {
			continue
		}
		rerr := fmt.Errorf("server: %s", strings.TrimPrefix(resp, "ERR "))
		if IsBusy(rerr) {
			if busyErr == nil {
				busyErr = rerr
			}
			retry = append(retry, evs[sp.from:sp.to]...)
		} else if hardErr == nil {
			hardErr = rerr
		}
	}
	return retry, busyErr, hardErr, nil
}

// Migrate transitions the server's query to a new plan.
func (c *Client) Migrate(p *plan.Plan) error {
	_, err := c.roundTrip("MIGRATE " + p.String())
	return err
}

// Plan returns the server's current plan.
func (c *Client) Plan() (*plan.Plan, error) {
	resp, err := c.roundTrip("PLAN")
	if err != nil {
		return nil, err
	}
	return plan.Parse(strings.TrimPrefix(resp, "PLAN "))
}

// Stats holds the server's one-line counters, one field per STATS key
// (metricTable says which). The latency fields are zero until the
// server has recorded feed-latency samples.
type Stats struct {
	Input, Output, Transitions, Completions, Shed uint64
	// FeedP50Ns and FeedP99Ns are the per-tuple feed-latency quantiles
	// in nanoseconds (sampled, see internal/obs).
	FeedP50Ns, FeedP99Ns uint64
	// Episodes counts the just-in-time completion episodes run.
	Episodes uint64
	// SubsDropped counts subscribers the server disconnected for
	// falling behind.
	SubsDropped uint64
	// WALAppends counts write-ahead-log records, WALFsyncP99Ns is the
	// 99th-percentile fsync duration, and RecoveredEvents counts the
	// tuples replayed from the log at startup. All zero when the server
	// runs without durability.
	WALAppends, WALFsyncP99Ns, RecoveredEvents uint64
	// BatchFillP50 is the median realized ingest batch size in tuples;
	// BatchFlushes counts FeedBatch invocations on the server (FEEDB
	// lines plus coalesced FEED runs).
	BatchFillP50, BatchFlushes uint64
	// StateBytes is the resident state footprint across shards;
	// SpillFaults counts tiered-state bucket faults (0 with spilling
	// off — the server runs unbounded unless started with a state
	// budget).
	StateBytes, SpillFaults uint64
	// AutoEnabled is 1 while the query's autopilot is on; the Auto*
	// counters cover its decisions since the last AUTO ON.
	AutoEnabled, AutoProposals, AutoMigrations, AutoRollbacks uint64
	// LastMigrationAgeMS is milliseconds since the autopilot last
	// installed a plan (0 = never; the server reports ≥ 1 otherwise).
	LastMigrationAgeMS uint64
	// AdmissionShed counts tuples dropped by the ingest rate limiter
	// (acknowledged OK); DeadlineShed counts admitted tuples dropped
	// in queue past their feed deadline; Rejected/RejectedBatches
	// count BUSY refusals. All zero when admission is off.
	AdmissionShed, DeadlineShed, Rejected, RejectedBatches uint64
	// InflightBytes is the admitted-but-unprocessed byte gauge;
	// Draining is 1 while the server is gracefully draining.
	InflightBytes, Draining uint64
}

// Stats fetches the default query's counters.
func (c *Client) Stats() (Stats, error) {
	resp, err := c.roundTrip("STATS")
	if err != nil {
		return Stats{}, err
	}
	return parseStats(resp)
}

// parseStats decodes a STATS line; keys without a row in metricTable
// are ignored, so an older client survives a newer server.
func parseStats(resp string) (Stats, error) {
	var s Stats
	for _, field := range strings.Fields(strings.TrimPrefix(resp, "STATS ")) {
		name, val, ok := strings.Cut(field, "=")
		if !ok {
			continue
		}
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return Stats{}, fmt.Errorf("server: bad stats field %q", field)
		}
		for i := range metricTable {
			if r := &metricTable[i]; r.key == name && r.field != nil {
				*r.field(&s) = n
			}
		}
	}
	return s, nil
}

// Checkpoint asks the server to write a checkpoint to a server-local
// path.
func (c *Client) Checkpoint(path string) error {
	_, err := c.roundTrip("CHECKPOINT " + path)
	return err
}

// Result is one streamed subscription line.
type Result struct {
	Key         tuple.Value
	Fingerprint string
	Retraction  bool
}

// Subscribe switches the connection into streaming mode and returns a
// channel of results. The channel closes when the connection drops or
// the client is closed. After Subscribe, no other commands may be
// issued on this client.
func (c *Client) Subscribe() (<-chan Result, error) {
	if _, err := c.roundTrip("SUBSCRIBE"); err != nil {
		return nil, err
	}
	out := make(chan Result, 64)
	go func() {
		defer close(out)
		for {
			line, err := c.r.ReadString('\n')
			if err != nil {
				return
			}
			fields := strings.Fields(line)
			if len(fields) != 3 {
				continue
			}
			key, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				continue
			}
			out <- Result{
				Key:         tuple.Value(key),
				Fingerprint: fields[2],
				Retraction:  fields[0] == "RETRACT",
			}
		}
	}()
	return out, nil
}

// Raw sends one protocol line and returns the single response line —
// an escape hatch for commands without a typed wrapper.
func (c *Client) Raw(line string) (string, error) { return c.roundTrip(line) }

// Create starts a new named query on the server.
func (c *Client) Create(name string, window int, p *plan.Plan) error {
	_, err := c.roundTrip(fmt.Sprintf("CREATE %s %d %s", name, window, p))
	return err
}

// Drop stops and removes a named query.
func (c *Client) Drop(name string) error {
	_, err := c.roundTrip("DROP " + name)
	return err
}

// List returns the names of the hosted queries.
func (c *Client) List() ([]string, error) {
	resp, err := c.roundTrip("LIST")
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(strings.TrimPrefix(resp, "QUERIES"))
	return fields, nil
}

// On addresses subsequent Feed/Migrate/Stats/Plan/Subscribe calls to
// the named query by returning a scoped view of the same connection.
func (c *Client) On(name string) *ScopedClient { return &ScopedClient{c: c, name: name} }

// ScopedClient addresses one named query through a shared Client.
type ScopedClient struct {
	c    *Client
	name string
}

// Feed ingests one tuple into the scoped query.
func (s *ScopedClient) Feed(ev workload.Event) error {
	_, err := s.c.roundTrip(fmt.Sprintf("FEED %s %d %d", s.name, ev.Stream, ev.Key))
	return err
}

// FeedBatch ingests a batch into the scoped query via pipelined FEEDB
// lines.
func (s *ScopedClient) FeedBatch(evs []workload.Event) error {
	return s.c.feedBatch(s.name, evs)
}

// Migrate transitions the scoped query.
func (s *ScopedClient) Migrate(p *plan.Plan) error {
	_, err := s.c.roundTrip(fmt.Sprintf("MIGRATE %s %s", s.name, p))
	return err
}

// Stats fetches the scoped query's counters.
func (s *ScopedClient) Stats() (Stats, error) {
	resp, err := s.c.roundTrip("STATS " + s.name)
	if err != nil {
		return Stats{}, err
	}
	return parseStats(resp)
}
