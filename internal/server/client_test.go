package server

import (
	"fmt"
	"strconv"
	"strings"

	"jisc/internal/plan"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// The verbs below drive the server from its tests; a served client
// needs only Dial, FeedBatch, Stats and Close (client.go).

// Feed ingests one tuple.
func (c *Client) Feed(ev workload.Event) error {
	_, err := c.roundTrip(fmt.Sprintf("FEED %d %d", ev.Stream, ev.Key))
	return err
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

// Checkpoint asks a durable server to checkpoint the default query now:
// the checkpoint recovery reads, after which the log is truncated. A
// server without a log answers an error.
func (c *Client) Checkpoint() error {
	_, err := c.roundTrip("CHECKPOINT")
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
