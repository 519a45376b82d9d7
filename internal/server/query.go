package server

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"jisc/internal/admission"
	"jisc/internal/durable"
	"jisc/internal/engine"
	"jisc/internal/obs"
	"jisc/internal/runtime"
	"jisc/internal/storage"
	"jisc/internal/tuple"
)

// query is one named continuous query hosted by the server: a sharded
// runtime plus its subscriber set and observability bundle.
type query struct {
	name   string
	runner *runtime.Runtime
	// adm is the query's admission controller (rate limit, in-flight
	// budget, feed deadline, drain fence), nil when the server runs
	// without admission limits. The runtime shares the same pointer;
	// STATS and /metrics read its counters here.
	adm *admission.Controller
	// obs carries the query's latency histograms (one recorder per
	// shard) and migration-lifecycle tracer; the telemetry endpoint
	// and the STATS command read it.
	obs *obs.Set
	// subsDropped counts subscribers disconnected for falling bufSize
	// lines behind. Exposed via STATS and /metrics — a silent drop looks
	// identical to a quiet query from the consumer side, so the server
	// must account for it.
	subsDropped atomic.Uint64
	// streamMask has bit i set when stream i participates in the plan.
	// The network boundary checks feeds against it: the engine treats
	// an unknown stream as programmer error and panics, which a remote
	// byte sequence must never be able to reach (MaxStreams is 64, so
	// one word covers every legal id).
	streamMask uint64

	// mu guards the subscriber set; shard workers take it once per
	// hand-off, never per result. nsubs mirrors len(subs) for the
	// per-result "anyone listening?" check.
	mu      sync.Mutex
	subs    map[int]*subscriber
	nsubs   atomic.Int32
	nextSub int
	bufSize int // lines a subscriber may fall behind before it is dropped
}

func newQuery(name string, cfg runtime.Config, bufSize int, admCfg admission.Config) (*query, error) {
	q := &query{name: name, subs: make(map[int]*subscriber), bufSize: bufSize}
	if cfg.Engine.Plan != nil {
		for _, id := range cfg.Engine.Plan.Streams.Streams() {
			q.streamMask |= 1 << id
		}
	}
	q.obs = obs.NewSet(name, 0)
	cfg.Obs = q.obs
	cfg.ShardOutput = func(int) (engine.Output, func()) {
		e := &egress{q: q}
		return e.emit, e.flush
	}
	// Each query gets its own controller from the server template:
	// rate, budget, and deadline are per query (queries don't share a
	// bucket), while the connection cap stays server-wide and is
	// stripped here.
	admCfg.MaxConns = 0
	if admCfg.Enabled() {
		ctrl, err := admission.New(admCfg)
		if err != nil {
			return nil, err
		}
		q.adm = ctrl
		cfg.Admission = ctrl
	}
	if cfg.Engine.SpillDir != "" {
		// The flag-level spill dir is shared by every hosted query;
		// each query's runtime wipes its directory on open, so they
		// must not collide.
		cfg.Engine.SpillDir = filepath.Join(cfg.Engine.SpillDir, name)
	}
	r, err := runtime.New(cfg)
	if err != nil {
		return nil, err
	}
	q.runner = r
	return q, nil
}

// dropped returns the number of subscribers disconnected for falling
// behind.
func (q *query) dropped() uint64 { return q.subsDropped.Load() }

// hasStream reports whether stream id participates in this query's
// plan; feeds for any other stream are protocol errors.
func (q *query) hasStream(id tuple.StreamID) bool {
	return q.streamMask&(1<<id) != 0
}

func (q *query) subscribe() (int, *subscriber) {
	q.mu.Lock()
	defer q.mu.Unlock()
	id := q.nextSub
	q.nextSub++
	s := newSubscriber()
	q.subs[id] = s
	q.nsubs.Store(int32(len(q.subs)))
	return id, s
}

// remove closes and forgets subscriber id; callers hold q.mu.
func (q *query) remove(id int) {
	if s, ok := q.subs[id]; ok {
		s.close()
		delete(q.subs, id)
		q.nsubs.Store(int32(len(q.subs)))
	}
}

func (q *query) unsubscribe(id int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.remove(id)
}

func (q *query) subscribers() int { return int(q.nsubs.Load()) }

// checkpoint writes the query's state to path. A single-shard query
// produces one file; a sharded one produces path.0 … path.N-1, one
// consistent snapshot per shard (shards never exchange state, so
// per-shard files restore independently). Each file is a validated
// snapshot envelope (magic, version, CRC) written atomically via temp
// file + rename + directory fsync: a crash mid-CHECKPOINT never leaves
// a torn file under the requested name, and a load of a corrupt file
// fails with a clear error instead of undefined engine state.
func (q *query) checkpoint(path string) error {
	n := q.runner.Shards()
	for i := 0; i < n; i++ {
		p := path
		if n > 1 {
			p = fmt.Sprintf("%s.%d", path, i)
		}
		var buf bytes.Buffer
		if err := q.runner.CheckpointShard(i, &buf); err != nil {
			return err
		}
		if err := durable.WriteSnapshotFile(storage.OS(), p, buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

func (q *query) close() {
	q.runner.Close()
	q.mu.Lock()
	for id := range q.subs {
		q.remove(id)
	}
	q.mu.Unlock()
}

// DefaultQuery is the name implicit commands address.
const DefaultQuery = "default"
