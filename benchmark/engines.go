package main

import (
	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/runtime"
	"jisc/internal/workload"
)

// engineSet is the query as bare engines, one per shard partition, fed
// the way the runtime's scatter would feed its shards. The reference
// runs it with the eager strategy; the ladder's engine rungs run it
// with the served one.
type engineSet struct {
	engines []*engine.Engine
	parts   [][]workload.Event
}

// newEngineSet builds shards engines from cfg(shard).
func newEngineSet(shards int, cfg func(shard int) engine.Config) (*engineSet, error) {
	s := &engineSet{parts: make([][]workload.Event, shards)}
	for i := 0; i < shards; i++ {
		eng, err := engine.New(cfg(i))
		if err != nil {
			s.close()
			return nil, err
		}
		s.engines = append(s.engines, eng)
	}
	return s, nil
}

// feed delivers one FEEDB line's tuples: scattered by join key, each
// shard's part in arrival order.
func (s *engineSet) feed(sub []workload.Event) {
	if len(s.engines) == 1 {
		s.engines[0].FeedBatch(sub)
		return
	}
	scatter(s.parts, sub)
	for i, p := range s.parts {
		s.engines[i].FeedBatch(p)
	}
}

// scatter splits sub over len(parts) shards by join key, keeping each
// shard's tuples in arrival order, as runtime.FeedBatch does.
func scatter(parts [][]workload.Event, sub []workload.Event) {
	for i := range parts {
		parts[i] = parts[i][:0]
	}
	for _, ev := range sub {
		sh := runtime.ShardOf(ev.Key, len(parts))
		parts[sh] = append(parts[sh], ev)
	}
}

func (s *engineSet) migrate(p *plan.Plan) error {
	for _, eng := range s.engines {
		if err := eng.Migrate(p); err != nil {
			return err
		}
	}
	return nil
}

func (s *engineSet) close() {
	for _, eng := range s.engines {
		eng.Close()
	}
}
