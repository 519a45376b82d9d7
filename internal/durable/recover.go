package durable

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"jisc/internal/engine"
	"jisc/internal/obs"
	"jisc/internal/plan"
	"jisc/internal/storage"
	"jisc/internal/workload"
)

// ShardRecovery is the result of recovering one shard: a live engine
// positioned exactly where the shard was when the process died, and
// its log reopened for appending.
type ShardRecovery struct {
	Engine *engine.Engine
	Log    *Log
	// Replayed counts WAL records applied on top of the checkpoint;
	// ReplayedEvents counts the input tuples those records carried (a
	// feedbatch record contributes its whole batch).
	Replayed       int
	ReplayedEvents int
	// CheckpointSeq is the WAL sequence the loaded checkpoint covered
	// (0 when the shard recovered from the log alone).
	CheckpointSeq uint64
	// TornBytes is the size of the torn tail truncated from the last
	// segment, if any.
	TornBytes int64
}

// RecoverShard rebuilds shard `shard` of a durable runtime from
// opts.Dir: it loads the newest valid checkpoint (validating envelope
// magic, version, and CRC — torn or corrupt checkpoints fall back to
// the previous one), deterministically replays the WAL tail through
// the engine with output suppressed (those results were already
// emitted before the crash), truncates any torn tail at a record
// boundary, and reopens the log for appending. cfg supplies the
// engine's non-serializable parts; a fresh engine is built from it
// when the shard has no state on disk. Replay includes MIGRATE
// records, so a shard that died mid-lazy-migration resumes with the
// same incomplete-state metadata it would have had.
//
// Safe to call concurrently for different shards — recovery of an
// N-shard runtime runs one goroutine per shard.
func RecoverShard(opts Options, shard int, cfg engine.Config, rec *obs.Recorder, stats *Stats) (*ShardRecovery, error) {
	opts = opts.WithDefaults()
	fs := opts.FS
	dir := ShardDir(opts.Dir, shard)
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}

	ckptSeq, payload, _, err := latestCheckpoint(fs, dir)
	if err != nil {
		return nil, fmt.Errorf("durable: shard %d: listing checkpoints: %w", shard, err)
	}
	out := cfg.Output
	cfg.Output = nil // replayed results were already emitted pre-crash
	var eng *engine.Engine
	if payload != nil {
		eng, err = engine.Restore(bytes.NewReader(payload), cfg)
		if err != nil {
			return nil, fmt.Errorf("durable: shard %d: restoring checkpoint %s: %w", shard, checkpointName(ckptSeq), err)
		}
	} else {
		eng, err = engine.New(cfg)
		if err != nil {
			return nil, err
		}
	}

	segs, err := listSegments(fs, dir)
	if err != nil {
		return nil, fmt.Errorf("durable: shard %d: listing segments: %w", shard, err)
	}
	res := &ShardRecovery{Engine: eng, CheckpointSeq: ckptSeq}
	next := ckptSeq + 1
	var live []segment
	var activeSize int64
	for i, sg := range segs {
		path := filepath.Join(dir, sg.name)
		// A segment is dead when the next one starts at or below the
		// checkpoint horizon — deleting it resumes a truncation that a
		// crash interrupted.
		if i+1 < len(segs) && segs[i+1].first <= ckptSeq+1 {
			if err := fs.Remove(path); err != nil {
				return nil, fmt.Errorf("durable: shard %d: removing dead segment %s: %w", shard, sg.name, err)
			}
			continue
		}
		data, err := readFile(fs, path)
		if err != nil {
			return nil, fmt.Errorf("durable: shard %d: reading %s: %w", shard, sg.name, err)
		}
		valid, err := scanFrames(data, func(r Record) error {
			if r.Seq <= ckptSeq {
				return nil // covered by the checkpoint
			}
			if r.Seq != next {
				return fmt.Errorf("durable: shard %d: WAL gap in %s: expected seq %d, found %d", shard, sg.name, next, r.Seq)
			}
			if err := applyRecord(eng, r); err != nil {
				return fmt.Errorf("durable: shard %d: replaying seq %d: %w", shard, r.Seq, err)
			}
			next++
			res.Replayed++
			switch r.Kind {
			case KindFeed:
				res.ReplayedEvents++
			case KindFeedBatch:
				res.ReplayedEvents += len(r.Events)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if valid < int64(len(data)) {
			if i != len(segs)-1 {
				return nil, fmt.Errorf("durable: shard %d: segment %s is corrupt mid-log (%d of %d bytes valid) but %d newer segment(s) follow — refusing to drop acknowledged records",
					shard, sg.name, valid, len(data), len(segs)-1-i)
			}
			if err := fs.Truncate(path, valid); err != nil {
				return nil, fmt.Errorf("durable: shard %d: truncating torn tail of %s: %w", shard, sg.name, err)
			}
			if err := fs.SyncDir(dir); err != nil {
				return nil, err
			}
			res.TornBytes = int64(len(data)) - valid
			if stats != nil {
				stats.TornTruncations.Add(1)
			}
			activeSize = valid
		} else {
			activeSize = int64(len(data))
		}
		live = append(live, sg)
	}
	eng.SetOutput(out)

	lastSeq := next - 1
	if lastSeq < ckptSeq {
		lastSeq = ckptSeq
	}
	res.Log, err = openLogAt(opts, dir, rec, stats, lastSeq, live, activeSize)
	if err != nil {
		eng.Close()
		return nil, fmt.Errorf("durable: shard %d: reopening log: %w", shard, err)
	}
	if stats != nil {
		stats.RecoveredEvents.Add(uint64(res.ReplayedEvents))
	}
	return res, nil
}

// applyRecord replays one shard-log record through the engine.
func applyRecord(eng *engine.Engine, r Record) error {
	switch r.Kind {
	case KindFeed:
		eng.Feed(workload.Event{Stream: r.Stream, Key: r.Key})
		return nil
	case KindFeedBatch:
		eng.FeedBatch(r.Events)
		return nil
	case KindMigrate:
		p, err := plan.Parse(r.Plan)
		if err != nil {
			return fmt.Errorf("parsing logged plan %q: %w", r.Plan, err)
		}
		return eng.Migrate(p)
	default:
		return fmt.Errorf("record kind %d does not belong in a shard log", r.Kind)
	}
}

// MarkRecovery records the wall-clock duration of a whole recovery
// (all shards) in stats.
func MarkRecovery(stats *Stats, start time.Time) {
	if stats != nil {
		stats.RecoveryNs.Store(uint64(time.Since(start)))
	}
}

func readFile(fs storage.FS, path string) ([]byte, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}
