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

	res := &ShardRecovery{Engine: eng, CheckpointSeq: ckptSeq}
	res.Log, res.TornBytes, err = recoverLog(opts, dir, ckptSeq, func(r Record) error {
		if err := applyRecord(eng, r); err != nil {
			return err
		}
		res.Replayed++
		res.ReplayedEvents += feedEvents(r)
		return nil
	}, rec, stats)
	if err != nil {
		eng.Close()
		return nil, fmt.Errorf("durable: shard %d: %w", shard, err)
	}
	eng.SetOutput(out)
	return res, nil
}

// recoverLog is the one recovery of a log, a shard's or the catalog's.
// It lists dir's segments and deletes the dead ones, those whose
// successor starts at or below from+1, which resumes a truncation a
// crash interrupted. It hands every record after seq from to apply in
// order, refusing a gap in the seqs, and truncates a torn tail of the
// last segment at a record boundary; a torn or corrupt segment with
// newer ones after it is refused, since dropping its tail would drop
// acknowledged records. It reopens the log for appending and returns
// it with the torn tail's size. stats counts the truncation and the
// input tuples of the feed records replayed.
func recoverLog(opts Options, dir string, from uint64, apply func(Record) error, rec *obs.Recorder, stats *Stats) (*Log, int64, error) {
	fs := opts.FS
	segs, err := listSegments(fs, dir)
	if err != nil {
		return nil, 0, fmt.Errorf("listing segments: %w", err)
	}
	next := from + 1
	var live []segment
	var activeSize, torn int64
	for i, sg := range segs {
		path := filepath.Join(dir, sg.name)
		if i+1 < len(segs) && segs[i+1].first <= from+1 {
			if err := fs.Remove(path); err != nil {
				return nil, 0, fmt.Errorf("removing dead segment %s: %w", sg.name, err)
			}
			continue
		}
		data, err := readFile(fs, path)
		if err != nil {
			return nil, 0, fmt.Errorf("reading %s: %w", sg.name, err)
		}
		valid, err := scanFrames(data, func(r Record) error {
			if r.Seq <= from {
				return nil // covered by the checkpoint
			}
			if r.Seq != next {
				return fmt.Errorf("seq gap in %s: expected seq %d, found %d", sg.name, next, r.Seq)
			}
			if err := apply(r); err != nil {
				return fmt.Errorf("replaying seq %d: %w", r.Seq, err)
			}
			next++
			if stats != nil {
				stats.RecoveredEvents.Add(uint64(feedEvents(r)))
			}
			return nil
		})
		if err != nil {
			return nil, 0, err
		}
		if valid < int64(len(data)) {
			if i != len(segs)-1 {
				return nil, 0, fmt.Errorf("segment %s is corrupt mid-log (%d of %d bytes valid) but %d newer segment(s) follow — refusing to drop acknowledged records",
					sg.name, valid, len(data), len(segs)-1-i)
			}
			if err := fs.Truncate(path, valid); err != nil {
				return nil, 0, fmt.Errorf("truncating torn tail of %s: %w", sg.name, err)
			}
			if err := fs.SyncDir(dir); err != nil {
				return nil, 0, err
			}
			torn = int64(len(data)) - valid
			if stats != nil {
				stats.TornTruncations.Add(1)
			}
		}
		activeSize = valid
		live = append(live, sg)
	}
	l, err := openLogAt(opts, dir, rec, stats, next-1, live, activeSize)
	if err != nil {
		return nil, 0, fmt.Errorf("reopening log: %w", err)
	}
	return l, torn, nil
}

// feedEvents is the number of input tuples r carries.
func feedEvents(r Record) int {
	switch r.Kind {
	case KindFeed:
		return 1
	case KindFeedBatch:
		return len(r.Events)
	}
	return 0
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
