package durable

import (
	"bufio"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"jisc/internal/obs"
	"jisc/internal/storage"
	"jisc/internal/workload"
)

// ErrLogClosed is returned by appends after Close.
var ErrLogClosed = errors.New("durable: log closed")

// segment is one on-disk log file; first is the sequence number of its
// first record (also encoded in its name).
type segment struct {
	first uint64
	name  string
}

func segmentName(first uint64) string { return fmt.Sprintf("wal-%016x.seg", first) }

// listSeqs returns, ascending, the seqs in the names of dir's files
// that read prefix + hex seq + suffix: its log segments or its
// checkpoints.
func listSeqs(fs storage.FS, dir, prefix, suffix string) ([]uint64, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, name := range names {
		hex, isPrefix := strings.CutPrefix(name, prefix)
		hex, isSuffix := strings.CutSuffix(hex, suffix)
		if seq, err := strconv.ParseUint(hex, 16, 64); isPrefix && isSuffix && err == nil {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	return seqs, nil
}

// listSegments returns dir's log segments sorted by first sequence
// number.
func listSegments(fs storage.FS, dir string) ([]segment, error) {
	firsts, err := listSeqs(fs, dir, "wal-", ".seg")
	segs := make([]segment, len(firsts))
	for i, first := range firsts {
		segs[i] = segment{first: first, name: segmentName(first)}
	}
	return segs, err
}

// Log is a write-ahead log: a directory of framed segment files plus
// an append cursor. Each shard keeps one, and so does the server's
// query catalog. Appends are safe for concurrent use; the fsync policy
// decides when they become durable. The write buffer is flushed by the
// appender (FsyncAlways) or by a background flusher on the
// group-commit interval (FsyncBatch, FsyncOff).
//
// A log is fail-stop: its first write, flush or fsync error, the
// flusher's included, fails every later append and Sync. The record
// whose I/O failed is in doubt — recovery may or may not replay it, as
// with a request that timed out — but nothing is acknowledged behind
// it, so no acknowledged record can sit past a torn frame that
// recovery truncates.
type Log struct {
	fs       storage.FS
	dir      string
	policy   Policy
	flushInt time.Duration
	segBytes int64
	rec      *obs.Recorder
	stats    *Stats

	mu      sync.Mutex
	f       storage.File
	w       *bufio.Writer
	dirty   bool
	seq     uint64 // last assigned record sequence number
	segs    []segment
	segSize int64 // bytes in the active (last) segment
	buf     []byte
	closed  bool
	err     error // set by fail

	// syncMu serializes the flusher's out-of-lock fsync with file
	// close: the flusher releases mu before Sync so group commits never
	// stall appends, and anything closing the active file takes syncMu
	// first so the fd stays valid for the in-flight Sync. Lock order is
	// always mu → syncMu.
	syncMu sync.Mutex

	stop chan struct{}
	done chan struct{}
}

// openLogAt opens dir's log for appending with a known recovery state:
// lastSeq is the last record sequence on disk, segs the surviving
// segments (ascending; the last one is active with activeSize bytes).
// Recovery computes these; a fresh log passes zeroes.
func openLogAt(opts Options, dir string, rec *obs.Recorder, stats *Stats, lastSeq uint64, segs []segment, activeSize int64) (*Log, error) {
	l := &Log{
		fs:       opts.FS,
		dir:      dir,
		policy:   opts.Fsync,
		flushInt: opts.FlushInterval,
		segBytes: opts.SegmentBytes,
		rec:      rec,
		stats:    stats,
		seq:      lastSeq,
		segs:     segs,
		segSize:  activeSize,
	}
	if len(segs) > 0 {
		f, err := opts.FS.OpenAppend(filepath.Join(dir, segs[len(segs)-1].name))
		if err != nil {
			return nil, err
		}
		l.f = f
		l.w = bufio.NewWriterSize(f, 1<<16)
	}
	if l.policy != FsyncAlways {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.flusher()
	}
	return l, nil
}

// flusher is the group-commit goroutine: every flush interval it
// pushes buffered appends to the OS and, under FsyncBatch, fsyncs
// them — one fsync covering every append of the window.
func (l *Log) flusher() {
	defer close(l.done)
	t := time.NewTicker(l.flushInt)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.dirty || l.closed || l.w == nil || l.err != nil {
				l.mu.Unlock()
				continue
			}
			if err := l.w.Flush(); err != nil {
				l.fail(err)
				l.mu.Unlock()
				continue
			}
			l.dirty = false
			if l.policy != FsyncBatch {
				l.mu.Unlock()
				continue
			}
			// Group commit: fsync outside mu so appends of the next
			// window proceed while this window reaches the platter.
			// syncMu (taken before releasing mu) keeps the fd open
			// until the Sync returns.
			f := l.f
			var start time.Time
			if l.rec != nil {
				start = time.Now()
			}
			l.syncMu.Lock()
			l.mu.Unlock()
			err := f.Sync()
			l.syncMu.Unlock()
			if err != nil {
				l.mu.Lock()
				l.fail(fmt.Errorf("durable: group commit: %w", err))
				l.mu.Unlock()
				continue
			}
			if l.stats != nil {
				l.stats.Fsyncs.Add(1)
			}
			if l.rec != nil {
				l.rec.WALFsync.Record(time.Since(start))
			}
		}
	}
}

// fail returns err. If err is the log's first I/O error, fail first
// records it, wrapped, as the error every later append and Sync
// returns. Called with mu held.
func (l *Log) fail(err error) error {
	if err != nil && l.err == nil {
		l.err = fmt.Errorf("durable: log %s failed earlier, no later append is possible: %w", l.dir, err)
	}
	return err
}

// flushLocked flushes the write buffer and optionally fsyncs. Called
// with mu held.
func (l *Log) flushLocked(fsync bool) error {
	if l.w == nil {
		l.dirty = false
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	if fsync {
		var start time.Time
		if l.rec != nil {
			start = time.Now()
		}
		if err := l.f.Sync(); err != nil {
			return err
		}
		if l.stats != nil {
			l.stats.Fsyncs.Add(1)
		}
		if l.rec != nil {
			l.rec.WALFsync.Record(time.Since(start))
		}
	}
	l.dirty = false
	return nil
}

// openSegmentLocked starts a new segment whose first record will be
// seq. The directory is fsynced so the file name itself survives a
// crash.
func (l *Log) openSegmentLocked(seq uint64) error {
	name := segmentName(seq)
	f, err := l.fs.Create(filepath.Join(l.dir, name))
	if err != nil {
		return err
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	if l.w == nil {
		l.w = bufio.NewWriterSize(f, 1<<16)
	} else {
		l.w.Reset(f)
	}
	l.segs = append(l.segs, segment{first: seq, name: name})
	l.segSize = 0
	return nil
}

// rotateLocked seals the active segment (flush + fsync, so a sealed
// segment is always fully durable) and opens the next one.
func (l *Log) rotateLocked(nextSeq uint64) error {
	if err := l.flushLocked(l.policy != FsyncOff); err != nil {
		return err
	}
	l.syncMu.Lock()
	err := l.f.Close()
	l.syncMu.Unlock()
	if err != nil {
		return err
	}
	l.f = nil
	if l.stats != nil {
		l.stats.Rotations.Add(1)
	}
	return l.openSegmentLocked(nextSeq)
}

// AppendFeedBatch logs a whole ingest batch as one feedbatch record —
// one frame, one sequence number, one fsync — and returns that
// sequence number. The events are copied into the frame; the caller
// keeps ownership of evs.
func (l *Log) AppendFeedBatch(evs []workload.Event) (uint64, error) {
	return l.append(Record{Kind: KindFeedBatch, Events: evs})
}

// AppendMigrate logs one plan transition (infix plan form).
func (l *Log) AppendMigrate(plan string) (uint64, error) {
	return l.append(Record{Kind: KindMigrate, Plan: plan})
}

func (l *Log) append(r Record) (uint64, error) {
	var start time.Time
	if l.rec != nil {
		start = time.Now()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrLogClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	r.Seq = l.seq + 1
	buf, err := appendFrame(l.buf[:0], r)
	if err != nil {
		return 0, err
	}
	l.buf = buf
	if l.f != nil && l.segSize+int64(len(buf)) > l.segBytes && l.segSize > 0 {
		if err := l.rotateLocked(r.Seq); err != nil {
			return 0, l.fail(err)
		}
	}
	if l.f == nil {
		if err := l.openSegmentLocked(r.Seq); err != nil {
			return 0, l.fail(err)
		}
	}
	if _, err := l.w.Write(buf); err != nil {
		return 0, l.fail(fmt.Errorf("durable: appending to %s: %w", l.segs[len(l.segs)-1].name, err))
	}
	l.seq = r.Seq
	l.segSize += int64(len(buf))
	if l.stats != nil {
		l.stats.Appends.Add(1)
		l.stats.AppendBytes.Add(uint64(len(buf)))
	}
	if l.policy == FsyncAlways {
		if err := l.flushLocked(true); err != nil {
			return 0, l.fail(err)
		}
	} else {
		l.dirty = true
	}
	if l.rec != nil {
		l.rec.WALAppend.Record(time.Since(start))
	}
	return r.Seq, nil
}

// LastSeq returns the sequence number of the most recent append.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Sync forces buffered appends to disk regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrLogClosed
	}
	if l.err != nil {
		return l.err
	}
	return l.fail(l.flushLocked(true))
}

// TruncateThrough removes segments whose records are all covered by a
// checkpoint at seq. The active segment is never removed; within-
// segment truncation is unnecessary because replay skips records at or
// below the checkpoint sequence.
func (l *Log) TruncateThrough(seq uint64) (removed int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.segs) > 1 && l.segs[1].first <= seq+1 {
		if err := l.fs.Remove(filepath.Join(l.dir, l.segs[0].name)); err != nil {
			return removed, err
		}
		l.segs = l.segs[1:]
		removed++
	}
	if removed > 0 {
		if l.stats != nil {
			l.stats.SegmentsRemoved.Add(uint64(removed))
		}
		if err := l.fs.SyncDir(l.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// Segments returns the current number of on-disk segments.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Close flushes, fsyncs, and closes the log, and returns its first I/O
// error. Further appends return ErrLogClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	err := l.err
	if err == nil {
		err = l.flushLocked(l.policy != FsyncOff)
	}
	if l.f != nil {
		l.syncMu.Lock()
		cerr := l.f.Close()
		l.syncMu.Unlock()
		if err == nil {
			err = cerr
		}
		l.f = nil
	}
	l.mu.Unlock()
	if l.stop != nil {
		close(l.stop)
		<-l.done
	}
	return err
}
