package durable

import (
	"errors"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"jisc/internal/storage"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// appendOne logs one tuple the way the runtime does: a feedbatch of one.
func appendOne(l *Log, stream tuple.StreamID, key tuple.Value) (uint64, error) {
	return l.AppendFeedBatch([]workload.Event{{Stream: stream, Key: key}})
}

func testOptions(dir string) Options {
	return Options{
		Dir:   dir,
		Fsync: FsyncAlways, // tests want bytes on disk immediately
	}.WithDefaults()
}

func openTestLog(t *testing.T, opts Options, dir string) *Log {
	t.Helper()
	if err := opts.FS.MkdirAll(dir); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(opts.FS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 0 {
		t.Fatalf("fresh dir has %d segments", len(segs))
	}
	l, err := openLogAt(opts, dir, nil, &Stats{}, 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLogAppendAssignsContiguousSeqs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l := openTestLog(t, testOptions(dir), dir)
	defer l.Close()
	for i := 1; i <= 5; i++ {
		seq, err := appendOne(l, 0, tuple.Value(i))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Fatalf("append %d got seq %d", i, seq)
		}
	}
	if got := l.LastSeq(); got != 5 {
		t.Fatalf("LastSeq = %d, want 5", got)
	}
}

func TestLogRotationAndTruncation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	opts := testOptions(dir)
	opts.SegmentBytes = 64 // a few records per segment
	stats := &Stats{}
	if err := opts.FS.MkdirAll(dir); err != nil {
		t.Fatal(err)
	}
	l, err := openLogAt(opts, dir, nil, stats, 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var lastSeq uint64
	for i := 0; i < 50; i++ {
		if lastSeq, err = appendOne(l, 1, tuple.Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 3 {
		t.Fatalf("only %d segments after 50 appends with tiny SegmentBytes", l.Segments())
	}
	if stats.Rotations.Load() == 0 {
		t.Fatal("no rotations counted")
	}
	before := l.Segments()
	removed, err := l.TruncateThrough(lastSeq)
	if err != nil {
		t.Fatal(err)
	}
	if removed != before-1 {
		t.Fatalf("TruncateThrough removed %d of %d segments; the active one must survive", removed, before)
	}
	if l.Segments() != 1 {
		t.Fatalf("%d segments left, want the active one", l.Segments())
	}
	// Truncating below any remaining segment is a no-op.
	if removed, err := l.TruncateThrough(0); err != nil || removed != 0 {
		t.Fatalf("no-op truncate: removed=%d err=%v", removed, err)
	}
}

func TestLogBatchPolicyFlushesOnInterval(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	opts := testOptions(dir)
	opts.Fsync = FsyncBatch
	opts.FlushInterval = time.Millisecond
	l := openTestLog(t, opts, dir)
	defer l.Close()
	if _, err := appendOne(l, 0, 7); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segmentName(1))
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n, err := opts.FS.Size(seg); err == nil && n > 0 {
			break // the background flusher pushed the append out
		}
		if time.Now().After(deadline) {
			t.Fatal("append never reached disk under FsyncBatch")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLogCloseIsIdempotentAndFinal(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l := openTestLog(t, testOptions(dir), dir)
	if _, err := appendOne(l, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := appendOne(l, 0, 2); !errors.Is(err, ErrLogClosed) {
		t.Fatalf("append after close: %v, want ErrLogClosed", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrLogClosed) {
		t.Fatalf("sync after close: %v, want ErrLogClosed", err)
	}
}

// TestLogCrashLeavesDecodablePrefix drives the log through a CrashFS
// at every write budget: whatever survives on disk must scan cleanly —
// complete records followed by at most one torn tail.
func TestLogCrashLeavesDecodablePrefix(t *testing.T) {
	// First, learn the full size of an uninterrupted run.
	full := func() int64 {
		dir := filepath.Join(t.TempDir(), "wal")
		l := openTestLog(t, testOptions(dir), dir)
		for i := 0; i < 10; i++ {
			if _, err := appendOne(l, 0, tuple.Value(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		n, err := storage.OS().Size(filepath.Join(dir, segmentName(1)))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}()
	for budget := int64(0); budget <= full; budget++ {
		dir := filepath.Join(t.TempDir(), "wal")
		opts := testOptions(dir)
		crash := storage.NewCrashFS(storage.OS(), budget)
		opts.FS = crash
		if err := storage.OS().MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
		l, err := openLogAt(opts, dir, nil, &Stats{}, 0, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		applied := 0
		for i := 0; i < 10; i++ {
			if _, err := appendOne(l, 0, tuple.Value(i)); err != nil {
				break
			}
			applied++
		}
		l.Close()
		data, err := readFile(storage.OS(), filepath.Join(dir, segmentName(1)))
		if err != nil {
			if budget == 0 {
				continue // crash before the segment was even created
			}
			t.Fatalf("budget %d: %v", budget, err)
		}
		decoded := 0
		valid, serr := scanFrames(data, func(r Record) error {
			if len(r.Events) != 1 || r.Events[0].Key != tuple.Value(decoded) {
				t.Fatalf("budget %d: record %d carries %v", budget, decoded, r.Events)
			}
			decoded++
			return nil
		})
		if serr != nil {
			t.Fatalf("budget %d: hard scan error: %v", budget, serr)
		}
		if valid > int64(len(data)) {
			t.Fatalf("budget %d: valid %d > file %d", budget, valid, len(data))
		}
		// FsyncAlways acked appends must all be on disk.
		if decoded < applied {
			t.Fatalf("budget %d: %d acked appends but only %d decodable", budget, applied, decoded)
		}
	}
}

// Under FsyncAlways a failed fsync fails the append that ran it, and
// every append and Sync after it with an error wrapping that one. The
// failed record is in doubt; recovery replays no record after it.
func TestLogFailsAfterFailedSync(t *testing.T) {
	root := t.TempDir()
	opts := Options{Dir: root, Fsync: FsyncAlways, FS: &storage.FaultFS{FS: storage.OS(), FailSync: 2}}.WithDefaults()
	l := openTestLog(t, opts, ShardDir(root, 0))
	if _, err := appendOne(l, 0, 1); err != nil {
		t.Fatal(err)
	}
	_, errB := appendOne(l, 0, 2)
	if !errors.Is(errB, syscall.EIO) {
		t.Fatalf("append B = %v, want its fsync's EIO", errB)
	}
	if _, err := appendOne(l, 0, 3); !errors.Is(err, errB) {
		t.Fatalf("append C after a failed fsync = %v, want an error wrapping B's", err)
	}
	if err := l.Sync(); !errors.Is(err, errB) {
		t.Fatalf("Sync after a failed fsync = %v, want an error wrapping B's", err)
	}
	l.Close()

	rec, err := RecoverShard(Options{Dir: root}, 0, testEngineConfig(nil), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Engine.Close()
	defer rec.Log.Close()
	if rec.Replayed < 1 || rec.Replayed > 2 {
		t.Fatalf("recovery replayed %d records, want A and at most the in-doubt B", rec.Replayed)
	}
}

// Under FsyncBatch the group-commit flusher's failed fsync surfaces:
// appends after it and an explicit Sync fail with its EIO.
func TestLogBatchFlusherSyncErrorSurfaces(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	opts := testOptions(dir)
	opts.Fsync = FsyncBatch
	opts.FlushInterval = time.Millisecond
	opts.FS = &storage.FaultFS{FS: storage.OS(), FailSync: 1}
	l := openTestLog(t, opts, dir)
	defer l.Close()
	deadline := time.Now().Add(2 * time.Second)
	var err error
	for i := 0; err == nil; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("%d appends acknowledged in the 2 s after the flusher's fsync failed", i)
		}
		_, err = appendOne(l, 0, tuple.Value(i))
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("append after the flusher's failed fsync = %v, want EIO", err)
	}
	if err := l.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Sync after the flusher's failed fsync = %v, want EIO", err)
	}
}
