package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/storage"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// testWorkload is a three-stream join feed with full-match keys: every
// key appears on all three streams, so the join produces output, and a
// mid-stream migration exercises JISC's lazy completion metadata.
func testWorkload(n int) []workload.Event {
	evs := make([]workload.Event, 0, 3*n)
	for k := 0; k < n; k++ {
		for s := 0; s < 3; s++ {
			evs = append(evs, workload.Event{Stream: tuple.StreamID(s), Key: tuple.Value(k % 8)})
		}
	}
	return evs
}

func testEngineConfig(out engine.Output) engine.Config {
	return engine.Config{
		Plan:       plan.MustLeftDeep(0, 1, 2),
		WindowSize: 1000,
		Strategy:   core.New(),
		Output:     out,
	}
}

func deltaLine(d engine.Delta) string {
	return fmt.Sprintf("%v %d %s", d.Retraction, d.Tuple.Key, d.Tuple.Fingerprint())
}

// TestRecoverShardEquivalence is the core recovery-equivalence proof
// at the engine level: feed a workload with a mid-stream migration,
// "crash" at every interesting cut point, recover, finish the
// workload, and require the recovered run's output and counters to be
// byte-identical to an uninterrupted run.
func TestRecoverShardEquivalence(t *testing.T) {
	const migrateAt = 9 // mid-stream, with states already populated
	evs := testWorkload(8)
	p2 := plan.MustLeftDeep(2, 0, 1)

	// Uninterrupted reference.
	var refOut []string
	refEng, err := engine.New(testEngineConfig(func(d engine.Delta) { refOut = append(refOut, deltaLine(d)) }))
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range evs {
		if i == migrateAt {
			if err := refEng.Migrate(p2); err != nil {
				t.Fatal(err)
			}
		}
		refEng.Feed(ev)
	}
	refMet := refEng.Metrics()
	refPlan := refEng.Plan().String()
	refEng.Close()

	cuts := []int{0, 1, migrateAt - 1, migrateAt, migrateAt + 1, migrateAt + 2, len(evs) - 1, len(evs)}
	for _, cut := range cuts {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			root := t.TempDir()
			dir := ShardDir(root, 0)
			opts := Options{Dir: root, Fsync: FsyncAlways}.WithDefaults()

			// Phase 1: live run to the cut, logging before applying —
			// exactly the runtime's discipline.
			var liveOut []string
			liveEng, err := engine.New(testEngineConfig(func(d engine.Delta) { liveOut = append(liveOut, deltaLine(d)) }))
			if err != nil {
				t.Fatal(err)
			}
			if err := opts.FS.MkdirAll(dir); err != nil {
				t.Fatal(err)
			}
			log, err := openLogAt(opts, dir, nil, &Stats{}, 0, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < cut; i++ {
				if i == migrateAt {
					if _, err := log.AppendMigrate(p2.String()); err != nil {
						t.Fatal(err)
					}
					if err := liveEng.Migrate(p2); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := appendOne(log, evs[i].Stream, evs[i].Key); err != nil {
					t.Fatal(err)
				}
				liveEng.Feed(evs[i])
			}
			log.Close() // crash: under FsyncAlways disk state equals a kill -9
			liveEng.Close()

			// Phase 2: recover and finish.
			stats := &Stats{}
			var postOut []string
			rec, err := RecoverShard(opts, 0, testEngineConfig(func(d engine.Delta) { postOut = append(postOut, deltaLine(d)) }), nil, stats)
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Log.Close()
			defer rec.Engine.Close()
			wantReplayed := cut
			if cut > migrateAt {
				wantReplayed++ // the MIGRATE record
			}
			if rec.Replayed != wantReplayed {
				t.Fatalf("Replayed = %d, want %d", rec.Replayed, wantReplayed)
			}
			// Replay must not re-emit pre-crash results.
			if len(postOut) != 0 {
				t.Fatalf("replay emitted %d results", len(postOut))
			}
			for i := cut; i < len(evs); i++ {
				if i == migrateAt {
					if _, err := rec.Log.AppendMigrate(p2.String()); err != nil {
						t.Fatal(err)
					}
					if err := rec.Engine.Migrate(p2); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := appendOne(rec.Log, evs[i].Stream, evs[i].Key); err != nil {
					t.Fatal(err)
				}
				rec.Engine.Feed(evs[i])
			}

			got := append(liveOut, postOut...)
			if len(got) != len(refOut) {
				t.Fatalf("outputs: got %d, want %d", len(got), len(refOut))
			}
			for i := range refOut {
				if got[i] != refOut[i] {
					t.Fatalf("output %d = %q, want %q", i, got[i], refOut[i])
				}
			}
			m := rec.Engine.Metrics()
			if m.Input != refMet.Input || m.Output != refMet.Output ||
				m.Probes != refMet.Probes || m.Inserts != refMet.Inserts ||
				m.Completions != refMet.Completions || m.CompletedEntries != refMet.CompletedEntries ||
				m.Evictions != refMet.Evictions || m.Transitions != refMet.Transitions {
				t.Fatalf("counters diverged:\n got %+v\nwant %+v", m, refMet)
			}
			if got, want := rec.Engine.Plan().String(), refPlan; got != want {
				t.Fatalf("plan = %s, want %s", got, want)
			}
		})
	}
}

// Recovery from checkpoint + WAL tail must land on the same state as
// replay-only recovery, and must delete the segments the checkpoint
// made dead.
func TestRecoverShardFromCheckpointPlusTail(t *testing.T) {
	evs := testWorkload(16)
	root := t.TempDir()
	opts := Options{Dir: root, Fsync: FsyncAlways, SegmentBytes: 128}.WithDefaults()
	dir := ShardDir(root, 0)
	if err := opts.FS.MkdirAll(dir); err != nil {
		t.Fatal(err)
	}
	log, err := openLogAt(opts, dir, nil, &Stats{}, 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(testEngineConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	ckptAt := len(evs) / 2
	for i, ev := range evs {
		if _, err := appendOne(log, ev.Stream, ev.Key); err != nil {
			t.Fatal(err)
		}
		eng.Feed(ev)
		if i == ckptAt {
			var buf bytes.Buffer
			if err := eng.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			if err := WriteShardCheckpoint(opts, 0, log.LastSeq(), buf.Bytes()); err != nil {
				t.Fatal(err)
			}
			// Deliberately skip TruncateThrough: recovery must delete
			// the dead segments itself (a crash can interrupt
			// truncation at any point).
		}
	}
	wantMet := eng.Metrics()
	log.Close()
	eng.Close()

	stats := &Stats{}
	rec, err := RecoverShard(opts, 0, testEngineConfig(nil), nil, stats)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Log.Close()
	defer rec.Engine.Close()
	if rec.CheckpointSeq == 0 {
		t.Fatal("recovery ignored the checkpoint")
	}
	if rec.Replayed != len(evs)-1-ckptAt {
		t.Fatalf("Replayed = %d, want %d", rec.Replayed, len(evs)-1-ckptAt)
	}
	m := rec.Engine.Metrics()
	if m.Input != wantMet.Input || m.Output != wantMet.Output || m.Inserts != wantMet.Inserts {
		t.Fatalf("counters diverged:\n got %+v\nwant %+v", m, wantMet)
	}
	// Dead segments (fully covered by the checkpoint) must be gone.
	segs, err := listSegments(storage.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sg := range segs[:len(segs)-1] {
		if sg.first <= rec.CheckpointSeq {
			// A surviving non-active segment must extend past the
			// checkpoint.
			next := segs[1].first
			if next <= rec.CheckpointSeq+1 {
				t.Fatalf("dead segment %s survived recovery", sg.name)
			}
		}
	}
	if rec.Log.LastSeq() != uint64(len(evs)) {
		t.Fatalf("LastSeq = %d, want %d", rec.Log.LastSeq(), len(evs))
	}
}

// Recovery across the checkpoint format change: a shard directory left
// by the build before the root rule — a snapVersion 2 checkpoint that
// carries the root join's output state, plus a WAL tail — recovers into
// an engine that does not store root output. The root entries are
// dropped (nothing would ever evict them), the tail replays, and the
// run finishes with the output of an uninterrupted one.
func TestRecoverShardFromOlderCheckpoint(t *testing.T) {
	// testdata/snap_v2_rootstored.gob: evs[:ckptAt] under
	// testEngineConfig with the MIGRATE before evs[migrateAt].
	const ckptAt, migrateAt, crashAt = 12, 9, 30
	evs := append(testWorkload(8), testWorkload(8)...)
	p2 := plan.MustLeftDeep(2, 0, 1)
	old, err := os.ReadFile("../engine/testdata/snap_v2_rootstored.gob")
	if err != nil {
		t.Fatal(err)
	}

	var refOut []string
	refEng, err := engine.New(testEngineConfig(func(d engine.Delta) { refOut = append(refOut, deltaLine(d)) }))
	if err != nil {
		t.Fatal(err)
	}
	defer refEng.Close()
	var refAtCrash int
	for i, ev := range evs {
		if i == migrateAt {
			if err := refEng.Migrate(p2); err != nil {
				t.Fatal(err)
			}
		}
		if i == crashAt {
			refAtCrash = len(refOut)
		}
		refEng.Feed(ev)
	}

	root := t.TempDir()
	opts := Options{Dir: root, Fsync: FsyncAlways}.WithDefaults()
	dir := ShardDir(root, 0)
	if err := opts.FS.MkdirAll(dir); err != nil {
		t.Fatal(err)
	}
	log, err := openLogAt(opts, dir, nil, &Stats{}, 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < crashAt; i++ {
		if i == migrateAt {
			if _, err := log.AppendMigrate(p2.String()); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := appendOne(log, evs[i].Stream, evs[i].Key); err != nil {
			t.Fatal(err)
		}
		if i == ckptAt-1 {
			if err := WriteShardCheckpoint(opts, 0, log.LastSeq(), old); err != nil {
				t.Fatal(err)
			}
		}
	}
	log.Close()

	var postOut []string
	rec, err := RecoverShard(opts, 0, testEngineConfig(func(d engine.Delta) { postOut = append(postOut, deltaLine(d)) }), nil, &Stats{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Log.Close()
	defer rec.Engine.Close()
	if rec.CheckpointSeq != ckptAt+1 || rec.ReplayedEvents != crashAt-ckptAt {
		t.Fatalf("checkpoint seq %d, replayed %d events; want %d and %d", rec.CheckpointSeq, rec.ReplayedEvents, ckptAt+1, crashAt-ckptAt)
	}
	if n := rec.Engine.Root().St.Size(); n != 0 {
		t.Fatalf("root state holds %d tuples after recovery, want 0", n)
	}
	for _, ev := range evs[crashAt:] {
		rec.Engine.Feed(ev)
	}
	want := refOut[refAtCrash:]
	if len(want) == 0 || strings.Join(postOut, "\n") != strings.Join(want, "\n") {
		t.Fatalf("output after recovery:\n got %v\nwant %v", postOut, want)
	}
	// Inserts and Evictions continue from the older build's counts, which
	// included the root's; everything the root rule leaves alone matches.
	m, refMet := rec.Engine.Metrics(), refEng.Metrics()
	if m.Input != refMet.Input || m.Output != refMet.Output || m.Probes != refMet.Probes ||
		m.Completions != refMet.Completions || m.CompletedEntries != refMet.CompletedEntries || m.Transitions != refMet.Transitions {
		t.Fatalf("counters diverged:\n got %+v\nwant %+v", m, refMet)
	}
}

func TestRecoverShardDetectsGap(t *testing.T) {
	root := t.TempDir()
	dir := ShardDir(root, 0)
	if err := storage.OS().MkdirAll(dir); err != nil {
		t.Fatal(err)
	}
	var data []byte
	var err error
	for _, seq := range []uint64{1, 2, 4} { // 3 is missing
		data, err = appendFrame(data, Record{Kind: KindFeed, Seq: seq, Stream: 0, Key: 1})
		if err != nil {
			t.Fatal(err)
		}
	}
	f, err := storage.OS().Create(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	f.Write(data)
	f.Close()
	_, err = RecoverShard(Options{Dir: root}, 0, testEngineConfig(nil), nil, nil)
	if err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("err = %v, want a WAL gap error", err)
	}
}

// A corrupt tail mid-log — with newer sealed segments after it — is
// not a torn write, it's data loss; recovery must refuse rather than
// silently drop acknowledged records.
func TestRecoverShardRefusesMidLogCorruption(t *testing.T) {
	root := t.TempDir()
	opts := Options{Dir: root, Fsync: FsyncAlways, SegmentBytes: 64}.WithDefaults()
	dir := ShardDir(root, 0)
	if err := opts.FS.MkdirAll(dir); err != nil {
		t.Fatal(err)
	}
	log, err := openLogAt(opts, dir, nil, &Stats{}, 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := appendOne(log, 0, tuple.Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	log.Close()
	segs, err := listSegments(storage.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("need ≥2 segments, have %d", len(segs))
	}
	first := filepath.Join(dir, segs[0].name)
	n, err := storage.OS().Size(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.OS().Truncate(first, n-1); err != nil {
		t.Fatal(err)
	}
	_, err = RecoverShard(opts, 0, testEngineConfig(nil), nil, nil)
	if err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("err = %v, want a refusal", err)
	}
}

// A torn tail on the LAST segment is the expected crash signature:
// recovery truncates it at a record boundary and proceeds.
func TestRecoverShardTruncatesTornActiveTail(t *testing.T) {
	root := t.TempDir()
	opts := Options{Dir: root, Fsync: FsyncAlways}.WithDefaults()
	dir := ShardDir(root, 0)
	if err := opts.FS.MkdirAll(dir); err != nil {
		t.Fatal(err)
	}
	log, err := openLogAt(opts, dir, nil, &Stats{}, 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := appendOne(log, 0, tuple.Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	log.Close()
	seg := filepath.Join(dir, segmentName(1))
	n, err := storage.OS().Size(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.OS().Truncate(seg, n-3); err != nil {
		t.Fatal(err)
	}
	stats := &Stats{}
	rec, err := RecoverShard(opts, 0, testEngineConfig(nil), nil, stats)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Log.Close()
	defer rec.Engine.Close()
	if rec.Replayed != 5 {
		t.Fatalf("Replayed = %d, want 5 (the 6th record was torn)", rec.Replayed)
	}
	if rec.TornBytes == 0 || stats.TornTruncations.Load() != 1 {
		t.Fatalf("torn tail not accounted: bytes=%d truncations=%d", rec.TornBytes, stats.TornTruncations.Load())
	}
	// The log must continue from the surviving sequence.
	seq, err := appendOne(rec.Log, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 6 {
		t.Fatalf("next seq = %d, want 6 (reusing the torn record's slot)", seq)
	}
}

// TestRecoverShardFeedBatchFrames proves batch-frame replay: a log of
// FEEDB records (interleaved with per-event FEED frames and a
// MIGRATE) recovers to the same engine state — counters, plan, and
// subsequent outputs — as a per-event run of the same schedule.
func TestRecoverShardFeedBatchFrames(t *testing.T) {
	evs := testWorkload(8)
	p2 := plan.MustLeftDeep(2, 0, 1)
	const batch = 5
	const migrateAt = 10 // a batch boundary of `batch`

	// Reference: per-event, never crashed.
	var refOut []string
	refEng, err := engine.New(testEngineConfig(func(d engine.Delta) { refOut = append(refOut, deltaLine(d)) }))
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range evs {
		if i == migrateAt {
			if err := refEng.Migrate(p2); err != nil {
				t.Fatal(err)
			}
		}
		refEng.Feed(ev)
	}
	refMet := refEng.Metrics()
	refEng.Close()

	// Live run: batch-granular appends and feeds, then a "crash".
	root := t.TempDir()
	dir := ShardDir(root, 0)
	opts := Options{Dir: root, Fsync: FsyncAlways}.WithDefaults()
	if err := opts.FS.MkdirAll(dir); err != nil {
		t.Fatal(err)
	}
	log, err := openLogAt(opts, dir, nil, &Stats{}, 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	liveEng, err := engine.New(testEngineConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	records, events := 0, 0
	for i := 0; i < len(evs); i += batch {
		if i == migrateAt {
			if _, err := log.AppendMigrate(p2.String()); err != nil {
				t.Fatal(err)
			}
			if err := liveEng.Migrate(p2); err != nil {
				t.Fatal(err)
			}
			records++
		}
		j := min(i+batch, len(evs))
		if j-i == 1 {
			// Mix in a per-event frame so both kinds coexist in one log.
			if _, err := appendOne(log, evs[i].Stream, evs[i].Key); err != nil {
				t.Fatal(err)
			}
		} else if _, err := log.AppendFeedBatch(evs[i:j]); err != nil {
			t.Fatal(err)
		}
		liveEng.FeedBatch(evs[i:j])
		records++
		events += j - i
	}
	liveMet := liveEng.Metrics()
	log.Close()
	liveEng.Close()

	if liveMet.Input != refMet.Input || liveMet.Output != refMet.Output {
		t.Fatalf("live batched run diverged before the crash: Input=%d Output=%d, want %d and %d",
			liveMet.Input, liveMet.Output, refMet.Input, refMet.Output)
	}

	stats := &Stats{}
	var postOut []string
	rec, err := RecoverShard(opts, 0, testEngineConfig(func(d engine.Delta) { postOut = append(postOut, deltaLine(d)) }), nil, stats)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Log.Close()
	defer rec.Engine.Close()
	if rec.Replayed != records {
		t.Fatalf("Replayed = %d records, want %d", rec.Replayed, records)
	}
	if rec.ReplayedEvents != events || stats.RecoveredEvents.Load() != uint64(events) {
		t.Fatalf("ReplayedEvents = %d (stats %d), want %d", rec.ReplayedEvents, stats.RecoveredEvents.Load(), events)
	}
	if len(postOut) != 0 {
		t.Fatalf("replay re-emitted %d results", len(postOut))
	}
	recMet := rec.Engine.Metrics()
	if recMet.Input != refMet.Input || recMet.Output != refMet.Output || recMet.Transitions != refMet.Transitions {
		t.Fatalf("recovered counters diverge: Input=%d Output=%d Transitions=%d, want %d %d %d",
			recMet.Input, recMet.Output, recMet.Transitions, refMet.Input, refMet.Output, refMet.Transitions)
	}
	if got := rec.Engine.Plan().String(); got != p2.String() {
		t.Fatalf("recovered plan %q, want %q", got, p2.String())
	}
	// Recovered engine behaves identically going forward: a full-match
	// key emits the same number of joins as the reference would.
	rec.Engine.SetSink(engine.Output(func(d engine.Delta) { postOut = append(postOut, deltaLine(d)) }).Sink())
	rec.Engine.FeedBatch(testWorkload(1))
	if len(postOut) == 0 {
		t.Fatal("recovered engine produced no output on a full-match batch")
	}
}
