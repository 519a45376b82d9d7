package durable

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"jisc/internal/storage"
)

func TestSnapshotEnvelopeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.snap")
	payload := []byte("engine state bytes")
	if err := writeSnapshotFile(storage.OS(), path, payload); err != nil {
		t.Fatal(err)
	}
	got, err := readSnapshotFile(storage.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q", got)
	}
}

func TestSnapshotEnvelopeRejectsDamage(t *testing.T) {
	payload := []byte("engine state bytes")
	env := encodeEnvelope(payload)
	cases := []struct {
		name string
		data []byte
		want string // substring of the error
	}{
		{"short", env[:envHeader-1], "torn"},
		{"magic", append([]byte("NOTASNAP"), env[8:]...), "magic"},
		{"truncated", env[:len(env)-3], "truncated"},
		{"flipped", func() []byte {
			d := append([]byte(nil), env...)
			d[len(d)-1] ^= 1
			return d
		}(), "CRC"},
	}
	for _, tc := range cases {
		if _, err := decodeEnvelope(tc.data); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestCheckpointAtomicUnderCrash proves the temp-file + rename
// discipline: whatever byte the power fails at, a reader afterwards
// sees either the previous checkpoint or the new one — never a torn
// file under a checkpoint name.
func TestCheckpointAtomicUnderCrash(t *testing.T) {
	oldPayload := []byte("old engine state")
	newPayload := []byte("new engine state, rather longer than the old one")

	// Size an uninterrupted write to bound the budget sweep.
	probe := t.TempDir()
	opts := Options{Dir: probe}.WithDefaults()
	if err := WriteShardCheckpoint(opts, 0, 1, oldPayload); err != nil {
		t.Fatal(err)
	}
	full := int64(len(encodeEnvelope(newPayload))) + 1

	for budget := int64(0); budget <= full; budget++ {
		dir := t.TempDir()
		opts := Options{Dir: dir}.WithDefaults()
		if err := WriteShardCheckpoint(opts, 0, 1, oldPayload); err != nil {
			t.Fatal(err)
		}
		crashOpts := opts
		crashOpts.FS = storage.NewCrashFS(storage.OS(), budget)
		// The crashing write may fail; that's the point.
		err := WriteShardCheckpoint(crashOpts, 0, 2, newPayload)

		seq, payload, _, lerr := latestCheckpoint(storage.OS(), ShardDir(dir, 0))
		if lerr != nil {
			t.Fatalf("budget %d: latestCheckpoint: %v", budget, lerr)
		}
		switch {
		case seq == 1 && bytes.Equal(payload, oldPayload):
			// Crash before the rename: the old checkpoint survives.
		case seq == 2 && bytes.Equal(payload, newPayload):
			// The new checkpoint landed completely.
			if err != nil && budget < full {
				// Acceptable: the write succeeded through the rename
				// and crashed during a later step (prune, dir sync).
				continue
			}
		default:
			t.Fatalf("budget %d: recovered seq %d payload %q (write err %v)", budget, seq, payload, err)
		}
	}
}

// KeepCheckpoints bounds disk use: the newest N survive, everything
// older is pruned.
func TestCheckpointPruning(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, KeepCheckpoints: 2}.WithDefaults()
	for seq := uint64(1); seq <= 5; seq++ {
		if err := WriteShardCheckpoint(opts, 0, seq, []byte{byte(seq)}); err != nil {
			t.Fatal(err)
		}
	}
	ckpts, err := listCheckpoints(storage.OS(), ShardDir(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) != 2 || ckpts[0] != 4 || ckpts[1] != 5 {
		t.Fatalf("surviving checkpoints = %v, want [4 5]", ckpts)
	}
}

// A torn newest checkpoint must not poison recovery: latestCheckpoint
// falls back to the previous valid one.
func TestLatestCheckpointFallsBackPastCorruption(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir}.WithDefaults()
	if err := WriteShardCheckpoint(opts, 0, 1, []byte("good")); err != nil {
		t.Fatal(err)
	}
	// Hand-plant a corrupt newer checkpoint, bypassing the atomic
	// writer (as a buggy copy or partial scp might).
	bad := filepath.Join(ShardDir(dir, 0), checkpointName(9))
	f, err := storage.OS().Create(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("JISCSNAPgarbage")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	seq, payload, skipped, err := latestCheckpoint(storage.OS(), ShardDir(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 || string(payload) != "good" || skipped != 1 {
		t.Fatalf("seq=%d payload=%q skipped=%d", seq, payload, skipped)
	}
}
