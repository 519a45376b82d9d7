package durable

import (
	"fmt"
	"path/filepath"

	"jisc/internal/storage"
)

// Checkpoint files are wrapped in a validated envelope:
//
//	magic "JISCSNAP" | version:u32 | payloadLen:u64 | crc:u32 | payload
//
// and written via temp file + fsync + atomic rename + directory fsync,
// so a crash mid-write can never leave a torn checkpoint under the
// final name: the file either doesn't exist or validates. The payload
// is the engine's own gob snapshot, which carries its own snapVersion.

var snapMagic = [8]byte{'J', 'I', 'S', 'C', 'S', 'N', 'A', 'P'}

const (
	envVersion = 1
	envHeader  = 8 + 4 + 8 + 4
)

// encodeEnvelope wraps payload.
func encodeEnvelope(payload []byte) []byte {
	buf := make([]byte, 0, envHeader+len(payload))
	buf = append(buf, snapMagic[:]...)
	buf = le.AppendUint32(buf, envVersion)
	buf = le.AppendUint64(buf, uint64(len(payload)))
	buf = le.AppendUint32(buf, storage.Checksum(payload))
	return append(buf, payload...)
}

// decodeEnvelope validates data and returns the payload. Errors spell
// out what failed so an operator reading an ERR line knows whether the
// file is foreign, torn, or version-skewed.
func decodeEnvelope(data []byte) ([]byte, error) {
	if len(data) < envHeader {
		return nil, fmt.Errorf("durable: snapshot is %d bytes, shorter than the %d-byte header (torn write?)", len(data), envHeader)
	}
	if string(data[:8]) != string(snapMagic[:]) {
		return nil, fmt.Errorf("durable: bad snapshot magic %q (not a JISC snapshot file)", string(data[:8]))
	}
	if v := le.Uint32(data[8:]); v != envVersion {
		return nil, fmt.Errorf("durable: snapshot envelope version %d, this build reads %d", v, envVersion)
	}
	n := le.Uint64(data[12:])
	payload := data[envHeader:]
	if uint64(len(payload)) < n {
		return nil, fmt.Errorf("durable: snapshot truncated: %d of %d payload bytes (torn write)", len(payload), n)
	}
	payload = payload[:n]
	if storage.Checksum(payload) != le.Uint32(data[20:]) {
		return nil, fmt.Errorf("durable: snapshot CRC mismatch (corrupt or torn write)")
	}
	return payload, nil
}

// writeSnapshotFile writes payload to path inside the validated
// envelope, atomically: temp file, fsync, rename, directory fsync.
// A reader never observes a partial file under path.
func writeSnapshotFile(fs storage.FS, path string, payload []byte) error {
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(encodeEnvelope(payload)); err != nil {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		fs.Remove(tmp)
		return err
	}
	return fs.SyncDir(filepath.Dir(path))
}

// readSnapshotFile reads path and validates its envelope, returning
// the payload.
func readSnapshotFile(fs storage.FS, path string) ([]byte, error) {
	data, err := readFile(fs, path)
	if err != nil {
		return nil, err
	}
	payload, err := decodeEnvelope(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return payload, nil
}

func checkpointName(seq uint64) string { return fmt.Sprintf("ckpt-%016x.snap", seq) }

// listCheckpoints returns the seqs of dir's checkpoints, ascending.
func listCheckpoints(fs storage.FS, dir string) ([]uint64, error) {
	return listSeqs(fs, dir, "ckpt-", ".snap")
}

// writeCheckpoint writes a shard checkpoint covering WAL records up to
// and including seq, then prunes old checkpoints down to keep.
func writeCheckpoint(fs storage.FS, dir string, seq uint64, payload []byte, keep int) error {
	if err := writeSnapshotFile(fs, filepath.Join(dir, checkpointName(seq)), payload); err != nil {
		return err
	}
	return pruneCheckpoints(fs, dir, keep)
}

// WriteShardCheckpoint atomically writes a checkpoint for shard shard
// covering WAL records through seq, then prunes old checkpoints down
// to opts.KeepCheckpoints. The runtime calls this with the engine
// snapshot it captured at exactly that log position.
func WriteShardCheckpoint(opts Options, shard int, seq uint64, payload []byte) error {
	opts = opts.WithDefaults()
	dir := ShardDir(opts.Dir, shard)
	if err := opts.FS.MkdirAll(dir); err != nil {
		return err
	}
	return writeCheckpoint(opts.FS, dir, seq, payload, opts.KeepCheckpoints)
}

// pruneCheckpoints removes all but the newest keep checkpoint files.
func pruneCheckpoints(fs storage.FS, dir string, keep int) error {
	seqs, err := listCheckpoints(fs, dir)
	if err != nil || len(seqs) <= keep {
		return err
	}
	for _, seq := range seqs[:len(seqs)-keep] {
		if err := fs.Remove(filepath.Join(dir, checkpointName(seq))); err != nil {
			return err
		}
	}
	return fs.SyncDir(dir)
}

// latestCheckpoint loads the newest checkpoint in dir that validates,
// falling back to older ones when the newest is torn or corrupt. It
// returns the covered sequence number and payload, or (0, nil) when no
// valid checkpoint exists. skipped counts checkpoints that failed
// validation on the way.
func latestCheckpoint(fs storage.FS, dir string) (seq uint64, payload []byte, skipped int, err error) {
	seqs, err := listCheckpoints(fs, dir)
	if err != nil {
		return 0, nil, 0, err
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		p, rerr := readSnapshotFile(fs, filepath.Join(dir, checkpointName(seqs[i])))
		if rerr != nil {
			skipped++
			continue
		}
		return seqs[i], p, skipped, nil
	}
	return 0, nil, skipped, nil
}
