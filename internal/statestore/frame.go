// Package statestore is the spill tier below internal/state: a
// byte-accounted, memory-governed store that serializes cold hash
// buckets to per-shard, CRC32C-framed, log-structured segment files
// and faults them back just in time — the storage-level analogue of
// JISC's just-in-time completion. It is a leaf: it knows a table only
// as the three calls its CLOCK hand makes (Table), the hand walks the
// tables' own slots, and each spilled key's record (Part) is held by
// the key's table, not indexed here. See DESIGN.md §15.
package statestore

import (
	"encoding/binary"
	"fmt"
	"slices"

	"jisc/internal/storage"
	"jisc/internal/tuple"
)

// Segment files reuse the durable frame discipline
// (len:u32 | crc:u32 | payload, little endian, CRC32C over the
// payload). One spilled bucket is a contiguous run of frames, each a
// header and the bucket's rows as they sit in the table's run:
//
//	payload := kind:u8(=2) | key:u64 | set:u64 | count:u16 | count × row
//	row     := arrival:u64 | |set| × seq:u64
//
// Key and Set are per-frame because they are bucket constants, and the
// row width follows from Set (tuple.RowWidth). Frames are chunked so a
// frame never outgrows maxSpillPayload, keeping the scan bound shared
// with the WAL.

const (
	frameKindRows = 2

	// maxTuplesPerFrame bounds count; appendBucket starts a new frame
	// past it (or past softFrameBytes of rows, whichever comes first).
	maxTuplesPerFrame = 4096
	// softFrameBytes is the chunking threshold: a frame holds at most
	// this many bytes of rows, or one row, so even with maximal rows
	// (64 seqs) the payload stays under maxSpillPayload.
	softFrameBytes = 128 << 10
	// maxSpillPayload is the scan-time sanity bound on one frame's
	// payload, mirroring the WAL's.
	maxSpillPayload = 1 << 20

	// frameFixed is the fixed prefix of a bucket payload:
	// kind + key + set + count.
	frameFixed = 1 + 8 + 8 + 2
)

var le = binary.LittleEndian

// appendBucket appends the spill frames for one bucket — all of rows,
// chunked — onto buf, which the caller positions at the active
// segment's tail.
func appendBucket(buf []byte, rows tuple.Rows) []byte {
	w := tuple.RowWidth(rows.Set)
	per := w * max(1, min(maxTuplesPerFrame, softFrameBytes/(8*w)))
	for data := rows.Data; len(data) > 0; {
		n := min(per, len(data))
		buf = appendBucketFrame(buf, tuple.Rows{Key: rows.Key, Set: rows.Set, Data: data[:n]})
		data = data[n:]
	}
	return buf
}

// appendBucketFrame encodes exactly one frame holding all of rows, which
// must be within maxTuplesPerFrame.
func appendBucketFrame(buf []byte, rows tuple.Rows) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, storage.FrameHeader)...)
	buf = append(buf, frameKindRows)
	buf = le.AppendUint64(buf, uint64(rows.Key))
	buf = le.AppendUint64(buf, uint64(rows.Set))
	buf = le.AppendUint16(buf, uint16(rows.Len()))
	for _, v := range rows.Data {
		buf = le.AppendUint64(buf, v)
	}
	storage.SealFrame(buf, start)
	return buf
}

// decodeBucket decodes one CRC-validated bucket payload, appending its
// rows to dst. It never panics on arbitrary input: every length is
// validated before use, and any structural violation (wrong kind, empty
// set, zero or oversized count, a length that is not count rows) is an
// error, which returns nothing of dst.
func decodeBucket(dst []uint64, p []byte) (tuple.Rows, error) {
	if len(p) < frameFixed {
		return tuple.Rows{}, fmt.Errorf("statestore: payload of %d bytes is shorter than the bucket header", len(p))
	}
	if p[0] != frameKindRows {
		return tuple.Rows{}, fmt.Errorf("statestore: unknown spill frame kind %d", p[0])
	}
	rows := tuple.Rows{Key: tuple.Value(le.Uint64(p[1:])), Set: tuple.StreamSet(le.Uint64(p[9:]))}
	if rows.Set == 0 {
		return tuple.Rows{}, fmt.Errorf("statestore: bucket frame covers no stream")
	}
	count := int(le.Uint16(p[17:]))
	if count == 0 || count > maxTuplesPerFrame {
		return tuple.Rows{}, fmt.Errorf("statestore: bucket frame count %d outside (0, %d]", count, maxTuplesPerFrame)
	}
	b := p[frameFixed:]
	if want := 8 * count * tuple.RowWidth(rows.Set); len(b) != want {
		return tuple.Rows{}, fmt.Errorf("statestore: bucket frame holds %d bytes of rows, %d rows of %v take %d", len(b), count, rows.Set, want)
	}
	rows.Data = slices.Grow(dst, len(b)/8)
	for ; len(b) > 0; b = b[8:] {
		rows.Data = append(rows.Data, le.Uint64(b))
	}
	return rows, nil
}
