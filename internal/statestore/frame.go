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
// payload). One spilled bucket is a contiguous run of frames, each:
//
//	payload := kind:u8(=1) | key:u64 | set:u64 | count:u16 | count × tuple
//	tuple   := arrival:u64 | oldest:u64 | nrefs:u8 | nrefs × (stream:u8 | seq:u64)
//
// Key and Set are per-frame because they are bucket constants; each
// decoded tuple inherits them. Frames are chunked so a frame
// never outgrows maxSpillPayload, keeping the scan bound shared with
// the WAL.

const (
	frameKindBucket = 1

	// maxTuplesPerFrame bounds count; appendBucket starts a new frame
	// past it (or past softFrameBytes, whichever comes first).
	maxTuplesPerFrame = 4096
	// softFrameBytes is the chunking threshold: a frame is closed once
	// its encoding crosses it, so even with maximal tuples (255 refs)
	// the payload stays under maxSpillPayload.
	softFrameBytes = 128 << 10
	// maxSpillPayload is the scan-time sanity bound on one frame's
	// payload, mirroring the WAL's.
	maxSpillPayload = 1 << 20

	// frameFixed is the fixed prefix of a bucket payload:
	// kind + key + set + count.
	frameFixed = 1 + 8 + 8 + 2
	// tupleFixed is the fixed prefix of one encoded tuple:
	// arrival + oldest + nrefs.
	tupleFixed = 8 + 8 + 1
)

var le = binary.LittleEndian

// appendBucket appends the spill frames for one bucket — all of
// tuples, chunked — onto buf, which the caller positions at the
// active segment's tail.
func appendBucket(buf []byte, key tuple.Value, set tuple.StreamSet, tuples []*tuple.Tuple) []byte {
	for len(tuples) > 0 {
		n := 0
		start := len(buf)
		for n < len(tuples) && n < maxTuplesPerFrame && len(buf)-start < softFrameBytes+storage.FrameHeader+frameFixed {
			if n == 0 {
				buf = append(buf, make([]byte, storage.FrameHeader)...)
				buf = append(buf, frameKindBucket)
				buf = le.AppendUint64(buf, uint64(key))
				buf = le.AppendUint64(buf, uint64(set))
				buf = append(buf, 0, 0) // count, patched below
			}
			buf = appendTuple(buf, tuples[n])
			n++
		}
		le.PutUint16(buf[start+storage.FrameHeader+frameFixed-2:], uint16(n))
		storage.SealFrame(buf, start)
		tuples = tuples[n:]
	}
	return buf
}

// appendBucketFrame encodes exactly one frame holding all of tuples —
// the canonical single-frame encoding the fuzz round-trip checks
// against. len(tuples) must be within maxTuplesPerFrame.
func appendBucketFrame(buf []byte, key tuple.Value, set tuple.StreamSet, tuples []*tuple.Tuple) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, storage.FrameHeader)...)
	buf = append(buf, frameKindBucket)
	buf = le.AppendUint64(buf, uint64(key))
	buf = le.AppendUint64(buf, uint64(set))
	buf = le.AppendUint16(buf, uint16(len(tuples)))
	for _, t := range tuples {
		buf = appendTuple(buf, t)
	}
	storage.SealFrame(buf, start)
	return buf
}

func appendTuple(buf []byte, t *tuple.Tuple) []byte {
	if len(t.Refs) > 255 {
		// Refs are bounded by tuple.MaxStreams (64); exceeding the wire
		// width means a corrupted tuple, not a data condition.
		panic(fmt.Sprintf("statestore: tuple with %d refs exceeds the spill frame width", len(t.Refs)))
	}
	buf = le.AppendUint64(buf, t.Arrival)
	buf = le.AppendUint64(buf, t.Oldest)
	buf = append(buf, byte(len(t.Refs)))
	for _, r := range t.Refs {
		buf = append(buf, byte(r.Stream))
		buf = le.AppendUint64(buf, r.Seq)
	}
	return buf
}

// decodeBucket decodes one CRC-validated bucket payload. It never
// panics on arbitrary input: every length is validated before use, and
// any structural violation (wrong kind, zero or oversized count,
// truncation, trailing bytes) is an error.
func decodeBucket(p []byte) (key tuple.Value, set tuple.StreamSet, tuples []*tuple.Tuple, err error) {
	return decodeBucketInto(nil, p)
}

// decodeBucketInto is decodeBucket appending the tuples to dst; on
// error nothing of dst is returned.
func decodeBucketInto(dst []*tuple.Tuple, p []byte) (key tuple.Value, set tuple.StreamSet, tuples []*tuple.Tuple, err error) {
	if len(p) < frameFixed {
		return 0, 0, nil, fmt.Errorf("statestore: payload of %d bytes is shorter than the bucket header", len(p))
	}
	if p[0] != frameKindBucket {
		return 0, 0, nil, fmt.Errorf("statestore: unknown spill frame kind %d", p[0])
	}
	key = tuple.Value(le.Uint64(p[1:]))
	set = tuple.StreamSet(le.Uint64(p[9:]))
	count := int(le.Uint16(p[17:]))
	if count == 0 || count > maxTuplesPerFrame {
		return 0, 0, nil, fmt.Errorf("statestore: bucket frame count %d outside (0, %d]", count, maxTuplesPerFrame)
	}
	b := p[frameFixed:]
	tuples = slices.Grow(dst, count)
	for i := 0; i < count; i++ {
		if len(b) < tupleFixed {
			return 0, 0, nil, fmt.Errorf("statestore: bucket frame truncated in tuple %d header", i)
		}
		t := &tuple.Tuple{
			Key:     key,
			Set:     set,
			Arrival: le.Uint64(b),
			Oldest:  le.Uint64(b[8:]),
		}
		nrefs := int(b[16])
		b = b[tupleFixed:]
		if nrefs == 0 {
			return 0, 0, nil, fmt.Errorf("statestore: tuple %d has no provenance refs", i)
		}
		if len(b) < 9*nrefs {
			return 0, 0, nil, fmt.Errorf("statestore: bucket frame truncated in tuple %d refs", i)
		}
		t.Refs = make([]tuple.Ref, nrefs)
		for j := 0; j < nrefs; j++ {
			t.Refs[j] = tuple.Ref{Stream: tuple.StreamID(b[9*j]), Seq: le.Uint64(b[9*j+1:])}
		}
		b = b[9*nrefs:]
		tuples = append(tuples, t)
	}
	if len(b) != 0 {
		return 0, 0, nil, fmt.Errorf("statestore: %d trailing bytes after bucket frame", len(b))
	}
	return key, set, tuples, nil
}
