// Package storage holds the low-level file primitives every
// log-structured file in this repository is built on: the FS
// abstraction (with its OS, in-memory, and crash-injecting
// implementations) and the CRC-framed record discipline —
// len:u32 | crc:u32 | payload, little endian, CRC32C over the payload.
//
// It is a leaf package by design: the durability layer (internal/
// durable) and the tiered state store (internal/statestore) both build
// on it, and durable itself depends on the engine for recovery — so
// the shared primitives must live below both. Both name them through
// this package directly.
package storage

import (
	"encoding/binary"
	"hash/crc32"
)

// FrameHeader is the byte length of a frame's len+crc header.
const FrameHeader = 8

var (
	le         = binary.LittleEndian
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// Checksum returns the CRC32C (Castagnoli) of p: the checksum a
// frame carries over its payload, and the checkpoint envelope over
// its own.
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// SealFrame patches the FrameHeader bytes at start, treating
// dst[start+FrameHeader:] as the frame's payload: callers build the
// payload in place after reserving the header, so framing copies
// nothing.
func SealFrame(dst []byte, start int) {
	payload := dst[start+FrameHeader:]
	le.PutUint32(dst[start:], uint32(len(payload)))
	le.PutUint32(dst[start+4:], Checksum(payload))
}

// NextFrame validates the frame at the head of data and returns its
// payload and total encoded length. ok is false when data starts with
// a torn or corrupted frame (short header, implausible length, short
// payload, or CRC mismatch) — the caller should treat everything from
// that offset on as an unreplayable tail. max bounds the accepted
// payload length.
func NextFrame(data []byte, max int) (payload []byte, n int, ok bool) {
	if len(data) < FrameHeader {
		return nil, 0, false
	}
	ln := int(le.Uint32(data))
	if ln == 0 || ln > max || len(data)-FrameHeader < ln {
		return nil, 0, false
	}
	payload = data[FrameHeader : FrameHeader+ln]
	if Checksum(payload) != le.Uint32(data[4:]) {
		return nil, 0, false
	}
	return payload, FrameHeader + ln, true
}
