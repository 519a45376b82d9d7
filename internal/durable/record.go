package durable

import (
	"encoding/binary"
	"fmt"

	"jisc/internal/storage"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// The log is a sequence of self-delimiting frames:
//
//	frame   := len:u32 | crc:u32 | payload       (little endian)
//	payload := kind:u8 | seq:u64 | body
//
// crc is CRC32C (Castagnoli) over the payload, so a torn or corrupted
// tail is detected without trusting the length field alone. Bodies:
//
//	feed      := stream:u8 | key:u64
//	migrate   := planLen:u16 | plan bytes
//	create    := nameLen:u8 | name | window:u32 | planLen:u16 | plan
//	drop      := nameLen:u8 | name
//	feedbatch := count:u16 | count × (stream:u8 | key:u64)
//
// seq is the per-log record sequence number, assigned by the log on
// append, strictly increasing from 1 with no gaps. Checkpoints record
// the seq they cover; replay skips records at or below it.
//
// feedbatch (the FEEDB frame) carries a whole ingest batch under one
// seq and one fsync, and is the only feed record written: a lone tuple
// is a batch of one. The per-event feed frame earlier builds wrote is
// still decoded and replayed, alone or interleaved with feedbatch.

// RecordKind discriminates log records.
type RecordKind uint8

const (
	// KindFeed is one input tuple: read, never written (see above).
	KindFeed RecordKind = iota + 1
	// KindMigrate is a plan transition (the plan's infix form).
	KindMigrate
	// KindCreate is a query creation (catalog log only).
	KindCreate
	// KindDrop is a query removal (catalog log only).
	KindDrop
	// KindFeedBatch is one ingest batch: N input tuples appended —
	// and fsynced — as a single record.
	KindFeedBatch
	// KindAuto is an autopilot toggle for a query (catalog log only):
	// AUTO ON/OFF survive restarts by folding the last toggle per name.
	KindAuto
)

// MaxBatchEvents is the most tuples one feedbatch record can carry
// (the count field is a u16). Callers with larger batches split them
// across records.
const MaxBatchEvents = 1<<16 - 1

// Record is one durable log entry. Which fields are meaningful depends
// on Kind.
type Record struct {
	Kind RecordKind
	Seq  uint64

	// Stream and Key carry a KindFeed tuple.
	Stream tuple.StreamID
	Key    tuple.Value

	// Plan is the plan's infix form for KindMigrate and KindCreate.
	Plan string
	// Name and Window identify a query for KindCreate / KindDrop.
	Name   string
	Window int

	// Events carries a KindFeedBatch batch, in arrival order.
	Events []workload.Event

	// Auto is the autopilot state a KindAuto record toggles Name to.
	Auto bool
}

// maxPayload bounds a frame's payload while scanning; real payloads
// are tiny.
const maxPayload = 1 << 20

var le = binary.LittleEndian

// appendFrame encodes r as one frame onto buf.
func appendFrame(buf []byte, r Record) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // header, patched below
	buf = append(buf, byte(r.Kind))
	buf = le.AppendUint64(buf, r.Seq)
	switch r.Kind {
	case KindFeed:
		buf = append(buf, byte(r.Stream))
		buf = le.AppendUint64(buf, uint64(r.Key))
	case KindMigrate:
		var err error
		if buf, err = appendString16(buf, r.Plan, "plan"); err != nil {
			return nil, err
		}
	case KindCreate:
		var err error
		if buf, err = appendString8(buf, r.Name, "name"); err != nil {
			return nil, err
		}
		buf = le.AppendUint32(buf, uint32(r.Window))
		if buf, err = appendString16(buf, r.Plan, "plan"); err != nil {
			return nil, err
		}
	case KindDrop:
		var err error
		if buf, err = appendString8(buf, r.Name, "name"); err != nil {
			return nil, err
		}
	case KindFeedBatch:
		if len(r.Events) == 0 {
			return nil, fmt.Errorf("durable: feedbatch record with no events")
		}
		if len(r.Events) > MaxBatchEvents {
			return nil, fmt.Errorf("durable: feedbatch of %d events exceeds %d", len(r.Events), MaxBatchEvents)
		}
		buf = le.AppendUint16(buf, uint16(len(r.Events)))
		for _, ev := range r.Events {
			buf = append(buf, byte(ev.Stream))
			buf = le.AppendUint64(buf, uint64(ev.Key))
		}
	case KindAuto:
		var err error
		if buf, err = appendString8(buf, r.Name, "name"); err != nil {
			return nil, err
		}
		on := byte(0)
		if r.Auto {
			on = 1
		}
		buf = append(buf, on)
	default:
		return nil, fmt.Errorf("durable: encoding unknown record kind %d", r.Kind)
	}
	storage.SealFrame(buf, start)
	return buf, nil
}

func appendString8(buf []byte, s, what string) ([]byte, error) {
	if len(s) > 255 {
		return nil, fmt.Errorf("durable: %s longer than 255 bytes", what)
	}
	buf = append(buf, byte(len(s)))
	return append(buf, s...), nil
}

func appendString16(buf []byte, s, what string) ([]byte, error) {
	if len(s) > 1<<16-1 {
		return nil, fmt.Errorf("durable: %s longer than 65535 bytes", what)
	}
	buf = le.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...), nil
}

// decodePayload decodes one CRC-validated payload.
func decodePayload(p []byte) (Record, error) {
	var r Record
	if len(p) < 9 {
		return r, fmt.Errorf("durable: payload of %d bytes is shorter than the kind+seq header", len(p))
	}
	r.Kind = RecordKind(p[0])
	r.Seq = le.Uint64(p[1:])
	body := p[9:]
	switch r.Kind {
	case KindFeed:
		if len(body) != 9 {
			return r, fmt.Errorf("durable: feed body is %d bytes, want 9", len(body))
		}
		r.Stream = tuple.StreamID(body[0])
		r.Key = tuple.Value(le.Uint64(body[1:]))
	case KindMigrate:
		s, rest, err := takeString16(body, "plan")
		if err != nil {
			return r, err
		}
		if len(rest) != 0 {
			return r, fmt.Errorf("durable: %d trailing bytes after migrate body", len(rest))
		}
		r.Plan = s
	case KindCreate:
		name, rest, err := takeString8(body, "name")
		if err != nil {
			return r, err
		}
		if len(rest) < 4 {
			return r, fmt.Errorf("durable: create body truncated before window")
		}
		r.Name = name
		r.Window = int(le.Uint32(rest))
		plan, rest, err := takeString16(rest[4:], "plan")
		if err != nil {
			return r, err
		}
		if len(rest) != 0 {
			return r, fmt.Errorf("durable: %d trailing bytes after create body", len(rest))
		}
		r.Plan = plan
	case KindDrop:
		name, rest, err := takeString8(body, "name")
		if err != nil {
			return r, err
		}
		if len(rest) != 0 {
			return r, fmt.Errorf("durable: %d trailing bytes after drop body", len(rest))
		}
		r.Name = name
	case KindFeedBatch:
		if len(body) < 2 {
			return r, fmt.Errorf("durable: feedbatch body truncated before count")
		}
		n := int(le.Uint16(body))
		if n == 0 {
			// Encoding rejects empty batches, so a zero count can only
			// be corruption or skew — not a canonical frame.
			return r, fmt.Errorf("durable: feedbatch record with zero count")
		}
		if len(body) != 2+9*n {
			return r, fmt.Errorf("durable: feedbatch body is %d bytes, want %d for %d events", len(body), 2+9*n, n)
		}
		r.Events = make([]workload.Event, n)
		for i := 0; i < n; i++ {
			b := body[2+9*i:]
			r.Events[i] = workload.Event{Stream: tuple.StreamID(b[0]), Key: tuple.Value(le.Uint64(b[1:]))}
		}
	case KindAuto:
		name, rest, err := takeString8(body, "name")
		if err != nil {
			return r, err
		}
		if len(rest) != 1 {
			return r, fmt.Errorf("durable: auto body has %d bytes after name, want 1", len(rest))
		}
		if rest[0] > 1 {
			return r, fmt.Errorf("durable: auto state byte %d is not 0 or 1", rest[0])
		}
		r.Name = name
		r.Auto = rest[0] == 1
	default:
		return r, fmt.Errorf("durable: unknown record kind %d", p[0])
	}
	return r, nil
}

func takeString8(b []byte, what string) (string, []byte, error) {
	if len(b) < 1 || len(b) < 1+int(b[0]) {
		return "", nil, fmt.Errorf("durable: %s truncated", what)
	}
	n := int(b[0])
	return string(b[1 : 1+n]), b[1+n:], nil
}

func takeString16(b []byte, what string) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("durable: %s length truncated", what)
	}
	n := int(le.Uint16(b))
	if len(b) < 2+n {
		return "", nil, fmt.Errorf("durable: %s truncated", what)
	}
	return string(b[2 : 2+n]), b[2+n:], nil
}

// scanFrames decodes frames from data in order, calling fn for each.
// It returns the byte length of the valid prefix: everything past it
// is a torn tail (short frame, bad length, or CRC mismatch) that the
// caller should truncate at this record boundary. A frame whose CRC
// validates but whose payload does not decode is not a torn tail — it
// means writer/reader version skew or silent corruption — and is
// returned as a hard error along with the boundary offset.
func scanFrames(data []byte, fn func(Record) error) (int64, error) {
	off := 0
	for {
		payload, n, ok := storage.NextFrame(data[off:], maxPayload)
		if !ok {
			return int64(off), nil
		}
		rec, err := decodePayload(payload)
		if err != nil {
			return int64(off), fmt.Errorf("durable: CRC-valid record at offset %d does not decode: %w", off, err)
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return int64(off), err
			}
		}
		off += n
	}
}
