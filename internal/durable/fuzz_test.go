package durable

import (
	"bytes"
	"testing"

	"jisc/internal/storage"
	"jisc/internal/workload"
)

// mustFrame builds one encoded frame for the seed corpus.
func mustFrame(t testing.TB, r Record) []byte {
	t.Helper()
	buf, err := appendFrame(nil, r)
	if err != nil {
		t.Fatalf("appendFrame(%+v): %v", r, err)
	}
	return buf
}

// FuzzRecordDecode throws arbitrary bytes at the WAL frame scanner.
// Invariants, for any input:
//
//   - scanFrames never panics and the valid-prefix offset it returns is
//     within the input (recovery truncates at that boundary);
//   - every record it yields re-encodes to a frame that decodes back to
//     the identical record (valid-decode ⇒ re-encode round-trips);
//   - the re-encoded frames, concatenated, reproduce the valid prefix
//     byte for byte — encoding is canonical, so a log rewritten from
//     its decoded records is the same log.
func FuzzRecordDecode(f *testing.F) {
	// Seed corpus: one well-formed frame per kind, a multi-record log,
	// a torn tail, and a few corruptions.
	feed := mustFrame(f, Record{Kind: KindFeed, Seq: 1, Stream: 3, Key: -77})
	mig := mustFrame(f, Record{Kind: KindMigrate, Seq: 2, Plan: "((0⋈1)⋈2)"})
	create := mustFrame(f, Record{Kind: KindCreate, Seq: 3, Name: "q1", Window: 128, Plan: "0,1,2"})
	drop := mustFrame(f, Record{Kind: KindDrop, Seq: 4, Name: "q1"})
	batch := mustFrame(f, Record{Kind: KindFeedBatch, Seq: 5, Events: []workload.Event{
		{Stream: 0, Key: 1}, {Stream: 2, Key: -9}, {Stream: 1, Key: 1 << 33},
	}})
	batch1 := mustFrame(f, Record{Kind: KindFeedBatch, Seq: 6, Events: []workload.Event{{Stream: 4, Key: 0}}})
	log := append(append(append(append(append(append([]byte{}, feed...), mig...), create...), drop...), batch...), batch1...)
	f.Add([]byte{})
	f.Add(feed)
	f.Add(mig)
	f.Add(create)
	f.Add(drop)
	f.Add(batch)
	f.Add(batch1)
	f.Add(log)
	f.Add(log[:len(log)-3]) // torn tail
	flipped := append([]byte{}, log...)
	flipped[9] ^= 0x40 // payload corruption → CRC mismatch
	f.Add(flipped)
	badKind := mustFrame(f, Record{Kind: KindFeed, Seq: 5, Stream: 0, Key: 0})
	badKind[storage.FrameHeader] = 0xEE // unknown kind with a recomputed CRC
	storage.SealFrame(badKind, 0)
	f.Add(badKind)

	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []Record
		off, err := scanFrames(data, func(r Record) error {
			recs = append(recs, r)
			return nil
		})
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("scanFrames returned offset %d outside input of %d bytes", off, len(data))
		}
		if err != nil {
			// A CRC-valid frame whose payload doesn't decode (version
			// skew / forged CRC). The boundary must still be sane, which
			// the check above proved.
			return
		}
		reenc := []byte{}
		for _, r := range recs {
			buf, err := appendFrame(nil, r)
			if err != nil {
				t.Fatalf("decoded record %+v does not re-encode: %v", r, err)
			}
			var back []Record
			if _, err := scanFrames(buf, func(r Record) error { back = append(back, r); return nil }); err != nil {
				t.Fatalf("re-encoded frame of %+v does not scan: %v", r, err)
			}
			if len(back) != 1 || !back[0].Equal(r) {
				t.Fatalf("record round-trip mismatch: %+v -> %+v", r, back)
			}
			reenc = append(reenc, buf...)
		}
		if !bytes.Equal(reenc, data[:off]) {
			t.Fatalf("re-encoded log (%d bytes) differs from the valid prefix (%d bytes)", len(reenc), off)
		}
	})
}
