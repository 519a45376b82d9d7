package durable

import (
	"testing"

	"jisc/internal/storage"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// Equal reports whether two records are identical field for field;
// the Events slice makes Record non-comparable with ==.
func (r Record) Equal(o Record) bool {
	if r.Kind != o.Kind || r.Seq != o.Seq || r.Stream != o.Stream || r.Key != o.Key ||
		r.Plan != o.Plan || r.Name != o.Name || r.Window != o.Window || r.Auto != o.Auto {
		return false
	}
	if len(r.Events) != len(o.Events) {
		return false
	}
	for i := range r.Events {
		if r.Events[i] != o.Events[i] {
			return false
		}
	}
	return true
}

func mustFrames(t *testing.T, recs ...Record) []byte {
	t.Helper()
	var data []byte
	var err error
	for _, r := range recs {
		data, err = appendFrame(data, r)
		if err != nil {
			t.Fatalf("appendFrame(%+v): %v", r, err)
		}
	}
	return data
}

func sampleRecords() []Record {
	return []Record{
		{Kind: KindFeed, Seq: 1, Stream: 0, Key: 42},
		{Kind: KindFeed, Seq: 2, Stream: 2, Key: -7},
		{Kind: KindMigrate, Seq: 3, Plan: "((0 2) 1)"},
		{Kind: KindCreate, Seq: 4, Name: "sensors", Window: 1024, Plan: "(0 1)"},
		{Kind: KindDrop, Seq: 5, Name: "sensors"},
		{Kind: KindFeed, Seq: 6, Stream: 1, Key: 1 << 40},
		{Kind: KindFeedBatch, Seq: 7, Events: []workload.Event{
			{Stream: 0, Key: 9}, {Stream: 2, Key: -3}, {Stream: 1, Key: 1 << 50},
		}},
		{Kind: KindAuto, Seq: 8, Name: "sensors", Auto: true},
		{Kind: KindAuto, Seq: 9, Name: "sensors", Auto: false},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	want := sampleRecords()
	data := mustFrames(t, want...)
	var got []Record
	valid, err := scanFrames(data, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if valid != int64(len(data)) {
		t.Fatalf("valid = %d, want %d", valid, len(data))
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestTornTailPrefixSweep is the torn-write contract, proven
// exhaustively: every byte-length prefix of a valid log either replays
// completely or is truncated at a record boundary — never a decode
// error, never a misparsed record.
func TestTornTailPrefixSweep(t *testing.T) {
	recs := sampleRecords()
	data := mustFrames(t, recs...)
	// boundary[i] is the offset at which record i ends.
	var boundaries []int64
	if _, err := func() (int64, error) {
		var off int64
		for i := range recs {
			one := mustFrames(t, recs[i])
			off += int64(len(one))
			boundaries = append(boundaries, off)
		}
		return off, nil
	}(); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(data); cut++ {
		var got []Record
		valid, err := scanFrames(data[:cut], func(r Record) error {
			got = append(got, r)
			return nil
		})
		if err != nil {
			t.Fatalf("cut %d: scanFrames error: %v", cut, err)
		}
		// The valid prefix must be the largest record boundary ≤ cut.
		var wantValid int64
		wantRecs := 0
		for i, b := range boundaries {
			if b <= int64(cut) {
				wantValid = b
				wantRecs = i + 1
			}
		}
		if valid != wantValid {
			t.Fatalf("cut %d: valid = %d, want %d", cut, valid, wantValid)
		}
		if len(got) != wantRecs {
			t.Fatalf("cut %d: decoded %d records, want %d", cut, len(got), wantRecs)
		}
		for i := 0; i < wantRecs; i++ {
			if !got[i].Equal(recs[i]) {
				t.Fatalf("cut %d: record %d = %+v, want %+v", cut, i, got[i], recs[i])
			}
		}
	}
}

// TestCorruptionBitFlipSweep flips one bit at every byte offset and
// asserts the CRC catches it: the scan stops cleanly at or before the
// corrupted record, and every record it does deliver is intact.
func TestCorruptionBitFlipSweep(t *testing.T) {
	recs := sampleRecords()
	data := mustFrames(t, recs...)
	for pos := 0; pos < len(data); pos++ {
		corrupt := append([]byte(nil), data...)
		corrupt[pos] ^= 0x40
		var got []Record
		valid, err := scanFrames(corrupt, func(r Record) error {
			got = append(got, r)
			return nil
		})
		if err != nil {
			// A flip can never keep the CRC valid, so the only hard
			// error scanFrames may raise (CRC-valid-but-undecodable)
			// must not fire.
			t.Fatalf("pos %d: hard error: %v", pos, err)
		}
		if valid > int64(pos) {
			t.Fatalf("pos %d: scan claimed %d valid bytes past the corruption", pos, valid)
		}
		for i, r := range got {
			if !r.Equal(recs[i]) {
				t.Fatalf("pos %d: delivered corrupted record %d: %+v", pos, i, r)
			}
		}
	}
}

// A frame whose CRC validates but whose payload does not decode is
// damage no truncation can explain — scanFrames must refuse rather
// than silently drop acknowledged records.
func TestUndecodableValidCRCIsHardError(t *testing.T) {
	payload := []byte{0xFF, 0, 0, 0, 0, 0, 0, 0, 1} // kind 255, seq 1
	data := append(make([]byte, storage.FrameHeader), payload...)
	storage.SealFrame(data, 0)
	if _, err := scanFrames(data, func(Record) error { return nil }); err == nil {
		t.Fatal("undecodable record with a valid CRC passed the scan")
	}
}

func TestFrameRejectsOversizedPayloads(t *testing.T) {
	if _, err := appendFrame(nil, Record{
		Kind: KindMigrate, Seq: 1, Plan: string(make([]byte, maxPayload)),
	}); err == nil {
		t.Fatal("oversized record accepted")
	}
}

func TestFeedBatchEncodeBounds(t *testing.T) {
	if _, err := appendFrame(nil, Record{Kind: KindFeedBatch, Seq: 1}); err == nil {
		t.Fatal("empty feedbatch accepted")
	}
	if _, err := appendFrame(nil, Record{
		Kind: KindFeedBatch, Seq: 1, Events: make([]workload.Event, MaxBatchEvents+1),
	}); err == nil {
		t.Fatal("feedbatch longer than the u16 count accepted")
	}
	full := Record{Kind: KindFeedBatch, Seq: 1, Events: make([]workload.Event, MaxBatchEvents)}
	data := mustFrames(t, full)
	var got []Record
	if _, err := scanFrames(data, func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].Equal(full) {
		t.Fatalf("max-size feedbatch did not round-trip (%d records)", len(got))
	}
}

// TestFeedBatchZeroCountRejected pins the canonical-encoding rule the
// fuzzer relies on: a zero-count batch frame (which the encoder can
// never produce) must fail decode rather than yield an empty record.
func TestFeedBatchZeroCountRejected(t *testing.T) {
	data := mustFrames(t, Record{Kind: KindFeedBatch, Seq: 1, Events: []workload.Event{{Stream: 0, Key: 1}}})
	// Rewrite the count to zero, truncate the body, and re-patch CRC+len.
	frame := data[:storage.FrameHeader+9+2] // header, kind+seq+count, no events
	le.PutUint16(frame[storage.FrameHeader+9:], 0)
	storage.SealFrame(frame, 0)
	if _, err := scanFrames(frame, func(Record) error { return nil }); err == nil {
		t.Fatal("zero-count feedbatch frame decoded")
	}
}

func TestRecordKinds(t *testing.T) {
	// StreamID fits its field; the sweep tests depend on this staying
	// byte-sized.
	var _ = tuple.StreamID(0)
	if KindFeed == 0 {
		t.Fatal("KindFeed must be non-zero: a zero-filled torn frame may not decode as a record")
	}
}

// TestAutoBadStateByteRejected pins KindAuto's canonical encoding: the
// trailing state byte is 0 or 1, anything else is corruption or skew.
func TestAutoBadStateByteRejected(t *testing.T) {
	data := mustFrames(t, Record{Kind: KindAuto, Seq: 1, Name: "q", Auto: true})
	data[len(data)-1] = 2
	storage.SealFrame(data, 0)
	if _, err := scanFrames(data, func(Record) error { return nil }); err == nil {
		t.Fatal("auto frame with state byte 2 decoded")
	}
}
