package statestore

import (
	"bytes"
	"slices"
	"testing"

	"jisc/internal/storage"
	"jisc/internal/tuple"
)

// rowsOf lays tuples out as the run a table would hold them in.
func rowsOf(key tuple.Value, set tuple.StreamSet, tuples ...*tuple.Tuple) tuple.Rows {
	rows := tuple.Rows{Key: key, Set: set}
	for _, t := range tuples {
		rows.Data = tuple.AppendRow(rows.Data, t)
	}
	return rows
}

// widest is a row covering every stream a query may have.
func widest(key tuple.Value, seq uint64) *tuple.Tuple {
	t := tuple.NewBase(0, seq, key, seq)
	for id := tuple.StreamID(1); id < tuple.MaxStreams; id++ {
		t = tuple.Join(t, tuple.NewBase(id, seq+uint64(id), key, seq+uint64(id)))
	}
	return t
}

// seedPayloads returns canonical bucket payloads (frame headers
// stripped) covering the encoder's shapes: single row, multi-row,
// composites, a bucket of composites, a set-difference bucket — outer
// rows of one stream, stored in a table over more streams, so the
// frame's set is the rows' and not the table's — and a row of maximal
// width.
func seedPayloads() [][]byte {
	var seeds [][]byte
	add := func(rows tuple.Rows) {
		framed := appendBucketFrame(nil, rows)
		seeds = append(seeds, framed[storage.FrameHeader:])
	}
	add(rowsOf(7, tuple.NewStreamSet(0), tuple.NewBase(0, 1, 7, 10)))
	add(rowsOf(-3, tuple.NewStreamSet(2), tuple.NewBase(2, 5, -3, 50), tuple.NewBase(2, 9, -3, 90)))
	comp := tuple.Join(tuple.NewBase(0, 1, 4, 1), tuple.NewBase(1, 2, 4, 2))
	add(rowsOf(4, comp.Set, comp))
	three := tuple.Join(comp, tuple.NewBase(3, 11, 4, 11))
	add(rowsOf(4, three.Set, three, tuple.Join(comp, tuple.NewBase(3, 12, 4, 12))))
	add(rowsOf(9, tuple.NewStreamSet(5), tuple.NewBase(5, 3, 9, 30), tuple.NewBase(5, 8, 9, 80)))
	wide := widest(6, 100)
	add(rowsOf(6, wide.Set, wide))
	return seeds
}

// FuzzDecodeBucket checks the two spill-frame invariants: decoding
// arbitrary bytes never panics, and any payload that decodes is
// canonical — re-encoding the decoded rows reproduces it byte for
// byte.
func FuzzDecodeBucket(f *testing.F) {
	seeds := seedPayloads()
	for _, s := range seeds[:4] {
		f.Add(s)
	}
	f.Add([]byte{})
	f.Add([]byte{frameKindRows})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	for _, s := range seeds[4:] {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		rows, err := decodeBucket(nil, p)
		if err != nil {
			return
		}
		if rows.Len() == 0 {
			t.Fatal("decode succeeded with zero rows")
		}
		reenc := appendBucketFrame(nil, rows)
		if !bytes.Equal(reenc[storage.FrameHeader:], p) {
			t.Fatalf("decode ⇒ re-encode is not the identity:\n in: %x\nout: %x", p, reenc[storage.FrameHeader:])
		}
	})
}

// TestDecodeBucketRejects pins the structural validations.
func TestDecodeBucketRejects(t *testing.T) {
	valid := seedPayloads()[0]
	cases := map[string][]byte{
		"empty":      {},
		"short":      valid[:10],
		"wrong kind": append([]byte{1}, valid[1:]...),
		"trailing":   append(append([]byte{}, valid...), 0),
		"zero count": func() []byte { p := append([]byte{}, valid...); p[17], p[18] = 0, 0; return p }(),
		"huge count": func() []byte { p := append([]byte{}, valid...); p[17], p[18] = 0xff, 0xff; return p }(),
		"no stream":  func() []byte { p := append([]byte{}, valid...); clear(p[9:17]); return p }(),
		"wider set":  func() []byte { p := append([]byte{}, valid...); p[9] = 3; return p }(),
		"truncated":  valid[:len(valid)-1],
	}
	for name, p := range cases {
		if _, err := decodeBucket(nil, p); err == nil {
			t.Errorf("%s: decode accepted invalid payload", name)
		}
	}
}

// TestAppendBucketChunks verifies multi-frame encoding of large
// buckets — of narrow rows, chunked by count, and of maximal rows,
// chunked by bytes — decodes back to the full run, every frame within
// maxSpillPayload.
func TestAppendBucketChunks(t *testing.T) {
	narrow := tuple.Rows{Key: 5, Set: tuple.NewStreamSet(0)}
	for i := 0; i < 3*maxTuplesPerFrame/2; i++ {
		narrow.Data = tuple.AppendRow(narrow.Data, tuple.NewBase(0, uint64(i+1), 5, uint64(i+1)))
	}
	wide := tuple.Rows{Key: 5, Set: widest(5, 0).Set}
	for i := 0; i < 600; i++ {
		wide.Data = tuple.AppendRow(wide.Data, widest(5, uint64(i)))
	}
	for _, rows := range []tuple.Rows{narrow, wide} {
		buf := appendBucket(nil, rows)
		var got []uint64
		frames := 0
		for off := 0; off < len(buf); frames++ {
			payload, n, ok := storage.NextFrame(buf[off:], maxSpillPayload)
			if !ok {
				t.Fatalf("bad frame at %d", off)
			}
			if len(payload) > softFrameBytes+frameFixed {
				t.Fatalf("frame of %d bytes past the %d-byte chunk", len(payload), softFrameBytes)
			}
			dec, err := decodeBucket(got, payload)
			if err != nil {
				t.Fatal(err)
			}
			if dec.Key != 5 || dec.Set != rows.Set {
				t.Fatalf("frame header drifted: key=%d set=%v", dec.Key, dec.Set)
			}
			got = dec.Data
			off += n
		}
		if frames < 2 {
			t.Fatalf("expected chunking, got %d frame(s)", frames)
		}
		if !slices.Equal(got, rows.Data) {
			t.Fatalf("%v: decoded %d words, want the %d encoded, in order", rows.Set, len(got), len(rows.Data))
		}
	}
}
