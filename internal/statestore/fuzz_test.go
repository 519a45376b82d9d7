package statestore

import (
	"bytes"
	"testing"

	"jisc/internal/storage"
	"jisc/internal/tuple"
)

// seedPayloads returns canonical bucket payloads (frame headers
// stripped) covering the encoder's shapes: single tuple, multi-tuple,
// multi-ref composites, a bucket of composites.
func seedPayloads() [][]byte {
	var seeds [][]byte
	add := func(key tuple.Value, set tuple.StreamSet, tuples []*tuple.Tuple) {
		framed := appendBucketFrame(nil, key, set, tuples)
		seeds = append(seeds, framed[storage.FrameHeader:])
	}
	add(7, tuple.NewStreamSet(0), []*tuple.Tuple{tuple.NewBase(0, 1, 7, 10)})
	add(-3, tuple.NewStreamSet(2), []*tuple.Tuple{
		tuple.NewBase(2, 5, -3, 50),
		tuple.NewBase(2, 9, -3, 90),
	})
	comp := tuple.Join(tuple.NewBase(0, 1, 4, 1), tuple.NewBase(1, 2, 4, 2))
	add(4, comp.Set, []*tuple.Tuple{comp})
	three := tuple.Join(comp, tuple.NewBase(3, 11, 4, 11))
	add(4, three.Set, []*tuple.Tuple{three, tuple.Join(comp, tuple.NewBase(3, 12, 4, 12))})
	return seeds
}

// FuzzDecodeBucket checks the two spill-frame invariants: decoding
// arbitrary bytes never panics, and any payload that decodes is
// canonical — re-encoding the decoded bucket reproduces it byte for
// byte.
func FuzzDecodeBucket(f *testing.F) {
	for _, s := range seedPayloads() {
		f.Add(s)
	}
	f.Add([]byte{})
	f.Add([]byte{frameKindBucket})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, p []byte) {
		key, set, tuples, err := decodeBucket(p)
		if err != nil {
			return
		}
		if len(tuples) == 0 {
			t.Fatal("decode succeeded with zero tuples")
		}
		reenc := appendBucketFrame(nil, key, set, tuples)
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
		"wrong kind": append([]byte{2}, valid[1:]...),
		"trailing":   append(append([]byte{}, valid...), 0),
		"zero count": func() []byte { p := append([]byte{}, valid...); p[17], p[18] = 0, 0; return p }(),
		"huge count": func() []byte { p := append([]byte{}, valid...); p[17], p[18] = 0xff, 0xff; return p }(),
		"zero nrefs": func() []byte { p := append([]byte{}, valid...); p[frameFixed+16] = 0; return p }(),
		"truncated":  valid[:len(valid)-1],
	}
	for name, p := range cases {
		if _, _, _, err := decodeBucket(p); err == nil {
			t.Errorf("%s: decode accepted invalid payload", name)
		}
	}
}

// TestAppendBucketChunks verifies multi-frame encoding of large
// buckets decodes back to the full tuple set.
func TestAppendBucketChunks(t *testing.T) {
	var tuples []*tuple.Tuple
	for i := 0; i < 3*maxTuplesPerFrame/2; i++ {
		tuples = append(tuples, tuple.NewBase(0, uint64(i+1), 5, uint64(i+1)))
	}
	buf := appendBucket(nil, 5, tuple.NewStreamSet(0), tuples)
	var got []*tuple.Tuple
	off := 0
	frames := 0
	for off < len(buf) {
		payload, n, ok := storage.NextFrame(buf[off:], maxSpillPayload)
		if !ok {
			t.Fatalf("bad frame at %d", off)
		}
		key, set, ts, err := decodeBucket(payload)
		if err != nil {
			t.Fatal(err)
		}
		if key != 5 || set != tuple.NewStreamSet(0) {
			t.Fatalf("frame header drifted: key=%d set=%v", key, set)
		}
		got = append(got, ts...)
		off += n
		frames++
	}
	if frames < 2 {
		t.Fatalf("expected chunking, got %d frame(s)", frames)
	}
	if len(got) != len(tuples) {
		t.Fatalf("decoded %d tuples, want %d", len(got), len(tuples))
	}
	for i := range got {
		if got[i].Refs[0].Seq != tuples[i].Refs[0].Seq {
			t.Fatalf("tuple %d reordered", i)
		}
	}
}
