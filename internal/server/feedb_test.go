package server

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// referenceFeedBatch is the FEEDB reading parseFeedBatch must agree
// with: the line split by strings.Fields, every key read by
// strconv.ParseInt.
func referenceFeedBatch(rest string) ([]workload.Event, error) {
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return nil, fmt.Errorf("FEEDB wants [query] <stream> <key> [<key>...]")
	}
	stream, err := parseStream(fields[0])
	if err != nil {
		return nil, err
	}
	evs := make([]workload.Event, len(fields)-1)
	for i, f := range fields[1:] {
		key, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad key %q", f)
		}
		evs[i] = workload.Event{Stream: stream, Key: tuple.Value(key)}
	}
	return evs, nil
}

// FuzzParseFeedBatch: the in-place FEEDB parser accepts and rejects
// what the split-then-parse reading does, with the same events and the
// same error text. The seeds cover the ways the two could part: ASCII
// and Unicode spaces, signs, leading zeros, keys of 18 to 20 digits,
// overflow, invalid UTF-8 and digits that are not ASCII.
func FuzzParseFeedBatch(f *testing.F) {
	for _, seed := range []string{
		"0 1 2 3",
		"\t0\t1  2\v3\f4\r5\n",
		"  2   7   ",
		"0 +1 -2 007 -0 +0 000",
		"0 123456789012345678 999999999999999999 1234567890123456789",
		"0 9223372036854775807 -9223372036854775808",
		"0 9223372036854775808",
		"0 -9223372036854775809",
		"0 99999999999999999999 1",
		"0 1 2　3\u00854",
		"0 1​2",
		"0 1\xff2",
		"0 1\xc2",
		"0 \xc2\xa0",
		"0 ١٢",
		"0 1_000 0x10 1e3",
		"0 + -",
		"", " ", "0", "x", "x 1", "64 1", "-1 1", "+1 1", "01 1", "0 1 x",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		got, gotErr := parseFeedBatch(nil, line)
		want, wantErr := referenceFeedBatch(line)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("parseFeedBatch(%q) error %v, the reference's %v", line, gotErr, wantErr)
		}
		if gotErr == nil && !slices.Equal(got, want) {
			t.Fatalf("parseFeedBatch(%q) = %v, the reference's %v", line, got, want)
		}
	})
}

// feedBatchLine is a FEEDB payload of n keys on one stream, of mixed
// lengths.
func feedBatchLine(n int) string {
	b := []byte("3")
	for i := range n {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(i)*7919, 10)
	}
	return string(b)
}

// TestParseFeedBatchAllocs: parsing a 256-key FEEDB line into a batch
// slice with room for it allocates nothing.
func TestParseFeedBatchAllocs(t *testing.T) {
	line := feedBatchLine(256)
	evs := make([]workload.Event, 0, 256)
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		evs, err = parseFeedBatch(evs, line)
	})
	if err != nil || len(evs) != 256 || evs[255] != (workload.Event{Stream: 3, Key: 255 * 7919}) {
		t.Fatalf("parsed %d events (last %v), err %v", len(evs), evs[len(evs)-1], err)
	}
	if allocs != 0 {
		t.Errorf("%.1f allocations per 256-key line, want 0", allocs)
	}
}

// TestNamedFeedBatchAllocs: a FEEDB addressed to a named query costs
// what the default query's does — the name is cut off and the rest
// reaches the parser untouched, with no field slice and no copy of the
// line — so resolving the name and parsing 256 keys allocate nothing.
func TestNamedFeedBatchAllocs(t *testing.T) {
	s := &Server{queries: map[string]*query{"orders": {name: "orders"}}}
	payload := " \t" + feedBatchLine(256)
	line := "orders" + payload
	evs := make([]workload.Event, 0, 256)
	var (
		q    *query
		rest string
		err  error
	)
	allocs := testing.AllocsPerRun(100, func() {
		if q, rest, err = s.splitQuery(line); err == nil {
			evs, err = parseFeedBatch(evs, rest)
		}
	})
	if err != nil || q.name != "orders" || rest != payload || len(evs) != 256 {
		t.Fatalf("query %v, rest %q, %d events, err %v", q, rest, len(evs), err)
	}
	if allocs != 0 {
		t.Errorf("%.1f allocations per named 256-key line, want 0", allocs)
	}
}

// inPlaceStrconv is parseFeedBatch without its plain-decimal fast
// path: the line split in place, every key read by strconv.ParseInt.
// It is what BenchmarkParseFeedBatch weighs plainDecimal against.
func inPlaceStrconv(evs []workload.Event, rest string) ([]workload.Event, error) {
	evs = evs[:0]
	first, rest := nextField(rest)
	f, rest := nextField(rest)
	if f == "" {
		return evs, fmt.Errorf("FEEDB wants [query] <stream> <key> [<key>...]")
	}
	stream, err := parseStream(first)
	if err != nil {
		return evs, err
	}
	for ; f != ""; f, rest = nextField(rest) {
		key, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return evs, fmt.Errorf("bad key %q", f)
		}
		evs = append(evs, workload.Event{Stream: stream, Key: tuple.Value(key)})
	}
	return evs, nil
}

// BenchmarkParseFeedBatch parses a 128-key FEEDB line — the longest
// line a 256-tuple batch over two streams sends — in place, in place
// with every key read by strconv, and by the split-then-parse
// reference: the first gap is the digit fast path's, the second the
// in-place split's.
func BenchmarkParseFeedBatch(b *testing.B) {
	line := feedBatchLine(128)
	for _, c := range []struct {
		name  string
		parse func([]workload.Event, string) ([]workload.Event, error)
	}{{"in-place", parseFeedBatch}, {"in-place-strconv", inPlaceStrconv}} {
		b.Run(c.name, func(b *testing.B) {
			evs := make([]workload.Event, 0, 128)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				evs, _ = c.parse(evs, line)
			}
		})
	}
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			referenceFeedBatch(line)
		}
	})
}
