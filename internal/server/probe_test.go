package server

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// probeCase builds a probe over the streams of probeSet and a run of
// nrows rows over rowSet (disjoint), their seqs spread over every digit
// count and, rows apart, over seqs that share a fragment slot.
func probeCase(key tuple.Value, probeSet, rowSet tuple.StreamSet, nrows int) (*tuple.Tuple, tuple.Rows) {
	seq := func(stream tuple.StreamID, r int) uint64 {
		switch r % 4 {
		case 0:
			return uint64(r)
		case 1:
			return uint64(r)*fragSlots + uint64(stream)
		case 2:
			return 1<<64 - 1 - uint64(r)
		}
		return uint64(r)*1_000_003 + uint64(stream)
	}
	t := &tuple.Tuple{Key: key, Set: probeSet}
	for _, id := range probeSet.Streams() {
		t.Seqs = append(t.Seqs, seq(id, 7))
	}
	rows := tuple.Rows{Key: key, Set: rowSet}
	for r := range nrows {
		row := tuple.Tuple{Set: rowSet, Arrival: uint64(r)}
		for _, id := range rowSet.Streams() {
			row.Seqs = append(row.Seqs, seq(id, r))
		}
		rows.Data = tuple.AppendRow(rows.Data, &row)
	}
	return t, rows
}

// probeReference is the lines a probe must encode to: per row, "RESULT
// <key> " + the composite's AppendFingerprint + "\n", the composite
// built by tuple.Join — nothing shared with the encoder but the
// fingerprint.
func probeReference(retract bool, t *tuple.Tuple, rows tuple.Rows) []byte {
	verb := "RESULT"
	if retract {
		verb = "RETRACT"
	}
	var want []byte
	var v tuple.Tuple
	for i := range rows.Len() {
		c := tuple.Join(t, rows.View(i, &v))
		want = fmt.Appendf(want, "%s %d ", verb, c.Key)
		want = append(c.AppendFingerprint(want), '\n')
	}
	return want
}

// TestProbeLinesMatchFingerprint: for every split of a 1–6-stream
// composite into the probing tuple's streams and the rows' — either
// side may be empty — and runs of 1, 2 and 400 rows, the probe encoder
// writes exactly the reference lines, after bytes already in the
// buffer. One egress encodes every case, so its fragment tables and
// prefix are warm from the cases before, and seqs a table apart
// collide in their slots.
func TestProbeLinesMatchFingerprint(t *testing.T) {
	dense := []tuple.StreamID{0, 1, 2, 3, 4, 5}
	sparse := []tuple.StreamID{2, 9, 17, 33, 50, 63}
	e := &egress{}
	for range 2 { // cold tables, then warm
		for _, ids := range [][]tuple.StreamID{dense, sparse} {
			for n := 1; n <= len(ids); n++ {
				for mask := 0; mask < 1<<n; mask++ {
					var probeSet, rowSet tuple.StreamSet
					for k, id := range ids[:n] {
						if mask&(1<<k) != 0 {
							probeSet = probeSet.Add(id)
						} else {
							rowSet = rowSet.Add(id)
						}
					}
					for _, nrows := range []int{1, 2, 400} {
						key := tuple.Value(mask - n*nrows)
						retract := mask%5 == 4
						tp, rows := probeCase(key, probeSet, rowSet, nrows)
						const before = "RESULT 1 0#1\n"
						got, lines := e.appendProbe([]byte(before), retract, tp, rows)
						if lines != nrows {
							t.Fatalf("%d lines reported for %d rows", lines, nrows)
						}
						want := append([]byte(before), probeReference(retract, tp, rows)...)
						if !bytes.Equal(got, want) {
							t.Fatalf("probe %v × %d rows over %v:\n got %q\nwant %q", probeSet, nrows, rowSet, got, want)
						}
					}
				}
			}
		}
	}
}

// FuzzProbeEncode checks the probe encoder against the reference on
// arbitrary stream splits, seqs, keys and run lengths; half the seqs
// are drawn a few table sizes apart, so that they collide in their
// slots.
func FuzzProbeEncode(f *testing.F) {
	f.Add(int64(7), uint64(1), uint64(6), uint64(1), uint8(3), false)
	f.Add(int64(-1), uint64(0), uint64(1<<63|1), uint64(99), uint8(1), true)
	f.Add(int64(0), uint64(0xF0F0), uint64(0x0F0F), uint64(1<<40), uint8(40), false)
	f.Fuzz(func(t *testing.T, key int64, probeMask, rowMask, seed uint64, nrows uint8, retract bool) {
		rowMask &^= probeMask
		next := func() uint64 { // splitmix64
			seed += 0x9e3779b97f4a7c15
			z := seed
			z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
			z = (z ^ z>>27) * 0x94d049bb133111eb
			return z ^ z>>31
		}
		seqOf := func() uint64 {
			if next()%2 == 0 {
				return next()%4*fragSlots + next()%4
			}
			return next() >> (next() % 64)
		}
		tp := &tuple.Tuple{Key: tuple.Value(key), Set: tuple.StreamSet(probeMask)}
		for range tp.Set.Count() {
			tp.Seqs = append(tp.Seqs, seqOf())
		}
		rows := tuple.Rows{Key: tp.Key, Set: tuple.StreamSet(rowMask)}
		for range int(nrows % 32) {
			row := tuple.Tuple{Set: rows.Set}
			for range rows.Set.Count() {
				row.Seqs = append(row.Seqs, seqOf())
			}
			rows.Data = tuple.AppendRow(rows.Data, &row)
		}
		e := &egress{}
		for range 2 { // cold tables, then warm
			got, _ := e.appendProbe(nil, retract, tp, rows)
			if want := probeReference(retract, tp, rows); !bytes.Equal(got, want) {
				t.Fatalf("got %q\nwant %q", got, want)
			}
		}
	})
}

// hotProbe is one probe of the migrate-hotkey shape: a stream-2 arrival
// against the 400 composites of 20 × 20 hot stream-0 and stream-1
// tuples.
func hotProbe() (*tuple.Tuple, tuple.Rows) {
	tp := &tuple.Tuple{Key: 7, Set: tuple.NewStreamSet(2), Seqs: []uint64{1_234_567}}
	rows := tuple.Rows{Key: 7, Set: tuple.NewStreamSet(0, 1)}
	for i := range 20 {
		for j := range 20 {
			row := tuple.Tuple{Set: rows.Set, Seqs: []uint64{uint64(100_000 + i), uint64(200_000 + j)}}
			rows.Data = tuple.AppendRow(rows.Data, &row)
		}
	}
	return tp, rows
}

// TestProbeEgressAllocs: once the buffers have grown, a 400-row
// hot-key probe encoded, handed to a subscriber and taken for writing
// allocates nothing.
func TestProbeEgressAllocs(t *testing.T) {
	q := egressQuery(t, 1, 1<<20)
	_, su := q.subscribe()
	e := &egress{q: q}
	tp, rows := hotProbe()
	var chunk []byte
	probe := func() {
		e.encode(false, tp, rows)
		e.flush()
		chunk, _ = su.take(chunk)
	}
	probe()
	probe() // every buffer in the rotation has now held a probe
	if allocs := testing.AllocsPerRun(50, probe); allocs != 0 {
		t.Fatalf("%v allocations per 400-row probe, want 0", allocs)
	}
	if want := probeReference(false, tp, rows); !bytes.Equal(chunk, want) {
		t.Fatalf("took %d bytes, want the %d of the reference", len(chunk), len(want))
	}
}

// TestEgressHandOffNeverSharesBytes runs the worker and the writers
// concurrently, as the server does, for the race detector: the worker
// encodes into the buffer a subscriber just gave back while that
// subscriber's writer reads the chunk it took, twice, as a socket write
// would. A buffer the worker reused while its bytes were still being
// written would read differently the second time (and race). One
// subscriber takes every chunk by swap; with three, two are copied to.
func TestEgressHandOffNeverSharesBytes(t *testing.T) {
	for _, nsubs := range []int{1, 3} {
		t.Run(fmt.Sprintf("subs=%d", nsubs), func(t *testing.T) {
			q := egressQuery(t, 1, 1<<30)
			e := &egress{q: q}
			tp, rows := hotProbe()
			var refs [2][]byte // a probe's lines, for either seq of the probing tuple
			for i := range refs {
				tp.Seqs[0] = uint64(i)
				refs[i] = probeReference(false, tp, rows)
			}
			size := len(refs[0])
			var wg sync.WaitGroup
			for range nsubs {
				_, su := q.subscribe()
				wg.Add(1)
				go func() {
					defer wg.Done()
					var chunk, copied []byte
					for {
						var ok bool
						if chunk, ok = su.take(chunk); !ok {
							return
						}
						copied = append(copied[:0], chunk...)
						runtime.Gosched() // the socket write's time
						if !bytes.Equal(copied, chunk) {
							t.Errorf("a chunk changed while it was being written")
							return
						}
						if len(chunk)%size != 0 {
							t.Errorf("took %d bytes, not whole probes of %d", len(chunk), size)
							return
						}
						for at := 0; at < len(chunk); at += size {
							if p := chunk[at : at+size]; !bytes.Equal(p, refs[0]) && !bytes.Equal(p, refs[1]) {
								t.Errorf("probe at byte %d reads %q", at, p[:min(len(p), 80)])
								return
							}
						}
					}
				}()
			}
			for i := range 2000 {
				tp.Seqs[0] = uint64(i % 2)
				e.encode(false, tp, rows)
				if i%3 == 2 {
					e.flush()
				}
			}
			e.flush()
			q.mu.Lock()
			for id := range q.subs {
				q.remove(id)
			}
			q.mu.Unlock()
			wg.Wait()
		})
	}
}

// BenchmarkRootProbeEgress is the result path from the root's probe to
// the subscriber's take, on the migrate-hotkey shape — a stream-2
// arrival against a 20 × 20 hot bucket, 400 results per probe — and on
// a one-match shape (1 × 1), through an engine whose root hands the
// egress the whole probe ("probe", the egress as the engine's Sink) and
// through one that hands it each result built ("per-result": the Output
// adapter, then one encode per result). Reported per result.
func BenchmarkRootProbeEgress(b *testing.B) {
	for _, side := range []int{20, 1} {
		for _, perProbe := range []bool{true, false} {
			name := "per-result"
			if perProbe {
				name = "probe"
			}
			b.Run(fmt.Sprintf("side=%d/%s", side, name), func(b *testing.B) {
				q := egressQuery(b, 1, 1<<30)
				_, su := q.subscribe()
				cfg := engine.Config{
					Plan:        plan.MustLeftDeep(0, 1, 2),
					WindowSize:  side,
					WindowSizes: map[tuple.StreamID]int{2: 64},
				}
				e := &egress{q: q}
				cfg.Sink = e.encode
				if !perProbe {
					cfg.Sink, cfg.Output = nil, func(d engine.Delta) { e.encode(d.Retraction, d.Tuple, tuple.OneRow) }
				}
				eng := engine.MustNew(cfg)
				defer eng.Close()
				for range side {
					eng.Feed(workload.Event{Stream: 0, Key: 7})
					eng.Feed(workload.Event{Stream: 1, Key: 7})
				}
				probe := workload.Event{Stream: 2, Key: 7}
				var chunk []byte
				step := func() {
					eng.Feed(probe)
					e.flush()
					chunk, _ = su.take(chunk)
				}
				for range 128 { // past stream 2's window: every arrival evicts one
					step()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					step()
				}
				b.StopTimer()
				if got := bytes.Count(chunk, []byte{'\n'}); got != side*side {
					b.Fatalf("the last probe wrote %d lines, want %d", got, side*side)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*side*side), "ns/result")
			})
		}
	}
}
