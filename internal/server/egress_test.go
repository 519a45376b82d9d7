package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"jisc/internal/admission"
	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/runtime"
	"jisc/internal/testseed"
	"jisc/internal/tuple"
)

// egressQuery is a query whose subscribers are driven by the test
// itself rather than by connections.
func egressQuery(t testing.TB, shards, bufSize int) *query {
	t.Helper()
	q, err := newQuery("q", runtime.Config{
		Engine: engine.Config{Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 20, Strategy: core.New()},
		Shards: shards,
	}, bufSize, admission.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(q.close)
	return q
}

// composite builds a result tuple over the given refs (sorted, as the
// engine's are).
func composite(key tuple.Value, refs ...tuple.Ref) *tuple.Tuple {
	return &tuple.Tuple{Key: key, Refs: refs}
}

// wireLine is the reference for a result line: fmt over the delta's
// fields, sharing nothing with the encoder under test.
func wireLine(d engine.Delta) string {
	verb := "RESULT"
	if d.Retraction {
		verb = "RETRACT"
	}
	refs := make([]string, len(d.Tuple.Refs))
	for i, r := range d.Tuple.Refs {
		refs[i] = fmt.Sprintf("%d#%d", r.Stream, r.Seq)
	}
	return fmt.Sprintf("%s %d %s\n", verb, d.Tuple.Key, strings.Join(refs, "|"))
}

// TestResultLineGolden pins the wire format: one egress, with its
// fragment tables and its prefix warm from every line before, writes
// byte-for-byte the "%s %d %s\n" line the server used to Sprintf —
// across digit-count boundaries, two seqs that share a slot, all 64
// streams, negative and zero keys, retractions, and keys that
// alternate so the cached prefix is replaced on every line.
func TestResultLineGolden(t *testing.T) {
	var tuples []*tuple.Tuple
	for _, seq := range []uint64{0, 9, 10, 99, 100, 999, 1000, 1<<32 - 1, 1 << 32, 1<<64 - 1} {
		tuples = append(tuples, composite(tuple.Value(seq%7), tuple.Ref{Stream: 0, Seq: seq}))
	}
	// Seqs fragSlots apart land in one slot: each evicts the other, and
	// neither may ever be served the other's text.
	for _, seq := range []uint64{5, 5 + fragSlots, 5, 5 + 2*fragSlots, 5 + fragSlots, 0, fragSlots} {
		tuples = append(tuples, composite(1, tuple.Ref{Stream: 3, Seq: seq}, tuple.Ref{Stream: 4, Seq: seq}))
	}
	var all []tuple.Ref
	for s := 0; s < tuple.MaxStreams; s++ {
		all = append(all, tuple.Ref{Stream: tuple.StreamID(s), Seq: uint64(s) * 1_000_003})
	}
	for n := 1; n <= len(all); n += 9 {
		tuples = append(tuples, composite(tuple.Value(n), all[:n]...))
	}
	tuples = append(tuples,
		composite(0, tuple.Ref{Stream: 0, Seq: 0}),
		composite(-1, tuple.Ref{Stream: 0, Seq: 0}),
		composite(-9223372036854775808, tuple.Ref{Stream: 63, Seq: 18446744073709551615}),
		composite(9223372036854775807, tuple.Ref{Stream: 12, Seq: 1234567}, tuple.Ref{Stream: 13, Seq: 89}),
	)
	e := &egress{}
	check := func(d engine.Delta) {
		t.Helper()
		want := wireLine(d)
		if got := string(e.appendLine(nil, d)); got != want {
			t.Errorf("line = %q, want %q", got, want)
		}
		const before = "RESULT 1 0#1\n"
		if got := string(e.appendLine([]byte(before), d)); got != before+want {
			t.Errorf("appended = %q, want %q", got, before+want)
		}
		if fp := d.Tuple.Fingerprint(); !strings.HasSuffix(want, " "+fp+"\n") {
			t.Errorf("Fingerprint() = %q, not the tail of %q", fp, want)
		}
	}
	for _, tp := range tuples {
		check(engine.Delta{Tuple: tp})
		check(engine.Delta{Tuple: tp, Retraction: true})
	}
	// Interleaved keys and verbs: the prefix is rebuilt each time, from
	// longer to shorter and back.
	a, b := composite(-123456, tuple.Ref{Stream: 1, Seq: 7}), composite(8, tuple.Ref{Stream: 1, Seq: 7})
	for i := 0; i < 6; i++ {
		check(engine.Delta{Tuple: a, Retraction: i%3 == 0})
		check(engine.Delta{Tuple: b})
	}
}

// TestResultLineRandomRefs: a million random refs through one egress —
// most of them colliding with an earlier one in the fragment table —
// and through Ref.AppendText, against strconv.
func TestResultLineRandomRefs(t *testing.T) {
	e := &egress{}
	var line, want, ref []byte
	n := 0
	check := func(stream uint8, seq uint64, key int64, small bool) bool {
		if small {
			seq %= 3 * fragSlots // revisit slots: hits, and misses on a full slot
		}
		r := tuple.Ref{Stream: tuple.StreamID(stream % tuple.MaxStreams), Seq: seq}
		ref = strconv.AppendUint(append(strconv.AppendUint(ref[:0], uint64(r.Stream), 10), '#'), r.Seq, 10)
		want = append(strconv.AppendInt(append(want[:0], "RESULT "...), key, 10), ' ')
		want = append(append(want, ref...), '\n')
		line = e.appendLine(line[:0], engine.Delta{Tuple: &tuple.Tuple{Key: tuple.Value(key), Refs: []tuple.Ref{r}}})
		n++
		return bytes.Equal(line, want) && bytes.Equal(r.AppendText(nil), ref)
	}
	if err := quick.Check(check, testseed.Quick(t, 19, 1_000_000)); err != nil {
		t.Fatal(err)
	}
	if n < 1_000_000 {
		t.Fatalf("checked %d refs", n)
	}
}

// TestEgressSteadyStateAllocs: once the buffers have grown, encoding a
// batch of results, handing it to a subscriber and taking it for
// writing allocates nothing.
func TestEgressSteadyStateAllocs(t *testing.T) {
	q := egressQuery(t, 1, 1<<20)
	_, su := q.subscribe()
	e := &egress{q: q}
	d := engine.Delta{Tuple: composite(7, tuple.Ref{Stream: 0, Seq: 123456}, tuple.Ref{Stream: 1, Seq: 7}, tuple.Ref{Stream: 2, Seq: 99})}
	const perBatch = 4096 // several chunkBytes hand-offs per batch
	var chunk []byte
	batch := func() {
		for i := 0; i < perBatch; i++ {
			e.emit(d)
		}
		e.flush()
		chunk, _ = su.take(chunk)
	}
	batch()
	batch() // both of the subscriber's buffers have now held a batch
	if allocs := testing.AllocsPerRun(20, batch); allocs != 0 {
		t.Fatalf("%v allocations per %d-result batch, want 0", allocs, perBatch)
	}
	if want := perBatch * len(wireLine(d)); len(chunk) != want {
		t.Fatalf("took %d bytes, want %d", len(chunk), want)
	}
}

// TestEgressNoSubscriberEncodesNothing: without a subscriber the chunk
// stays empty (while the engine still counts its output), and a
// subscriber that arrives later starts at a line boundary.
func TestEgressNoSubscriberEncodesNothing(t *testing.T) {
	q := egressQuery(t, 1, 1024)
	e := &egress{q: q}
	d := engine.Delta{Tuple: composite(7, tuple.Ref{Stream: 0, Seq: 1})}
	e.emit(d)
	if len(e.buf) != 0 {
		t.Fatalf("encoded %q with no subscriber", e.buf)
	}
	_, su := q.subscribe()
	e.emit(d)
	e.flush()
	if chunk, ok := su.take(nil); !ok || string(chunk) != "RESULT 7 0#1\n" {
		t.Fatalf("late subscriber took %q, %v", chunk, ok)
	}
}

// TestBigBatchKeepsHealthySubscriber: the bound counts lines a
// subscriber is behind when a hand-off arrives, not lines per
// hand-off — one batch emitting more than SubscriberBuffer results does
// not drop a subscriber that has kept up.
func TestBigBatchKeepsHealthySubscriber(t *testing.T) {
	noLeak(t)
	s, err := New(Config{Pipeline: runtime.Config{Engine: engine.Config{
		Plan: plan.MustLeftDeep(0, 1), WindowSize: 2000, Strategy: core.New(),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	sub := dial(t, s)
	if resp := sub.cmd(t, "SUBSCRIBE"); resp != "OK" {
		t.Fatalf("subscribe: %s", resp)
	}
	feeder := dial(t, s)
	const fanout = 1500 // > the default 1024-line buffer, < one chunk
	keys := strings.Repeat(" 7", fanout)
	if resp := feeder.cmd(t, "FEEDB 0"+keys); resp != "OK" {
		t.Fatalf("feedb: %s", resp)
	}
	if resp := feeder.cmd(t, "FEED 1 7"); resp != "OK" {
		t.Fatalf("feed: %s", resp)
	}
	sub.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for i := 0; i < fanout; i++ {
		line, err := sub.r.ReadString('\n')
		if err != nil {
			t.Fatalf("result %d of %d: %v", i, fanout, err)
		}
		if want := fmt.Sprintf("RESULT 7 0#%d|1#1\n", i+1); line != want {
			t.Fatalf("result %d = %q, want %q", i, line, want)
		}
	}
	if dropped := statUint(t, feeder.cmd(t, "STATS"), "subs_dropped"); dropped != 0 {
		t.Fatalf("subs_dropped = %d, want 0", dropped)
	}
}

// pendingLines reads how many lines su holds handed off and untaken.
func pendingLines(su *subscriber) int {
	su.mu.Lock()
	defer su.mu.Unlock()
	return su.lines
}

// TestEgressBarrier: when Flush or Migrate returns, every result of the
// feeds before it has been handed to the subscribers — none is left in
// a shard's chunk.
func TestEgressBarrier(t *testing.T) {
	q := egressQuery(t, 2, 1<<20)
	_, su := q.subscribe()
	evs := batchEvents(600)
	for i := 0; i < 300; i += 100 {
		if err := q.runner.FeedBatch(evs[i : i+100]); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.runner.Flush(); err != nil {
		t.Fatal(err)
	}
	// Flush answers after the feeds before it, so the live counters are
	// final for them.
	flushed := q.runner.Snapshot().Output
	if flushed == 0 || uint64(pendingLines(su)) != flushed {
		t.Fatalf("after Flush: %d lines handed off, %d results emitted", pendingLines(su), flushed)
	}
	for _, ev := range evs[300:] { // the per-tuple path ends its batches too
		if err := q.runner.Feed(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.runner.Migrate(plan.MustLeftDeep(2, 0, 1)); err != nil {
		t.Fatal(err)
	}
	migrated := q.runner.Snapshot().Output
	if migrated <= flushed || uint64(pendingLines(su)) != migrated {
		t.Fatalf("after Migrate: %d lines handed off, %d results emitted", pendingLines(su), migrated)
	}
}

// TestShardedFanout: two shards fan out to three subscribers, one of
// which disconnects mid-stream. The two that stay receive only whole
// lines, the same ones, and each shard's lines in the order that shard
// emitted them.
func TestShardedFanout(t *testing.T) {
	noLeak(t)
	const shards = 2
	pcfg := runtime.Config{
		Engine: engine.Config{Plan: plan.MustLeftDeep(0, 1, 2), WindowSize: 20, Strategy: core.New()},
		Shards: shards,
	}
	evs := batchEvents(3000)
	const batch = 100

	// The reference: the same batches through a bare runtime, each
	// shard's result lines in emission order.
	want := make([][]string, shards)
	rcfg := pcfg
	rcfg.ShardOutput = func(i int) (engine.Output, func()) {
		return func(d engine.Delta) { want[i] = append(want[i], wireLine(d)) }, nil
	}
	ref, err := runtime.New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(evs); i += batch {
		if err := ref.FeedBatch(evs[i : i+batch]); err != nil {
			t.Fatal(err)
		}
	}
	ref.Close() // drains; the workers' appends happen before it returns
	total := len(want[0]) + len(want[1])
	if len(want[0]) == 0 || len(want[1]) == 0 {
		t.Fatalf("reference emitted %d + %d lines; want both shards busy", len(want[0]), len(want[1]))
	}

	s, err := New(Config{Pipeline: pcfg, SubscriberBuffer: total})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	// Subscribers 0 and 1 read to the end; subscriber 2 hangs up after a
	// few lines, with results still being written to it.
	got := make([][][]string, 2)
	var wg sync.WaitGroup
	for i := range got {
		c := dial(t, s)
		if resp := c.cmd(t, "SUBSCRIBE"); resp != "OK" {
			t.Fatalf("subscribe: %s", resp)
		}
		got[i] = make([][]string, shards)
		wg.Add(1)
		go func(c *client, byShard [][]string) {
			defer wg.Done()
			c.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
			for n := 0; n < total; n++ {
				line, err := c.r.ReadString('\n')
				if err != nil {
					t.Errorf("line %d of %d: %v", n, total, err)
					return
				}
				var key int64
				if _, err := fmt.Sscanf(line, "RESULT %d ", &key); err != nil {
					t.Errorf("torn line %q", line)
					return
				}
				sh := runtime.ShardOf(tuple.Value(key), shards)
				byShard[sh] = append(byShard[sh], line)
			}
		}(c, got[i])
	}
	quitter, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(quitter, "SUBSCRIBE\n")
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer quitter.Close()
		r := bufio.NewReader(quitter)
		for n := 0; n < 50; n++ {
			if _, err := r.ReadString('\n'); err != nil {
				t.Errorf("quitter: %v", err)
				return
			}
		}
	}()

	fc, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	for s.Subscribers(DefaultQuery) != 3 {
		time.Sleep(time.Millisecond) // the quitter's SUBSCRIBE is not acknowledged to us
	}
	for i := 0; i < len(evs); i += batch {
		if err := fc.FeedBatch(evs[i : i+batch]); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, byShard := range got {
		for sh := range byShard {
			if len(byShard[sh]) != len(want[sh]) {
				t.Fatalf("subscriber %d, shard %d: %d lines, want %d", i, sh, len(byShard[sh]), len(want[sh]))
			}
			for n, line := range byShard[sh] {
				if line != want[sh][n] {
					t.Fatalf("subscriber %d, shard %d, line %d = %q, want %q", i, sh, n, line, want[sh][n])
				}
			}
		}
	}
}

// BenchmarkBroadcast measures the egress path per result — encode,
// hand-off per 256-result batch, and the writer's take — at one and
// three subscribers.
func BenchmarkBroadcast(b *testing.B) {
	for _, nsubs := range []int{1, 3} {
		b.Run(fmt.Sprintf("subs=%d", nsubs), func(b *testing.B) {
			q := egressQuery(b, 1, 1<<20)
			var wg sync.WaitGroup
			for i := 0; i < nsubs; i++ {
				_, su := q.subscribe()
				wg.Add(1)
				go func() {
					defer wg.Done()
					var chunk []byte
					for ok := true; ok; chunk, ok = su.take(chunk) {
					}
				}()
			}
			e := &egress{q: q}
			d := engine.Delta{Tuple: composite(7, tuple.Ref{Stream: 0, Seq: 123456}, tuple.Ref{Stream: 1, Seq: 7}, tuple.Ref{Stream: 2, Seq: 99})}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.emit(d)
				if i%256 == 255 {
					e.flush()
				}
			}
			e.flush()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "results/s")
			q.mu.Lock()
			for id := range q.subs {
				q.remove(id)
			}
			q.mu.Unlock()
			wg.Wait()
		})
	}
}

// BenchmarkAppendFingerprintEgress is the wire encoder alone on a 3-ref
// result, per line: "cached" re-encodes one result, so every fragment
// and the prefix come from the tables (the hot-key case, where a base
// tuple recurs in result after result); "uncached" moves every seq by
// fragSlots+1 within six digits and flips the key each line, so every
// fragment and the prefix are encoded afresh.
func BenchmarkAppendFingerprintEgress(b *testing.B) {
	for _, cached := range []bool{true, false} {
		name := "uncached"
		if cached {
			name = "cached"
		}
		b.Run(name, func(b *testing.B) {
			e := &egress{}
			refs := []tuple.Ref{{Stream: 0, Seq: 123456}, {Stream: 1, Seq: 7}, {Stream: 2, Seq: 99}}
			d := engine.Delta{Tuple: &tuple.Tuple{Key: 7, Refs: refs}}
			buf := e.appendLine(make([]byte, 0, 128), d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !cached {
					for j := range refs {
						refs[j].Seq = 100_000 + (refs[j].Seq+fragSlots+1)%900_000
					}
					d.Tuple.Key ^= 1
				}
				buf = e.appendLine(buf[:0], d)
			}
			fingerprintSink = buf
		})
	}
}

var fingerprintSink []byte
