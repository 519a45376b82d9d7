package statestore_test

import (
	"fmt"
	"maps"
	"math/bits"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/state"
	"jisc/internal/statestore"
	"jisc/internal/storage"
	"jisc/internal/testseed"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// spillHalfEvents is the benchmark's spill-half shape scaled down by
// ten: four streams round-robin, keys uniform over the window size.
func spillHalfEvents(n int) []workload.Event {
	evs := make([]workload.Event, n)
	rng := uint64(1)
	for i := range evs {
		rng = rng*6364136223846793005 + 1442695040888963407
		evs[i] = workload.Event{Stream: tuple.StreamID(i % 4), Key: tuple.Value(rng >> 33 % 400)}
	}
	return evs
}

// runSpillHalf feeds evs in 256-tuple batches with two migrations and
// returns the result multiset and the peak resident state bytes.
func runSpillHalf(t *testing.T, cfg engine.Config, evs []workload.Event) (map[string]int, int64, *engine.Engine) {
	t.Helper()
	out := make(map[string]int)
	cfg.Plan = plan.MustLeftDeep(0, 1, 2, 3)
	cfg.WindowSize = 400
	cfg.Strategy = core.New()
	cfg.Output = func(d engine.Delta) { out[d.Tuple.Fingerprint()]++ }
	e := engine.MustNew(cfg)
	t.Cleanup(e.Close)
	order := []tuple.StreamID{0, 1, 2, 3}
	var peak int64
	for i := 0; i < len(evs); i += 256 {
		if third := len(evs) / 3; i > 0 && i/third != (i-256)/third {
			order = append(order[1:], order[0])
			if err := e.Migrate(plan.MustLeftDeep(order...)); err != nil {
				t.Fatal(err)
			}
		}
		e.FeedBatch(evs[i:min(i+256, len(evs))])
		peak = max(peak, e.StateBytes())
	}
	return out, peak, e
}

// ioCounts is what the spill tier asked of the filesystem in one run.
type ioCounts struct {
	creates, opens, closes, reads, writes, written, readsUnderInsert int64
}

// TestSpillIOCounts is the count-based gate on the spill tier's I/O
// path — counts, not times, and they repeat exactly: the budgeted run
// is made twice and every store counter and filesystem count must be
// equal. (They used to differ by 0.1% run to run, three values on ten
// runs of commit 43950d7: a migration released its dead states in map
// order, and the order of releases decided the next victims. Engine.install
// releases in ascending stream-set order now.) Under half the working
// set the results are the unbounded engine's, and every store counter
// and filesystem count is asserted exactly: one read handle opened and
// closed per segment, one write per tail, no read under Insert, and
// faults 42% below the 47 668 the open-per-fault, fault-on-insert store
// (5c86cbe) counted here. The CLOCK hand walks the tables' slots and
// every touch sets the reference bit, which took faults from 27 672 to
// 27 476 and spills from 53 199 to 51 373 against a ring of buckets in
// admission order whose bits were kept only near the budget. Join state
// as rows charges a key its row bytes and one slot, not 64 B plus 16 B
// per ref per tuple: the working set, and with it the half budget, fell
// from 223 088 to 132 792 bytes, and faults read 27 868. A row without
// its oldest tick is one word narrower: the working set fell to 113 080
// bytes, faults read 27 924, spills 52 163, and filesystem reads fell
// from 14 915 to 11 097.
func TestSpillIOCounts(t *testing.T) {
	const n = 40_000
	evs := spillHalfEvents(n)
	want, working, _ := runSpillHalf(t, engine.Config{}, evs)

	budgeted := func() (map[string]int, statestore.Stats, ioCounts) {
		fs := &statestore.CountingFS{FS: storage.NewMemFS()}
		var readsUnderInsert int64
		fs.OnRead = func() {
			pcs := make([]uintptr, 32)
			frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
			for {
				f, more := frames.Next()
				if strings.HasSuffix(f.Function, "state.(*Table).Insert") {
					readsUnderInsert++
				}
				if !more {
					return
				}
			}
		}
		got, _, e := runSpillHalf(t, engine.Config{StateBudget: working / 2, SpillFS: fs}, evs)
		st, _ := e.SpillStats()
		e.Close()
		return got, st, ioCounts{
			fs.Creates.Load(), fs.Opens.Load(), fs.Closes.Load(),
			fs.Reads.Load(), fs.Writes.Load(), fs.Written.Load(), readsUnderInsert,
		}
	}
	got, st, io := budgeted()
	if _, st2, io2 := budgeted(); st2 != st || io2 != io {
		t.Errorf("the same input counted differently the second time:\n%+v %+v\n%+v %+v", st, io, st2, io2)
	}

	if len(got) != len(want) {
		t.Fatalf("%d distinct results under the budget, %d unbounded", len(got), len(want))
	}
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("result %s emitted %d times under the budget, %d unbounded", k, got[k], c)
		}
	}
	t.Logf("input %d, working set %d B: faults %d (%.3f/tuple) spills %d tombstones %d compactions %d; segments created %d, read handles %d opened %d closed, reads %d (%.3f/tuple), writes %d for %d bytes",
		n, working, st.Faults, float64(st.Faults)/n, st.Spills, st.Tombstones, st.Compactions, io.creates, io.opens, io.closes, io.reads, float64(io.reads)/n, io.writes, io.written)
	// Every store counter and every filesystem count is pinned exactly:
	// they follow from the byte accounting, the victim choice and the
	// segment format alone, so a refactor of the bookkeeping must not
	// move one of them.
	wantSt := statestore.Stats{
		ResidentBytes: 56_520, PeakResidentBytes: 57_416,
		SpilledBytes: 22_560, SpilledBuckets: 750,
		Segments: 1, SegmentBytes: 68_879, GarbageBytes: 24_543,
		Spills: 52_163, Faults: 27_924, FaultTuples: 57_080, Tombstones: 30_091,
		Compactions: 73, SpillErrors: 0,
	}
	if st != wantSt {
		t.Errorf("store counters\n got %+v\nwant %+v", st, wantSt)
	}
	wantIO := ioCounts{creates: 74, opens: 74, closes: 74, reads: 11_097, writes: 74, written: 4_852_806}
	if io != wantIO {
		t.Errorf("filesystem counts\n got %+v\nwant %+v", io, wantIO)
	}
}

// TestSpillHalfBudgetSpills is the gate on the spill tier's reach at
// the served spill-half workload's shape: four streams, windows and key
// domain of 4 000, a 1 MiB state budget, the benchmark's 20 000-tuple
// smoke input (78 batches of 256 splitmix64 keys from seed 11, fed
// one stream at a time, one rotation after batch 63). The working set
// peaks just above the budget, so a change that makes state denser can
// switch spilling off without any failure but this one: under the
// budget the run must still spill and fault, and emit the unbounded
// run's results.
func TestSpillHalfBudgetSpills(t *testing.T) {
	const budget = 1 << 20
	rng := uint64(workload.DeriveSeed(11, "spill-half"))
	keys := make([]tuple.Value, 78*256) // the smoke run's 78 batches
	for i := range keys {
		rng += 0x9E3779B97F4A7C15
		z := rng
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		hi, _ := bits.Mul64(z^z>>31, 4000)
		keys[i] = tuple.Value(hi)
	}
	run := func(budget int64) (map[string]int, int64, statestore.Stats) {
		out := map[string]int{}
		e := engine.MustNew(engine.Config{
			Plan: plan.MustLeftDeep(0, 1, 2, 3), WindowSize: 4000, Strategy: core.New(),
			StateBudget: budget, SpillFS: storage.NewMemFS(),
			Output: func(d engine.Delta) { out[d.Tuple.Fingerprint()]++ },
		})
		defer e.Close()
		var peak int64
		evs := make([]workload.Event, 64)
		for b := 0; b*256 < len(keys); b++ {
			if b == 64 {
				if err := e.Migrate(plan.MustLeftDeep(1, 2, 3, 0)); err != nil {
					t.Fatal(err)
				}
			}
			for s := range 4 {
				for i := range evs {
					evs[i] = workload.Event{Stream: tuple.StreamID(s), Key: keys[b*256+s*64+i]}
				}
				e.FeedBatch(evs)
				peak = max(peak, e.StateBytes())
			}
		}
		st, _ := e.SpillStats()
		return out, peak, st
	}
	want, working, _ := run(0)
	got, _, st := run(budget)
	t.Logf("unbounded peak %d B against a %d B budget: spills %d, faults %d, compactions %d", working, budget, st.Spills, st.Faults, st.Compactions)
	if st.Spills == 0 || st.Faults == 0 {
		t.Fatalf("the spill-half shape no longer spills and faults under %d B (unbounded peak %d B): %+v", budget, working, st)
	}
	if !maps.Equal(got, want) {
		t.Fatalf("%d distinct results under the budget, %d unbounded, or different counts", len(got), len(want))
	}
}

// tableOps drives a spilling table and an unbacked model table through
// the same random operations and compares them after every step.
type tableOps struct {
	t          *testing.T
	rng        *rand.Rand
	tbl, model *state.Table
	store      *statestore.Store
	// perTuple is the TupleBytes of every row the sequence inserts.
	perTuple   int64
	tombstones bool
	streams    []tuple.StreamID
	// window is the arrival-ordered content of a tombstone-mode table:
	// a scan state is only ever expired oldest first.
	window []*tuple.Tuple
	seq    uint64
}

func ordered(tuples []*tuple.Tuple) string {
	var b strings.Builder
	for _, tup := range tuples {
		b.WriteString(tup.Fingerprint())
		b.WriteByte(' ')
	}
	return b.String()
}

func sortedKeys(tb *state.Table) string {
	keys := tb.Keys(nil)
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return fmt.Sprint(keys)
}

// buckets renders every bucket through Each, which must visit a key's
// tuples in arrival order whichever tiers they sit in.
func buckets(tb *state.Table) string {
	by := make(map[tuple.Value][]*tuple.Tuple)
	tb.Each(func(tup *tuple.Tuple) bool {
		by[tup.Key] = append(by[tup.Key], tup.Clone())
		return true
	})
	keys := make([]tuple.Value, 0, len(by))
	for k := range by {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%d:[%s] ", k, ordered(by[k]))
	}
	return b.String()
}

func (o *tableOps) step(i int) {
	const keys = 6
	key := tuple.Value(o.rng.Intn(keys))
	var what string
	switch op := o.rng.Intn(100); {
	case op < 45:
		o.seq++
		tup := tuple.NewBase(o.streams[0], o.seq, key, o.seq)
		for _, s := range o.streams[1:] {
			tup = tuple.Join(tup, tuple.NewBase(s, uint64(1+o.rng.Intn(8)), key, o.seq))
		}
		what = fmt.Sprintf("Insert(%s)", tup.Fingerprint())
		o.tbl.Insert(tup)
		o.model.Insert(tup)
		o.window = append(o.window, tup)
	case op < 65:
		what = fmt.Sprintf("Probe(%d)", key)
		if got, want := ordered(tuples(o.tbl.Probe(key))), ordered(tuples(o.model.Probe(key))); got != want {
			o.t.Fatalf("step %d %s = %s, model %s", i, what, got, want)
		}
	case op < 85:
		ref := tuple.Ref{Stream: o.streams[o.rng.Intn(len(o.streams))], Seq: uint64(1 + o.rng.Intn(8))}
		if o.tombstones {
			if len(o.window) == 0 {
				return
			}
			key, ref = o.window[0].Key, o.window[0].First()
			o.window = o.window[1:]
		}
		what = fmt.Sprintf("RemoveRef(%d, %v)", key, ref)
		got, want := tuples(removeRows(o.tbl, key, ref)), tuples(removeRows(o.model, key, ref))
		// A scan table reports nothing for a ref it tombstoned.
		if !(o.tombstones && got == nil) && ordered(got) != ordered(want) {
			o.t.Fatalf("step %d %s removed %s, model %s", i, what, ordered(got), ordered(want))
		}
	case op < 93:
		what = fmt.Sprintf("RemoveKey(%d)", key)
		if got, want := ordered(tuples(o.tbl.RemoveKey(key))), ordered(tuples(o.model.RemoveKey(key))); got != want {
			o.t.Fatalf("step %d %s removed %s, model %s", i, what, got, want)
		}
		kept := o.window[:0]
		for _, tup := range o.window {
			if tup.Key != key {
				kept = append(kept, tup)
			}
		}
		o.window = kept
	case op < 99:
		what = "Each"
	default:
		what = "Clear"
		o.tbl.Clear()
		o.model.Clear()
		o.window = nil
	}
	if o.tbl.Size() != o.model.Size() || o.tbl.DistinctKeys() != o.model.DistinctKeys() || o.tbl.ContainsKey(key) != o.model.ContainsKey(key) {
		o.t.Fatalf("step %d %s: size %d keys %d contains(%d) %v, model %d %d %v", i, what,
			o.tbl.Size(), o.tbl.DistinctKeys(), key, o.tbl.ContainsKey(key), o.model.Size(), o.model.DistinctKeys(), o.model.ContainsKey(key))
	}
	// One record per spilled part: the table's count and the store's
	// accounting of the same rows agree, with a slot charged for each
	// key holding resident rows.
	slots := int64(0)
	for _, k := range o.tbl.Keys(nil) {
		if o.tbl.ResidentBucket(k).Len() > 0 {
			slots++
		}
	}
	if spilled := o.store.Stats().SpilledBytes; int64(o.tbl.Size())*o.perTuple+slots*state.SlotBytes != o.tbl.Bytes()+spilled {
		o.t.Fatalf("step %d %s: %d rows of %d bytes and %d resident slots, but %d bytes resident and %d spilled", i, what,
			o.tbl.Size(), o.perTuple, slots, o.tbl.Bytes(), spilled)
	}
	if got, want := sortedKeys(o.tbl), sortedKeys(o.model); got != want {
		o.t.Fatalf("step %d %s: keys %s, model %s", i, what, got, want)
	}
	if got, want := buckets(o.tbl), buckets(o.model); got != want {
		o.t.Fatalf("step %d %s: buckets\n%s\nmodel\n%s", i, what, got, want)
	}
}

// TestSplitKeyTableMatchesModel is the property behind write-only
// spills: whatever mix of resident parts, spilled spans, tombstones and
// compactions a key goes through, a table under a two-tuple budget
// answers every operation exactly as a table with no store does —
// sizes, key sets, bucket contents in arrival order, removed sets — on
// scan (tombstone-mode) and composite tables, on MemFS and on the real
// filesystem; and its size, in bytes (plus a slot per key with
// resident rows), is always its resident bytes plus the store's
// spilled bytes.
func TestSplitKeyTableMatchesModel(t *testing.T) {
	seed := testseed.Seed(t, 17)
	for _, realFS := range []bool{false, true} {
		for _, tombstones := range []bool{true, false} {
			t.Run(fmt.Sprintf("realfs=%v/tombstones=%v", realFS, tombstones), func(t *testing.T) {
				streams := []tuple.StreamID{3}
				if !tombstones {
					streams = []tuple.StreamID{3, 9}
				}
				set := tuple.NewStreamSet(streams...)
				opts := statestore.Options{
					Budget: 2 * (state.TupleBytes(set) + state.SlotBytes), Dir: "spill", FS: storage.NewMemFS(),
					SegmentBytes: 2 << 10, MinCompactBytes: 512,
				}
				if realFS {
					opts.Dir, opts.FS = t.TempDir()+"/spill", nil
				}
				store, err := statestore.Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer store.Close()
				o := &tableOps{t: t, rng: rand.New(rand.NewSource(seed)), tombstones: tombstones, streams: streams,
					tbl: state.NewTable(set), model: state.NewTable(set), store: store, perTuple: state.TupleBytes(set)}
				o.tbl.SetStore(store)
				for i := 0; i < 3000; i++ {
					o.step(i)
				}
				st := store.Stats()
				if st.Spills == 0 || st.Faults == 0 || st.Compactions == 0 || st.Segments == 0 || (tombstones && st.Tombstones == 0) {
					t.Fatalf("the sequence did not exercise the tier: %+v", st)
				}
				if st.SpillErrors != 0 {
					t.Fatalf("spill errors: %+v", st)
				}
			})
		}
	}
}

// BenchmarkSpillFault puts the per-fault constant on record: each
// iteration probes a different spilled bucket of the given size on the
// real filesystem — one positional read, the decode, and (the budget
// being one byte) the append that spills the bucket again, with the
// compactions the garbage brings amortized in.
func BenchmarkSpillFault(b *testing.B) {
	for _, size := range []int{1, 64} {
		b.Run(fmt.Sprintf("tuples=%d", size), func(b *testing.B) {
			store, err := statestore.Open(statestore.Options{Budget: 1, Dir: b.TempDir() + "/spill"})
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			tbl := state.NewTable(tuple.NewStreamSet(0))
			tbl.SetStore(store)
			seq := uint64(0)
			// The 2 000 filler buckets at the end (≈ 100 KiB) push every
			// probed bucket out of the tail and into the file.
			for key := 0; key < b.N+2000; key++ {
				for i := 0; i < size && (i == 0 || key < b.N); i++ {
					seq++
					tbl.Insert(tuple.NewBase(0, seq, tuple.Value(key), seq))
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := tuples(tbl.Probe(tuple.Value(i))); len(got) != size {
					b.Fatalf("faulted %d tuples, want %d", len(got), size)
				}
			}
			b.StopTimer()
			if st := store.Stats(); st.Faults != uint64(b.N) || st.SpillErrors != 0 {
				b.Fatalf("%d iterations: %+v", b.N, st)
			}
		})
	}
}
