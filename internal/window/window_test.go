package window

import (
	"slices"
	"testing"
	"testing/quick"

	"jisc/internal/testseed"
	"jisc/internal/tuple"
)

// clocks are the two readings a window is slid with: the stream's own
// seq (a count window) and arrival ticks (a time window). A time
// window's stream sees gaps in the ticks, where other streams' tuples
// arrived, and runs of equal ticks never occur in the engine but are
// legal here; the tick clock below has both.
var clocks = []struct {
	name string
	at   func(seq uint64) uint64
}{
	{"count", func(seq uint64) uint64 { return seq }},
	{"time", func(seq uint64) uint64 { return 10 * (seq / 3) }},
}

func ref(seq uint64) tuple.Ref { return tuple.Ref{Stream: 0, Seq: seq} }

func seqsOf(es []Entry) []uint64 {
	var s []uint64
	for _, e := range es {
		s = append(s, e.Ref.Seq)
	}
	return s
}

// step is one Slide, at a clock reading, with the seqs it must expire
// and the window's length after it. Slide i admits seq i+1 with key
// 100+i.
type step struct {
	at   uint64
	want []uint64
	len  int
}

// slideSteps runs steps through a fresh window of span.
func slideSteps(t *testing.T, name string, span uint64, steps []step) {
	t.Helper()
	w := New(0, span)
	for i, s := range steps {
		got := w.Slide(ref(uint64(i+1)), tuple.Value(100+i), s.at)
		if !slices.Equal(seqsOf(got), s.want) || w.Len() != s.len {
			t.Fatalf("%s: slide %d at %d expired %v (Len %d), want %v (Len %d)", name, i+1, s.at, seqsOf(got), w.Len(), s.want, s.len)
		}
		for _, e := range got {
			if e.Key != tuple.Value(100+e.Ref.Seq-1) {
				t.Fatalf("%s: expired %+v carries the wrong key", name, e)
			}
		}
	}
}

// Nothing expires while every reading is within the span of the first.
func TestAdmitBelowCapacity(t *testing.T) {
	slideSteps(t, "count", 3, []step{{1, nil, 1}, {2, nil, 2}, {3, nil, 3}})
	slideSteps(t, "time", 10, []step{{100, nil, 1}, {105, nil, 2}, {109, nil, 3}})
}

// A count window over seqs 1..n: once full, each slide expires exactly
// the oldest tuple, as seq − W reaches it.
func TestAdmitEvictsOldest(t *testing.T) {
	slideSteps(t, "count", 3, []step{
		{1, nil, 1}, {2, nil, 2}, {3, nil, 3}, {4, []uint64{1}, 3}, {5, []uint64{2}, 3}, {6, []uint64{3}, 3},
	})
	slideSteps(t, "count of one", 1, []step{{1, nil, 1}, {2, []uint64{1}, 1}, {3, []uint64{2}, 1}})
}

// A time window expires nothing on its first admit or within its span,
// then at ts 111 (cutoff 101) expires the ts-100 entry only, with its key.
func TestTimeWindowBasics(t *testing.T) {
	if New(0, 10).Stream() != 0 {
		t.Fatal("accessors")
	}
	slideSteps(t, "time", 10, []step{{100, nil, 1}, {105, nil, 2}, {111, []uint64{1}, 2}})
}

// An entry read at exactly now − span leaves; one read after it stays.
func TestTimeWindowBoundaries(t *testing.T) {
	slideSteps(t, "time", 10, []step{
		{100, nil, 1}, {105, nil, 2}, {110, []uint64{1}, 2}, {111, nil, 3}, {115, []uint64{2}, 3},
	})
}

// One slide may expire several entries, oldest first, and a jump far
// ahead empties the window but for the new tuple.
func TestTimeWindowBatchExpiry(t *testing.T) {
	slideSteps(t, "time", 5, []step{
		{11, nil, 1}, {12, nil, 2}, {13, nil, 3}, {14, nil, 4}, {18, []uint64{1, 2, 3}, 2}, {100, []uint64{4, 5}, 1},
	})
}

// Expire moves the clock without admitting: it expires what a Slide
// at the same reading would, leaves the rest, and a later Slide may
// not read earlier.
func TestExpireWithoutAdmit(t *testing.T) {
	w := New(0, 5)
	for at := uint64(1); at <= 3; at++ {
		w.Slide(ref(at), 0, at)
	}
	if exp := w.Expire(3); len(exp) != 0 {
		t.Fatalf("Expire(3) expired %v", seqsOf(exp))
	}
	if exp := w.Expire(7); !slices.Equal(seqsOf(exp), []uint64{1, 2}) || w.Len() != 1 {
		t.Fatalf("Expire(7) expired %v, %d left; want [1 2], 1 left", seqsOf(exp), w.Len())
	}
	if exp := w.Expire(100); !slices.Equal(seqsOf(exp), []uint64{3}) || w.Len() != 0 {
		t.Fatalf("Expire(100) expired %v, %d left; want [3], 0 left", seqsOf(exp), w.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a Slide before the last Expire's reading did not panic")
		}
	}()
	w.Slide(ref(4), 0, 99)
}

// The ring doubles while its live entries wrap past the array's end,
// and keeps them oldest first with their readings.
func TestRingGrowsAcrossWrap(t *testing.T) {
	w := New(0, 5)
	seq := uint64(0)
	slide := func(at uint64) []Entry { seq++; return w.Slide(ref(seq), 0, at) }
	for at := uint64(1); at <= 11; at++ { // the head walks to ring slot 6 of 8
		slide(at)
	}
	for range 10 { // one reading: nothing expires, the ring grows wrapped
		if exp := slide(11); len(exp) != 0 {
			t.Fatalf("same-reading slide expired %v", seqsOf(exp))
		}
	}
	if w.Len() != 15 {
		t.Fatalf("Len = %d, want 15", w.Len())
	}
	next := uint64(7)
	w.Each(func(e Entry, at uint64) bool {
		want := min(next, 11)
		if e.Ref.Seq != next || at != want {
			t.Fatalf("Each gave seq %d at %d, want seq %d at %d", e.Ref.Seq, at, next, want)
		}
		next++
		return true
	})
	if next != 22 {
		t.Fatalf("Each stopped at seq %d", next)
	}
	if exp := slide(100); !slices.Equal(seqsOf(exp), []uint64{7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21}) {
		t.Fatalf("jump expired %v", seqsOf(exp))
	}
}

func TestEachOldestFirst(t *testing.T) {
	for _, c := range clocks {
		w := New(0, 10)
		for seq := uint64(1); seq <= 40; seq++ {
			w.Slide(ref(seq), 0, c.at(seq))
		}
		var seqs []uint64
		w.Each(func(e Entry, at uint64) bool {
			if at != c.at(e.Ref.Seq) {
				t.Fatalf("%s: seq %d read %d, admitted at %d", c.name, e.Ref.Seq, at, c.at(e.Ref.Seq))
			}
			seqs = append(seqs, e.Ref.Seq)
			return true
		})
		if len(seqs) != w.Len() || seqs[len(seqs)-1] != 40 {
			t.Fatalf("%s: Each = %v, Len %d", c.name, seqs, w.Len())
		}
		for i := 1; i < len(seqs); i++ {
			if seqs[i] != seqs[i-1]+1 {
				t.Fatalf("%s: Each order = %v", c.name, seqs)
			}
		}
		visits := 0
		w.Each(func(Entry, uint64) bool { visits++; return false })
		if visits != 1 {
			t.Fatalf("%s: Each ran on after false (%d visits)", c.name, visits)
		}
	}
}

// Property: after any admission sequence, the window holds exactly the
// entries read within the span of the newest reading, and expiry order
// is FIFO. The count clock moves by one per tuple; the time clock by a
// drawn gap, zero included.
func TestFIFOProperty(t *testing.T) {
	f := func(spanRaw uint8, gaps []uint8) bool {
		span := uint64(spanRaw%16) + 1
		for _, count := range []bool{true, false} {
			w := New(0, span)
			var model []uint64 // live readings, oldest first
			next, at := uint64(1), uint64(0)
			for i, g := range gaps {
				seq := uint64(i + 1)
				if count {
					at = seq
				} else {
					at += uint64(g % 4)
				}
				for _, e := range w.Slide(ref(seq), 0, at) {
					if e.Ref.Seq != next || at < span || model[0] > at-span {
						return false
					}
					next++
					model = model[1:]
				}
				model = append(model, at)
				if w.Len() != len(model) || at >= span && model[0] <= at-span {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, testseed.Quick(t, 1, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestWrongStreamPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("cross-stream slide did not panic")
		}
	}()
	New(0, 5).Slide(tuple.Ref{Stream: 1, Seq: 1}, 0, 1)
}

func TestZeroSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-span window did not panic")
		}
	}()
	New(0, 0)
}

func TestClockRegressionPanics(t *testing.T) {
	for _, c := range clocks {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a clock that went backwards did not panic", c.name)
				}
			}()
			w := New(0, 50)
			w.Slide(ref(6), 0, c.at(6))
			w.Slide(ref(7), 0, c.at(2))
		}()
	}
}

// A window that has reached its steady size slides without allocating,
// also when one slide expires several entries.
func TestSlideSteadyStateAllocs(t *testing.T) {
	for _, c := range clocks {
		w := New(0, 40)
		seq := uint64(0)
		slide := func() { seq++; w.Slide(ref(seq), 0, c.at(seq)) }
		for range 200 {
			slide()
		}
		if n := testing.AllocsPerRun(1000, slide); n != 0 {
			t.Errorf("%s: %v allocations per steady slide, want 0", c.name, n)
		}
	}
}
