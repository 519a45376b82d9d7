package tuple

import (
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
	"unsafe"

	"jisc/internal/testseed"
)

func TestStreamSetBasics(t *testing.T) {
	s := NewStreamSet(0, 3, 7)
	if got := s.Count(); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
	for _, id := range []StreamID{0, 3, 7} {
		if !s.Has(id) {
			t.Errorf("Has(%d) = false, want true", id)
		}
	}
	for _, id := range []StreamID{1, 2, 4, 63} {
		if s.Has(id) {
			t.Errorf("Has(%d) = true, want false", id)
		}
	}
	if got := s.String(); got != "{0,3,7}" {
		t.Errorf("String = %q, want {0,3,7}", got)
	}
}

func TestStreamSetStreamsSorted(t *testing.T) {
	s := NewStreamSet(9, 1, 5, 2)
	ids := s.Streams()
	if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
		t.Fatalf("Streams() not sorted: %v", ids)
	}
	if len(ids) != 4 {
		t.Fatalf("len(Streams) = %d, want 4", len(ids))
	}
}

func TestStreamSetUnionIntersects(t *testing.T) {
	a := NewStreamSet(0, 1)
	b := NewStreamSet(2, 3)
	if a.Intersects(b) {
		t.Error("disjoint sets reported as intersecting")
	}
	u := a.Union(b)
	if u.Count() != 4 {
		t.Errorf("union count = %d, want 4", u.Count())
	}
	if !u.Contains(a) || !u.Contains(b) {
		t.Error("union does not contain both operands")
	}
	if a.Contains(u) {
		t.Error("subset reported as containing superset")
	}
}

func TestStreamSetEmpty(t *testing.T) {
	var s StreamSet
	if s.Count() != 0 || len(s.Streams()) != 0 {
		t.Fatal("empty set not empty")
	}
	if s.String() != "{}" {
		t.Errorf("String = %q, want {}", s.String())
	}
}

// Property: union count equals count of the merged member lists.
func TestStreamSetUnionCountProperty(t *testing.T) {
	f := func(a, b uint64) bool {
		sa, sb := StreamSet(a), StreamSet(b)
		seen := map[StreamID]bool{}
		for _, id := range sa.Streams() {
			seen[id] = true
		}
		for _, id := range sb.Streams() {
			seen[id] = true
		}
		return sa.Union(sb).Count() == len(seen)
	}
	if err := quick.Check(f, testseed.Quick(t, 1, 0)); err != nil {
		t.Fatal(err)
	}
}

// Property: Add is idempotent and monotone.
func TestStreamSetAddProperty(t *testing.T) {
	f := func(base uint64, id uint8) bool {
		s := StreamSet(base)
		id &= MaxStreams - 1
		once := s.Add(StreamID(id))
		twice := once.Add(StreamID(id))
		return once == twice && once.Has(StreamID(id)) && once.Contains(s)
	}
	if err := quick.Check(f, testseed.Quick(t, 1, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestNewBase(t *testing.T) {
	b := NewBase(2, 17, 99, 1234)
	if b.Set != NewStreamSet(2) || len(b.Seqs) != 1 {
		t.Fatalf("base tuple covers %v with seqs %v", b.Set, b.Seqs)
	}
	if b.Key != 99 || b.Arrival != 1234 {
		t.Fatalf("fields mangled: %+v", b)
	}
	if ref := b.First(); ref != (Ref{Stream: 2, Seq: 17}) {
		t.Fatalf("First = %v", ref)
	}
	if b.Contains(Ref{Stream: 3, Seq: 17}) {
		t.Fatal("base tuple contains a ref of stream 3")
	}
}

func TestJoinMergesProvenance(t *testing.T) {
	a := NewBase(1, 5, 7, 10)
	b := NewBase(0, 3, 7, 20)
	j := Join(a, b)
	if j.Key != 7 {
		t.Errorf("Key = %d, want 7", j.Key)
	}
	if j.Set != NewStreamSet(0, 1) {
		t.Errorf("Set = %v", j.Set)
	}
	if j.Fingerprint() != "0#3|1#5" {
		t.Errorf("provenance = %s, want 0#3|1#5", j.Fingerprint())
	}
	if j.Arrival != 20 {
		t.Errorf("Arrival = %d, want max 20", j.Arrival)
	}
	if len(j.Seqs) != 2 {
		t.Errorf("composite has %d seqs, want 2", len(j.Seqs))
	}
}

func TestJoinPanicsOnOverlap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Join on overlapping sets did not panic")
		}
	}()
	a := NewBase(1, 5, 7, 10)
	b := NewBase(1, 6, 7, 20)
	Join(a, b)
}

func TestJoinTheta(t *testing.T) {
	a := NewBase(0, 1, 10, 1)
	b := NewBase(1, 1, 99, 2)
	j := Join(a, b)
	if j.Key != 10 {
		t.Errorf("theta composite key = %d, want left key 10", j.Key)
	}
	if j.Set != NewStreamSet(0, 1) {
		t.Errorf("Set = %v", j.Set)
	}
}

func TestContains(t *testing.T) {
	a := NewBase(0, 1, 5, 1)
	b := NewBase(3, 9, 5, 2)
	c := NewBase(1, 4, 5, 3)
	j := Join(Join(a, b), c)
	for _, r := range []Ref{{0, 1}, {3, 9}, {1, 4}} {
		if !j.Contains(r) {
			t.Errorf("Contains(%v) = false", r)
		}
	}
	for _, r := range []Ref{{0, 2}, {2, 9}, {1, 5}} {
		if j.Contains(r) {
			t.Errorf("Contains(%v) = true", r)
		}
	}
}

func TestFingerprintCanonical(t *testing.T) {
	a := NewBase(0, 1, 5, 1)
	b := NewBase(1, 2, 5, 2)
	c := NewBase(2, 3, 5, 3)
	// Different join orders must yield identical fingerprints.
	left := Join(Join(a, b), c)
	right := Join(a, Join(b, c))
	rev := Join(c, Join(b, a))
	if left.Fingerprint() != right.Fingerprint() || left.Fingerprint() != rev.Fingerprint() {
		t.Fatalf("fingerprints differ: %q %q %q",
			left.Fingerprint(), right.Fingerprint(), rev.Fingerprint())
	}
	if left.Fingerprint() != "0#1|1#2|2#3" {
		t.Errorf("fingerprint = %q", left.Fingerprint())
	}
}

// Property: joining any permutation of base tuples yields the same
// provenance fingerprint (join output identity is order-independent).
func TestJoinOrderIndependenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(testseed.Seed(t, 42)))
	for iter := 0; iter < 200; iter++ {
		n := 2 + rng.Intn(6)
		bases := make([]*Tuple, n)
		for i := range bases {
			bases[i] = NewBase(StreamID(i), uint64(rng.Intn(1000)), 7, uint64(i))
		}
		join := func(order []int) string {
			acc := bases[order[0]]
			for _, i := range order[1:] {
				acc = Join(acc, bases[i])
			}
			return acc.Fingerprint()
		}
		fwd := make([]int, n)
		for i := range fwd {
			fwd[i] = i
		}
		perm := rng.Perm(n)
		if join(fwd) != join(perm) {
			t.Fatalf("fingerprint differs for permutation %v", perm)
		}
	}
}

func TestRefString(t *testing.T) {
	r := Ref{Stream: 4, Seq: 77}
	if r.String() != "4#77" {
		t.Errorf("Ref.String = %q", r.String())
	}
}

func BenchmarkJoin(b *testing.B) {
	x := NewBase(0, 1, 5, 1)
	y := NewBase(1, 2, 5, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Join(x, y)
	}
}

func BenchmarkContains(b *testing.B) {
	parts := make([]*Tuple, 8)
	for i := range parts {
		parts[i] = NewBase(StreamID(i), uint64(i), 5, uint64(i))
	}
	acc := parts[0]
	for _, p := range parts[1:] {
		acc = Join(acc, p)
	}
	ref := Ref{Stream: 7, Seq: 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		acc.Contains(ref)
	}
}

// TestArrivalTracking: a composite's arrival is its newest
// constituent's; a base tuple's is its own.
func TestArrivalTracking(t *testing.T) {
	a := NewBase(0, 1, 5, 10)
	b := NewBase(1, 1, 5, 3)
	c := NewBase(2, 1, 5, 7)
	j := Join(Join(a, b), c)
	if j.Arrival != 10 {
		t.Fatalf("Arrival = %d, want 10", j.Arrival)
	}
	if b.Arrival != 3 {
		t.Fatalf("base Arrival = %d, want its own arrival", b.Arrival)
	}
}

// TestAppendFingerprint: the append form is the one encoder behind
// Fingerprint — same bytes, after whatever dst already holds — and
// allocates nothing when dst has room.
func TestAppendFingerprint(t *testing.T) {
	tp := &Tuple{Key: 3, Set: NewStreamSet(0, 7, 63), Seqs: []uint64{0, 12345678901, 18446744073709551615}}
	if got := tp.Fingerprint(); got != "0#0|7#12345678901|63#18446744073709551615" {
		t.Fatalf("fingerprint = %q", got)
	}
	if got := string(tp.AppendFingerprint([]byte("RESULT 3 "))); got != "RESULT 3 "+tp.Fingerprint() {
		t.Fatalf("appended = %q", got)
	}
	buf := make([]byte, 0, 64)
	if allocs := testing.AllocsPerRun(100, func() { buf = tp.AppendFingerprint(buf[:0]) }); allocs != 0 {
		t.Fatalf("%v allocations per append, want 0", allocs)
	}
}

var fingerprintSink []byte

func BenchmarkAppendFingerprint(b *testing.B) {
	tp := &Tuple{Key: 7, Set: NewStreamSet(0, 1, 2), Seqs: []uint64{123456, 7, 99}}
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = tp.AppendFingerprint(buf[:0])
	}
	fingerprintSink = buf
}

// TestAppendUintMatchesStrconv: the in-place digit writer against
// strconv at every digit-count boundary and on random values, into an
// empty slice, a full one and one with room.
func TestAppendUintMatchesStrconv(t *testing.T) {
	check := func(v uint64) bool {
		want := strconv.FormatUint(v, 10)
		full := []byte("x")
		roomy := append(make([]byte, 0, 64), 'x')
		return string(AppendUint(nil, v)) == want &&
			string(AppendUint(full[:1:1], v)) == "x"+want &&
			string(AppendUint(roomy, v)) == "x"+want &&
			string(AppendInt(nil, int64(v))) == strconv.FormatInt(int64(v), 10)
	}
	p := uint64(1)
	for d := 0; d < 20; d++ {
		for _, v := range []uint64{p - 1, p, p + 1, 2*p - 1, 9*p + p/2} {
			if !check(v) {
				t.Errorf("AppendUint(%d) = %q", v, AppendUint(nil, v))
			}
		}
		p *= 10 // wraps after 10^19; the values stay valid inputs
	}
	for _, v := range []uint64{0, 1<<63 - 1, 1 << 63, 1<<64 - 1} {
		if !check(v) {
			t.Errorf("AppendUint(%d) = %q, AppendInt = %q", v, AppendUint(nil, v), AppendInt(nil, int64(v)))
		}
	}
	if err := quick.Check(check, testseed.Quick(t, 7, 200_000)); err != nil {
		t.Error(err)
	}
	narrow := func(v uint32, shift uint8) bool { return check(uint64(v) >> (shift % 32)) }
	if err := quick.Check(narrow, testseed.Quick(t, 8, 200_000)); err != nil {
		t.Error(err)
	}
}

// TestCloneSharesNothing: a clone reads the same and survives its
// original being overwritten, refs included.
func TestCloneSharesNothing(t *testing.T) {
	orig := Join(NewBase(0, 5, 7, 10), NewBase(1, 6, 7, 11))
	c := orig.Clone()
	if c.Fingerprint() != "0#5|1#6" || c.Key != 7 || c.Set != orig.Set || c.Arrival != 11 {
		t.Fatalf("clone = %v", c)
	}
	orig.Seqs[0], orig.Key = 9, 9
	if c.Fingerprint() != "0#5|1#6" || c.Key != 7 {
		t.Fatalf("clone changed with its original: %v", c)
	}
	if base := NewBase(2, 1, 3, 1).Clone(); len(base.Seqs) != 1 || base.First() != (Ref{Stream: 2, Seq: 1}) {
		t.Fatalf("base clone = %+v", base)
	}
}

// TestTupleSize pins the struct a lent view or a tuple kept by pointer
// takes: key, set, seqs header and arrival — 48 bytes on a 64-bit
// platform, and nothing that no one reads.
func TestTupleSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("not a 64-bit platform")
	}
	if got := unsafe.Sizeof(Tuple{}); got != 48 {
		t.Fatalf("unsafe.Sizeof(Tuple{}) = %d, want 48", got)
	}
}

// TestRowsViewMatchesJoin: a row appended by AppendJoinRow (or
// AppendRow) and read back through View is the tuple Join builds, its
// seqs a slice of the run itself, and appending another row leaves a
// view already taken unchanged.
func TestRowsViewMatchesJoin(t *testing.T) {
	a := Join(NewBase(0, 5, 7, 10), NewBase(4, 3, 7, 20))
	b := NewBase(2, 9, 7, 30)
	rows := Rows{Key: 7, Set: a.Set | b.Set}
	rows.Data = AppendJoinRow(rows.Data, a, b)
	rows.Data = AppendRow(rows.Data, Join(b, a))
	if rows.Len() != 2 || len(rows.Data) != 2*RowWidth(rows.Set) {
		t.Fatalf("%d rows in %d words", rows.Len(), len(rows.Data))
	}
	want := Join(a, b)
	var v Tuple
	for i := range rows.Len() {
		got := rows.View(i, &v)
		if got.Fingerprint() != want.Fingerprint() || got.Key != 7 || got.Set != want.Set ||
			got.Arrival != want.Arrival {
			t.Fatalf("row %d = %v (arrival %d), want %v", i, got, got.Arrival, want)
		}
	}
	rows.View(0, &v)
	if &v.Seqs[0] != &rows.Data[1] || cap(v.Seqs) != 3 {
		t.Fatal("view copies its seqs, or may append into the next row")
	}
	rows.Data = AppendJoinRow(rows.Data[:len(rows.Data):len(rows.Data)], b, a)
	if v.Fingerprint() != want.Fingerprint() {
		t.Fatalf("view changed under an append: %v", &v)
	}
	if (Rows{}).Len() != 0 {
		t.Fatal("empty rows have a length")
	}
}

// TestRowLayout pins a row's words: arrival, then one seq per covered
// stream in stream order — RowWidth is 1 + |set|, so a scan row is 16
// bytes, a 2-stream row 24 and a 5-stream row 48. AppendRow and
// AppendJoinRow write exactly those words, and View reads them back as
// the tuple they came from.
func TestRowLayout(t *testing.T) {
	for _, c := range []struct {
		set  StreamSet
		want int
	}{{NewStreamSet(3), 2}, {NewStreamSet(0, 9), 3}, {NewStreamSet(0, 1, 2, 40, 63), 6}, {0, 1}} {
		if got := RowWidth(c.set); got != c.want {
			t.Errorf("RowWidth(%v) = %d, want %d", c.set, got, c.want)
		}
	}
	a := Join(NewBase(4, 3, 7, 20), NewBase(0, 5, 7, 10))
	b := Join(NewBase(2, 9, 7, 30), NewBase(6, 1, 7, 5))
	run := AppendRow([]uint64{99}, NewBase(1, 8, 7, 12))
	if !slices.Equal(run, []uint64{99, 12, 8}) {
		t.Fatalf("AppendRow wrote %v, want [99 12 8]", run)
	}
	run = AppendJoinRow(run[:0], a, b)
	if !slices.Equal(run, []uint64{30, 5, 9, 3, 1}) {
		t.Fatalf("AppendJoinRow wrote %v, want arrival 30 then seqs of streams 0, 2, 4, 6", run)
	}
	rows := Rows{Key: 7, Set: a.Set | b.Set, Data: AppendRow(run, Join(b, a))}
	var v Tuple
	for i := range rows.Len() {
		got := rows.View(i, &v)
		if got.Key != 7 || got.Set != rows.Set || got.Arrival != 30 || !slices.Equal(got.Seqs, []uint64{5, 9, 3, 1}) {
			t.Fatalf("View(%d) = %+v", i, got)
		}
		if back := AppendRow(nil, got); !slices.Equal(back, rows.Data[i*5:i*5+5]) {
			t.Fatalf("AppendRow(View(%d)) = %v, want %v", i, back, rows.Data[i*5:i*5+5])
		}
	}
}
