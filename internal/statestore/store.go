package statestore

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"jisc/internal/obs"
	"jisc/internal/state"
	"jisc/internal/storage"
	"jisc/internal/tuple"
)

// Options configures one Store (one per engine shard).
type Options struct {
	// Budget is the resident-byte budget (TupleBytes accounting) the
	// store governs. Zero or negative means unbounded: accounting runs
	// but nothing ever spills.
	Budget int64
	// Dir is the segment directory. It is wiped on Open — spill
	// segments are a residency cache, not durable state; crash
	// recovery rebuilds state from the WAL and checkpoints, re-spilling
	// as the budget demands.
	Dir string
	// FS is the filesystem; nil means the real one.
	FS storage.FS
	// SegmentBytes rotates the active segment once it reaches this
	// size. Zero means DefaultSegmentBytes.
	SegmentBytes int64
	// GarbageRatio triggers compaction when garbage exceeds this
	// fraction of total encoded bytes. Zero means DefaultGarbageRatio.
	GarbageRatio float64
	// MinCompactBytes suppresses compaction below this total encoded
	// size, so tiny stores do not churn. Zero means
	// DefaultMinCompactBytes.
	MinCompactBytes int64
	// FaultLatency, when non-nil, records the wall-clock latency of
	// every bucket fault.
	FaultLatency *obs.Histogram
}

// Tuning defaults.
const (
	DefaultSegmentBytes    = 1 << 20
	DefaultGarbageRatio    = 0.5
	DefaultMinCompactBytes = 64 << 10

	// tailBytes is the flush threshold of the active segment's
	// in-memory tail: appends reach the file in writes of at least this
	// size (the last write before a rotation excepted).
	tailBytes = 64 << 10
)

// ckey names one bucket: which table, which join-attribute value.
type ckey struct {
	t   *state.Table
	key tuple.Value
}

// segment is one log-structured spill file, spill-%016x.seg. Only the
// newest (active) segment accepts appends; older ones are read-only
// until compaction rewrites the live set and deletes them.
type segment struct {
	path string
	w    storage.File     // nil once the segment stops accepting appends
	r    storage.ReaderAt // open from creation until the file is deleted
	// size is the logical length; the first flushed bytes are in the
	// file and tail holds the rest until the next flush. A segment whose
	// flush failed keeps its tail for good: its spans are served from
	// memory and the file's bytes past flushed are never read.
	size    int64
	flushed int64
	tail    []byte
	// dir lists every span appended to the segment, in offset order: the
	// entry it was written for and where. Compaction walks it instead of
	// the index. A record is live while its entry's oldest span is still
	// the one it names; the entry's later spans are copied with it.
	dir []dirent
}

type dirent struct {
	e   *bucketEntry
	off int64
}

func (sg *segment) close() {
	if sg.w != nil {
		sg.w.Close()
		sg.w = nil
	}
	sg.r.Close()
}

// span is one contiguous run of bucket frames in a segment.
type span struct {
	seg    *segment
	off, n int64
}

// bucketEntry locates the spilled part of one key: its spans, oldest
// first (one per spill since the last fault or compaction), plus the
// tombstone high-water mark and the live accounting needed to decide
// compaction.
type bucketEntry struct {
	spans []span

	// liveEnc/perEnc track how much of the spans' bytes is still live
	// as tombstones land — perEnc is the per-tuple share, refreshed at
	// each spill.
	liveEnc int64
	perEnc  int64
	// memBytes/perMem are the same accounting in resident-equivalent
	// (TupleBytes) units, for the spilled-bytes statistic.
	memBytes int64
	perMem   int64

	// count is the number of live tuples; deadThrough is the tombstone
	// mark — single-ref tuples with Seq ≤ deadThrough are dead and are
	// filtered out on fault, peek, and compaction.
	count       int
	deadThrough uint64
	// dirty records that a tombstone landed since the spans were
	// written, so compaction must decode and filter them instead of
	// copying their bytes.
	dirty bool
}

// Store is the spill backend for one shard's tables. It is confined to
// the shard's goroutine like the tables themselves; only Stats may be
// called concurrently (every counter it reads is atomic).
//
// Spill writes, faults, and compaction all run synchronously on the
// shard worker, so when the disk cannot keep up the shard's input
// queue fills and the existing Block/Shed backpressure of the batch
// path takes over — the system slows or sheds instead of OOMing.
type Store struct {
	budget     int64
	dir        string
	fs         storage.FS
	segBytes   int64
	garbage    float64
	minCompact int64
	faultLat   *obs.Histogram

	index  map[*state.Table]map[tuple.Value]*bucketEntry
	segs   []*segment
	active *segment
	next   uint64

	// ring/hand/inRing implement CLOCK over resident buckets. Stale
	// entries (buckets evicted or spilled since admission) are removed
	// lazily as the hand meets them.
	ring   []ckey
	hand   int
	inRing map[ckey]struct{}

	// compactBroken latches after a failed compaction so a sick disk
	// is not hammered with a rewrite attempt per tombstone; the store
	// keeps running fail-open (garbage just accumulates).
	compactBroken bool

	rbuf []byte         // reusable read buffer of faults and peeks
	free []*bucketEntry // entries of faulted keys, recycled by spill
	// During a compaction cdata holds the flushed bytes of old segment
	// cseg, read once, so its spans are not read one by one.
	cseg  *segment
	cdata []byte

	resident       atomic.Int64
	peak           atomic.Int64
	spilledMem     atomic.Int64
	spilledBuckets atomic.Int64
	encTotal       atomic.Int64
	encLive        atomic.Int64
	nsegs          atomic.Int64
	spills         atomic.Uint64
	faults         atomic.Uint64
	faultTuples    atomic.Uint64
	tombstones     atomic.Uint64
	compactions    atomic.Uint64
	spillErrors    atomic.Uint64
}

// Open creates a Store over a freshly wiped Dir.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("statestore: Options.Dir is required")
	}
	fs := opts.FS
	if fs == nil {
		fs = storage.OS()
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.GarbageRatio <= 0 {
		opts.GarbageRatio = DefaultGarbageRatio
	}
	if opts.MinCompactBytes <= 0 {
		opts.MinCompactBytes = DefaultMinCompactBytes
	}
	if err := fs.RemoveAll(opts.Dir); err != nil {
		return nil, fmt.Errorf("statestore: wiping %s: %w", opts.Dir, err)
	}
	if err := fs.MkdirAll(opts.Dir); err != nil {
		return nil, fmt.Errorf("statestore: creating %s: %w", opts.Dir, err)
	}
	s := &Store{
		budget:     opts.Budget,
		dir:        opts.Dir,
		fs:         fs,
		segBytes:   opts.SegmentBytes,
		garbage:    opts.GarbageRatio,
		minCompact: opts.MinCompactBytes,
		faultLat:   opts.FaultLatency,
		index:      make(map[*state.Table]map[tuple.Value]*bucketEntry),
		inRing:     make(map[ckey]struct{}),
	}
	if err := s.rotate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Close releases the store, deleting its segment directory (the
// contents are a cache; nothing durable lives here).
func (s *Store) Close() error {
	for _, sg := range s.segs {
		sg.close()
	}
	return s.fs.RemoveAll(s.dir)
}

// newSegment creates the next segment file with both its handles open
// and an empty tail.
func (s *Store) newSegment() (*segment, error) {
	path := filepath.Join(s.dir, fmt.Sprintf("spill-%016x.seg", s.next))
	seg := &segment{path: path, tail: make([]byte, 0, tailBytes)}
	s.next++
	w, err := s.fs.Create(seg.path)
	if err != nil {
		return nil, fmt.Errorf("statestore: creating segment %s: %w", seg.path, err)
	}
	seg.w = w
	if seg.r, err = s.fs.OpenReaderAt(seg.path); err != nil {
		w.Close()
		_ = s.fs.Remove(seg.path)
		return nil, fmt.Errorf("statestore: opening segment %s: %w", seg.path, err)
	}
	return seg, nil
}

// flush writes seg's tail to its file in one write. On failure the
// segment is abandoned for appends and keeps its tail, so no span is
// lost and none points into a torn region of the file.
func (s *Store) flush(seg *segment) error {
	if len(seg.tail) == 0 {
		return nil
	}
	if _, err := seg.w.Write(seg.tail); err != nil {
		seg.w.Close()
		seg.w = nil
		return err
	}
	seg.flushed = seg.size
	seg.tail = seg.tail[:0]
	return nil
}

// rotate flushes the active segment, closes it for appends and opens a
// fresh one.
func (s *Store) rotate() error {
	if old := s.active; old != nil && old.w != nil {
		if err := s.flush(old); err != nil {
			s.spillErrors.Add(1)
		} else {
			old.w.Close()
			old.w, old.tail = nil, nil
		}
	}
	seg, err := s.newSegment()
	if err != nil {
		return err
	}
	s.segs = append(s.segs, seg)
	s.active = seg
	s.nsegs.Store(int64(len(s.segs)))
	return nil
}

// appendBucket encodes tuples as one run of frames at the segment's
// tail.
func (sg *segment) appendBucket(key tuple.Value, set tuple.StreamSet, tuples []*tuple.Tuple) span {
	before := len(sg.tail)
	sg.tail = appendBucket(sg.tail, key, set, tuples)
	sp := span{seg: sg, off: sg.size, n: int64(len(sg.tail) - before)}
	sg.size += sp.n
	return sp
}

// Account implements state.Backend: the single resident-byte counter
// every attached table and list feeds.
func (s *Store) Account(delta int64) {
	r := s.resident.Add(delta)
	for {
		p := s.peak.Load()
		if r <= p || s.peak.CompareAndSwap(p, r) {
			return
		}
	}
}

// Admit implements state.Backend: register a resident bucket with the
// CLOCK ring. Re-admission of a bucket already in the ring is a no-op
// (its reference bit, held by the table, was just set anyway).
func (s *Store) Admit(t *state.Table, key tuple.Value) {
	ck := ckey{t, key}
	if _, ok := s.inRing[ck]; ok {
		return
	}
	s.inRing[ck] = struct{}{}
	s.ring = append(s.ring, ck)
}

// Pressured implements state.Backend: resident accounting is within
// an eighth of the budget. Reference-bit maintenance costs a map
// write per touch, so tables skip it while eviction is provably far
// away; the first CLOCK pass after pressure starts sees the untracked
// buckets cold and evicts in admission order until the bits warm up.
func (s *Store) Pressured() bool {
	return s.budget > 0 && s.resident.Load() >= s.budget-s.budget>>3
}

// MaybeSpill implements state.Backend: spill cold buckets while the
// resident accounting exceeds the budget. A write failure fails open —
// the loop stops and what the failed write carried stays in memory, so
// a sick disk degrades to the old all-in-memory behavior instead of
// losing state.
func (s *Store) MaybeSpill() {
	for s.budget > 0 && s.resident.Load() > s.budget {
		if ck, ok := s.victim(); !ok || !s.spill(ck) {
			return
		}
	}
}

// victim runs the CLOCK hand: skip-and-clear touched buckets, drop
// stale entries, return the first cold one. The pass bound guarantees
// termination — after one full sweep every reference bit is clear.
func (s *Store) victim() (ckey, bool) {
	passes := 0
	for len(s.ring) > 0 && passes <= 2*len(s.ring)+1 {
		if s.hand >= len(s.ring) {
			s.hand = 0
		}
		ck := s.ring[s.hand]
		if len(ck.t.ResidentBucket(ck.key)) == 0 {
			s.dropAt(s.hand)
			continue
		}
		if ck.t.ClockTouched(ck.key) {
			s.hand++
			passes++
			continue
		}
		s.dropAt(s.hand)
		return ck, true
	}
	return ckey{}, false
}

// dropAt swap-removes ring[i] without advancing the hand.
func (s *Store) dropAt(i int) {
	delete(s.inRing, s.ring[i])
	last := len(s.ring) - 1
	s.ring[i] = s.ring[last]
	s.ring[last] = ckey{}
	s.ring = s.ring[:last]
}

// spill appends ck's resident bucket to the active segment's tail as
// one more span of the key's spilled part and detaches it from the
// table; nothing is read. Returns false when the disk failed (fail
// open): a segment that cannot be created leaves the bucket resident,
// a tail that cannot be flushed keeps serving its spans from memory.
func (s *Store) spill(ck ckey) bool {
	bucket := ck.t.ResidentBucket(ck.key)
	if len(bucket) == 0 {
		return true
	}
	// Rotate past the size threshold, or to replace an active segment
	// whose writer died on an earlier failure.
	if s.active.w == nil || s.active.size >= s.segBytes {
		if err := s.rotate(); err != nil {
			s.spillErrors.Add(1)
			s.Admit(ck.t, ck.key)
			return false
		}
	}
	seg := s.active
	sp := seg.appendBucket(ck.key, ck.t.Set, bucket)
	s.encTotal.Add(sp.n)
	s.encLive.Add(sp.n)
	mem, count := ck.t.MarkSpilled(ck.key)
	m := s.index[ck.t]
	if m == nil {
		m = make(map[tuple.Value]*bucketEntry)
		s.index[ck.t] = m
	}
	e := m[ck.key]
	if e == nil {
		if n := len(s.free); n > 0 {
			e, s.free = s.free[n-1], s.free[:n-1]
		} else {
			e = &bucketEntry{}
		}
		m[ck.key] = e
		s.spilledBuckets.Add(1)
	}
	e.spans = append(e.spans, sp)
	seg.dir = append(seg.dir, dirent{e, sp.off})
	e.count += count
	e.liveEnc += sp.n
	e.perEnc = e.liveEnc / int64(e.count)
	e.memBytes += mem
	e.perMem = e.memBytes / int64(e.count)
	s.spilledMem.Add(mem)
	s.spills.Add(1)
	if len(seg.tail) >= tailBytes {
		if err := s.flush(seg); err != nil {
			s.spillErrors.Add(1)
			return false
		}
	}
	return true
}

// removeEntry forgets the spilled part of one key, turning its frames
// into garbage.
func (s *Store) removeEntry(t *state.Table, key tuple.Value, e *bucketEntry) {
	delete(s.index[t], key)
	if len(s.index[t]) == 0 {
		delete(s.index, t)
	}
	s.encLive.Add(-e.liveEnc)
	s.spilledMem.Add(-e.memBytes)
	s.spilledBuckets.Add(-1)
	clear(e.spans) // a stale span would pin its deleted segment
	*e = bucketEntry{spans: e.spans[:0]}
	s.free = append(s.free, e)
}

// Fault implements state.Backend: read the key's spilled part back,
// forget the spilled copy, count and latency-sample the miss.
func (s *Store) Fault(t *state.Table, key tuple.Value) []*tuple.Tuple {
	e := s.index[t][key]
	if e == nil {
		return nil
	}
	start := time.Now()
	tuples, err := s.load(e)
	if err != nil {
		// The resident copy was discarded when the bucket spilled; an
		// unreadable segment is unrecoverable state loss, not a
		// degradable condition.
		panic(fmt.Sprintf("statestore: faulting bucket key=%d of %v: %v", key, t.Set, err))
	}
	s.removeEntry(t, key, e)
	s.faults.Add(1)
	s.faultTuples.Add(uint64(len(tuples)))
	if s.faultLat != nil {
		s.faultLat.Record(time.Since(start))
	}
	s.maybeCompact()
	return tuples
}

// Peek implements state.Backend: iterate a key's spilled part without
// admitting it. The part is decoded in full before fn first runs, so
// an fn that re-enters the table (and with it the store's read buffer)
// cannot disturb the iteration.
func (s *Store) Peek(t *state.Table, key tuple.Value, fn func(*tuple.Tuple) bool) bool {
	e := s.index[t][key]
	if e == nil {
		return true
	}
	tuples, err := s.load(e)
	if err != nil {
		panic(fmt.Sprintf("statestore: peeking bucket key=%d of %v: %v", key, t.Set, err))
	}
	for _, tup := range tuples {
		if !fn(tup) {
			return false
		}
	}
	return true
}

// Tombstone implements state.Backend: record window eviction of
// spilled base tuples without faulting.
func (s *Store) Tombstone(t *state.Table, key tuple.Value, deadThrough uint64, last bool) {
	e := s.index[t][key]
	if e == nil {
		return
	}
	s.tombstones.Add(1)
	if last {
		s.removeEntry(t, key, e)
		s.maybeCompact()
		return
	}
	if deadThrough > e.deadThrough {
		e.deadThrough = deadThrough
	}
	e.dirty = true
	e.count--
	d := min(e.perEnc, e.liveEnc)
	e.liveEnc -= d
	s.encLive.Add(-d)
	dm := min(e.perMem, e.memBytes)
	e.memBytes -= dm
	s.spilledMem.Add(-dm)
	s.maybeCompact()
}

// Drop implements state.Backend: forget every spilled bucket and ring
// entry of t (Clear, table teardown).
func (s *Store) Drop(t *state.Table) {
	for key, e := range s.index[t] {
		s.removeEntry(t, key, e)
	}
	for i := 0; i < len(s.ring); {
		if s.ring[i].t == t {
			s.dropAt(i)
		} else {
			i++
		}
	}
	if s.hand > len(s.ring) {
		s.hand = 0
	}
	s.maybeCompact()
}

// read returns the encoded bytes of one span, valid until the next
// read: a slice of the segment's tail when the span has not reached the
// file yet, otherwise one positional read through the segment's open
// handle into the store's buffer.
func (s *Store) read(sp span) ([]byte, error) {
	sg := sp.seg
	if sp.off >= sg.flushed {
		return sg.tail[sp.off-sg.flushed:][:sp.n], nil
	}
	if sg == s.cseg {
		return s.cdata[sp.off:][:sp.n], nil
	}
	if int64(cap(s.rbuf)) < sp.n {
		s.rbuf = make([]byte, sp.n)
	}
	buf := s.rbuf[:sp.n]
	if n, err := sg.r.ReadAt(buf, sp.off); n < len(buf) {
		return nil, fmt.Errorf("reading %s offset %d: %w", sg.path, sp.off, err)
	}
	return buf, nil
}

// load reads and decodes a key's spans, oldest first, dropping tuples
// at or below the entry's tombstone mark. Memory-served and disk-served
// spans pass the same frame CRC check, and the survivors must be as
// many as the accounting says.
func (s *Store) load(e *bucketEntry) ([]*tuple.Tuple, error) {
	out := make([]*tuple.Tuple, 0, e.count)
	for _, sp := range e.spans {
		data, err := s.read(sp)
		if err != nil {
			return nil, err
		}
		for off := 0; off < len(data); {
			payload, n, ok := storage.NextFrame(data[off:], maxSpillPayload)
			if !ok {
				return nil, fmt.Errorf("corrupt frame at %s offset %d", sp.seg.path, sp.off+int64(off))
			}
			live := len(out)
			if _, _, out, err = decodeBucketInto(out, payload); err != nil {
				return nil, fmt.Errorf("CRC-valid frame at %s offset %d does not decode: %w", sp.seg.path, sp.off+int64(off), err)
			}
			if e.deadThrough > 0 {
				for _, tup := range out[live:] {
					if len(tup.Refs) != 1 || tup.Refs[0].Seq > e.deadThrough {
						out[live] = tup
						live++
					}
				}
				out = out[:live]
			}
			off += n
		}
	}
	if len(out) != e.count {
		return nil, fmt.Errorf("decoded %d live tuples, accounting says %d", len(out), e.count)
	}
	return out, nil
}

// maybeCompact rewrites the live set once garbage crosses the
// configured ratio of total encoded bytes.
func (s *Store) maybeCompact() {
	if s.compactBroken {
		return
	}
	total := s.encTotal.Load()
	if total < s.minCompact {
		return
	}
	if float64(total-s.encLive.Load()) <= s.garbage*float64(total) {
		return
	}
	if err := s.compact(); err != nil {
		s.spillErrors.Add(1)
		s.compactBroken = true
	}
}

// compact rewrites every live spilled part into one fresh segment, each
// as a single span, and deletes the old files. Old segments are taken
// in turn, their flushed bytes read once and their directories walked
// in offset order. The rewrite is staged in the new segment's
// directory: nothing in the index changes until it has taken every
// part, so a failure leaves the store exactly as it was.
func (s *Store) compact() error {
	seg, err := s.newSegment()
	if err != nil {
		return err
	}
	defer func() { s.cseg, s.cdata = nil, nil }()
	for _, old := range s.segs {
		s.cseg = nil
		if int64(cap(s.cdata)) < old.flushed {
			s.cdata = make([]byte, old.flushed)
		}
		if n, err := old.r.ReadAt(s.cdata[:old.flushed], 0); int64(n) < old.flushed {
			panic(fmt.Sprintf("statestore: compacting segment %s: read %d of %d bytes: %v", old.path, n, old.flushed, err))
		}
		s.cseg = old
		for _, d := range old.dir {
			e := d.e
			if len(e.spans) == 0 || e.spans[0].seg != old || e.spans[0].off != d.off {
				continue
			}
			seg.dir = append(seg.dir, dirent{e, seg.size})
			if err := s.rewrite(seg, e); err != nil {
				// Unreadable live data during compaction is the same
				// unrecoverable loss as a failed fault.
				panic(fmt.Sprintf("statestore: compacting %s: %v", old.path, err))
			}
			if len(seg.tail) >= tailBytes {
				if err := s.flush(seg); err != nil {
					seg.close()
					_ = s.fs.Remove(seg.path)
					return err
				}
			}
		}
	}
	for _, old := range s.segs {
		old.close()
		_ = s.fs.Remove(old.path)
	}
	s.segs = []*segment{seg}
	s.active = seg
	end := seg.size
	for i := len(seg.dir) - 1; i >= 0; i-- {
		e, off := seg.dir[i].e, seg.dir[i].off
		clear(e.spans)
		e.spans = append(e.spans[:0], span{seg, off, end - off})
		if e.dirty {
			// The tombstone mark stays: the filtered tuples are gone
			// from the rewrite, and future evictions only raise it.
			e.dirty = false
			e.liveEnc = end - off
			e.perEnc = e.liveEnc / int64(e.count)
		}
		end = off
	}
	s.encTotal.Store(seg.size)
	s.encLive.Store(seg.size)
	s.nsegs.Store(1)
	s.compactions.Add(1)
	return nil
}

// rewrite appends e's live content to seg as one run of frames: a part
// no tombstone has touched is CRC-checked and copied byte for byte, the
// others are decoded, filtered and re-encoded.
func (s *Store) rewrite(seg *segment, e *bucketEntry) error {
	if e.dirty {
		tuples, err := s.load(e)
		if err == nil {
			seg.appendBucket(tuples[0].Key, tuples[0].Set, tuples)
		}
		return err
	}
	for _, sp := range e.spans {
		data, err := s.read(sp)
		if err != nil {
			return err
		}
		if !validFrames(data) {
			return fmt.Errorf("corrupt frame at %s offset %d", sp.seg.path, sp.off)
		}
		seg.tail = append(seg.tail, data...)
		seg.size += sp.n
	}
	return nil
}

// validFrames reports whether data is exactly a run of CRC-valid
// frames.
func validFrames(data []byte) bool {
	for len(data) > 0 {
		_, n, ok := storage.NextFrame(data, maxSpillPayload)
		if !ok {
			return false
		}
		data = data[n:]
	}
	return true
}

// Stats is a point-in-time snapshot of the store's counters. Safe to
// take from any goroutine.
type Stats struct {
	// ResidentBytes is the current resident accounting across every
	// attached table and list; PeakResidentBytes is its high-water
	// mark (instantaneous, including the transient of a fault before
	// the following spill).
	ResidentBytes     int64 `json:"resident_bytes"`
	PeakResidentBytes int64 `json:"peak_resident_bytes"`
	// SpilledBytes is the resident-equivalent footprint of the spilled
	// live tuples; SpilledBuckets counts them.
	SpilledBytes   int64 `json:"spilled_bytes"`
	SpilledBuckets int64 `json:"spilled_buckets"`
	// Segments / SegmentBytes / GarbageBytes describe the on-disk
	// footprint and how much of it is dead.
	Segments     int64 `json:"segments"`
	SegmentBytes int64 `json:"segment_bytes"`
	GarbageBytes int64 `json:"garbage_bytes"`

	Spills      uint64 `json:"spills"`
	Faults      uint64 `json:"faults"`
	FaultTuples uint64 `json:"fault_tuples"`
	Tombstones  uint64 `json:"tombstones"`
	Compactions uint64 `json:"compactions"`
	SpillErrors uint64 `json:"spill_errors"`
}

// Stats returns the current counters.
func (s *Store) Stats() Stats {
	total := s.encTotal.Load()
	live := s.encLive.Load()
	return Stats{
		ResidentBytes:     s.resident.Load(),
		PeakResidentBytes: s.peak.Load(),
		SpilledBytes:      s.spilledMem.Load(),
		SpilledBuckets:    s.spilledBuckets.Load(),
		Segments:          s.nsegs.Load(),
		SegmentBytes:      total,
		GarbageBytes:      total - live,
		Spills:            s.spills.Load(),
		Faults:            s.faults.Load(),
		FaultTuples:       s.faultTuples.Load(),
		Tombstones:        s.tombstones.Load(),
		Compactions:       s.compactions.Load(),
		SpillErrors:       s.spillErrors.Load(),
	}
}

// Add merges two snapshots — per-shard stats into a runtime total.
// Peak adds (each shard has an independent budget slice).
func (a Stats) Add(b Stats) Stats {
	return Stats{
		ResidentBytes:     a.ResidentBytes + b.ResidentBytes,
		PeakResidentBytes: a.PeakResidentBytes + b.PeakResidentBytes,
		SpilledBytes:      a.SpilledBytes + b.SpilledBytes,
		SpilledBuckets:    a.SpilledBuckets + b.SpilledBuckets,
		Segments:          a.Segments + b.Segments,
		SegmentBytes:      a.SegmentBytes + b.SegmentBytes,
		GarbageBytes:      a.GarbageBytes + b.GarbageBytes,
		Spills:            a.Spills + b.Spills,
		Faults:            a.Faults + b.Faults,
		FaultTuples:       a.FaultTuples + b.FaultTuples,
		Tombstones:        a.Tombstones + b.Tombstones,
		Compactions:       a.Compactions + b.Compactions,
		SpillErrors:       a.SpillErrors + b.SpillErrors,
	}
}

var _ state.Backend = (*Store)(nil)
