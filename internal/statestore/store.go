package statestore

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"jisc/internal/obs"
	"jisc/internal/storage"
	"jisc/internal/tuple"
)

// Options configures one Store (one per engine shard).
type Options struct {
	// Budget is the resident-byte budget (row and slot bytes, see
	// state.TupleBytes) the store governs. Zero or negative means unbounded: accounting runs
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
	// size. Zero means 1 MiB.
	SegmentBytes int64
	// MinCompactBytes suppresses compaction below this total encoded
	// size, so tiny stores do not churn. Zero means 64 KiB.
	MinCompactBytes int64
	// FaultLatency, when non-nil, records the wall-clock latency of
	// every bucket fault.
	FaultLatency *obs.Histogram
}

const (
	defaultSegmentBytes    = 1 << 20
	defaultMinCompactBytes = 64 << 10
	// garbageRatio triggers compaction once garbage exceeds this
	// fraction of the total encoded bytes.
	garbageRatio = 0.5

	// tailBytes is the flush threshold of the active segment's
	// in-memory tail: appends reach the file in writes of at least this
	// size (the last write before a rotation excepted).
	tailBytes = 64 << 10
)

// Table is what the CLOCK hand asks of a hash table whose buckets it
// spills; state.Table implements it. The hand walks the table's own
// slots, and the table, not the store, holds each spilled key's Part:
// the store keeps no index of its own.
type Table interface {
	// Sweep walks the table's slots from position from, clearing the
	// reference bit of each touched resident bucket, and returns the
	// key of the first untouched one and the position after it; ok is
	// false when the walk reached the last slot without finding one.
	Sweep(from int) (key tuple.Value, next int, ok bool)
	// ResidentBucket lends the resident rows under key, none when none
	// are resident, without faulting or setting the reference bit.
	ResidentBucket(key tuple.Value) tuple.Rows
	// MarkSpilled detaches the resident bucket of key, which the store
	// has just captured, into key's spilled part — the one the table
	// holds already, or fresh when it holds none — and returns that part
	// and the row bytes that moved.
	MarkSpilled(key tuple.Value, fresh *Part) (*Part, int64)
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
	// part it was written for and where. Compaction walks it. A record is
	// live while its part's oldest span is still the one it names; the
	// part's later spans are copied with it.
	dir []dirent
}

type dirent struct {
	p   *Part
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

// Part is the spilled part of one key, the one record of it: the key's
// table holds it in place of the tuples. It locates the part's spans,
// oldest first (one per spill since the last fault or compaction), and
// carries the live count, the tombstone high-water mark and the live
// accounting needed to decide compaction.
type Part struct {
	spans []span

	// liveEnc/perEnc track how much of the spans' bytes is still live
	// as tombstones land — perEnc is the per-tuple share, refreshed at
	// each spill.
	liveEnc int64
	perEnc  int64
	// memBytes/perMem are the same accounting in resident row bytes,
	// for the spilled-bytes statistic.
	memBytes int64
	perMem   int64

	// count is the number of live rows; deadThrough is the tombstone
	// mark — one-stream rows with seq ≤ deadThrough are dead and are
	// filtered out on fault, peek, and compaction.
	count       int
	deadThrough uint64
	// newest is the first seq of the last row spilled.
	newest uint64
	// dirty records that a tombstone landed since the spans were
	// written, so compaction must decode and filter them instead of
	// copying their bytes.
	dirty bool
}

// Count returns the number of live rows in the part, at least one.
func (p *Part) Count() int { return p.count }

// Newest returns the first sequence number of the last row spilled
// into the part. On a scan table, whose rows hold one seq each and
// expire in seq order, it is the highest seq spilled: an expiring ref
// no newer than it lies in the part, a newer one in the resident run.
func (p *Part) Newest() uint64 { return p.newest }

// Store is the spill tier of one shard's tables. It keeps the resident
// byte accounting, the segments and the CLOCK hand; the tables keep the
// parts and the reference bits. It is confined to the shard's goroutine
// like the tables themselves; only Stats may be called concurrently
// (every counter it reads is atomic).
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
	minCompact int64
	faultLat   *obs.Histogram

	segs   []*segment
	active *segment
	next   uint64

	// tables are the attached tables in attach order. The CLOCK hand
	// stands at slot position handSlot of tables[handTable]; positions
	// move when a table grows or shrinks, which only makes the hand
	// resume elsewhere.
	tables    []Table
	handTable int
	handSlot  int

	// compactBroken latches after a failed compaction so a sick disk
	// is not hammered with a rewrite attempt per tombstone; the store
	// keeps running fail-open (garbage just accumulates).
	compactBroken bool

	rbuf []byte  // reusable read buffer of faults and peeks
	free []*Part // freed parts, recycled by spill
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
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.MinCompactBytes <= 0 {
		opts.MinCompactBytes = defaultMinCompactBytes
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
		minCompact: opts.MinCompactBytes,
		faultLat:   opts.FaultLatency,
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

// appendBucket encodes rows as one run of frames at the segment's tail.
func (sg *segment) appendBucket(rows tuple.Rows) span {
	before := len(sg.tail)
	sg.tail = appendBucket(sg.tail, rows)
	sp := span{seg: sg, off: sg.size, n: int64(len(sg.tail) - before)}
	sg.size += sp.n
	return sp
}

// Account adjusts the single resident-byte counter every table using
// the store feeds — attached or accounting only — on each change of
// its resident footprint.
func (s *Store) Account(delta int64) {
	r := s.resident.Add(delta)
	for {
		p := s.peak.Load()
		if r <= p || s.peak.CompareAndSwap(p, r) {
			return
		}
	}
}

// Attach adds t to the tables the CLOCK hand walks. A table attaches
// once, while still empty, and detaches through Drop.
func (s *Store) Attach(t Table) { s.tables = append(s.tables, t) }

// MaybeSpill spills cold buckets while the resident accounting exceeds
// the budget. Tables call it after operations that grow residency. A write failure fails open —
// the loop stops and what the failed write carried stays in memory, so
// a sick disk degrades to the old all-in-memory behavior instead of
// losing state.
func (s *Store) MaybeSpill() {
	for s.budget > 0 && s.resident.Load() > s.budget {
		t, key, ok := s.victim()
		if !ok || !s.spill(t, key) {
			return
		}
	}
}

// victim moves the CLOCK hand table by table until one's Sweep finds a
// cold resident bucket. Two revolutions bound the search: the first
// clears every reference bit it passes, so the second stops at the
// first resident bucket unless none is left.
func (s *Store) victim() (Table, tuple.Value, bool) {
	for range 2 * len(s.tables) {
		if s.handTable >= len(s.tables) {
			s.handTable, s.handSlot = 0, 0
		}
		t := s.tables[s.handTable]
		if key, next, ok := t.Sweep(s.handSlot); ok {
			s.handSlot = next
			return t, key, true
		}
		s.handTable, s.handSlot = s.handTable+1, 0
	}
	return nil, 0, false
}

// spill appends the resident bucket of t's key, which victim found
// non-empty, to the active segment's tail as one more span of the
// key's spilled part and detaches it from the table; nothing is read.
// Returns false when the disk failed (fail open): a segment that cannot
// be created leaves the bucket resident, a tail that cannot be flushed
// keeps serving its spans from memory.
func (s *Store) spill(t Table, key tuple.Value) bool {
	rows := t.ResidentBucket(key)
	// Rotate past the size threshold, or to replace an active segment
	// whose writer died on an earlier failure.
	if s.active.w == nil || s.active.size >= s.segBytes {
		if err := s.rotate(); err != nil {
			s.spillErrors.Add(1)
			return false
		}
	}
	seg := s.active
	sp := seg.appendBucket(rows)
	s.encTotal.Add(sp.n)
	s.encLive.Add(sp.n)
	if len(s.free) == 0 {
		s.free = append(s.free, &Part{})
	}
	fresh := s.free[len(s.free)-1]
	p, mem := t.MarkSpilled(key, fresh)
	if p == fresh {
		s.free = s.free[:len(s.free)-1]
		s.spilledBuckets.Add(1)
	}
	p.spans = append(p.spans, sp)
	seg.dir = append(seg.dir, dirent{p, sp.off})
	p.count += rows.Len()
	p.newest = rows.Data[len(rows.Data)-tuple.RowWidth(rows.Set)+tuple.RowSeqs]
	p.liveEnc += sp.n
	p.perEnc = p.liveEnc / int64(p.count)
	p.memBytes += mem
	p.perMem = p.memBytes / int64(p.count)
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

// Free forgets a spilled part, turning its frames into garbage, and
// recycles the record. The table that held p drops it: Clear, table
// teardown, and through Fault and Tombstone.
func (s *Store) Free(p *Part) {
	s.encLive.Add(-p.liveEnc)
	s.spilledMem.Add(-p.memBytes)
	s.spilledBuckets.Add(-1)
	clear(p.spans) // a stale span would pin its deleted segment
	*p = Part{spans: p.spans[:0]}
	s.free = append(s.free, p)
}

// Fault reads a spilled part back and frees it, counting and
// latency-sampling the miss. It appends the part's live rows, oldest
// first, to dst and returns it; the caller drops p.
func (s *Store) Fault(p *Part, dst []uint64) []uint64 {
	start := time.Now()
	n := p.count
	rows, err := s.load(p, dst)
	if err != nil {
		// The resident copy was discarded when the bucket spilled; an
		// unreadable segment is unrecoverable state loss, not a
		// degradable condition.
		panic(fmt.Sprintf("statestore: faulting a spilled part: %v", err))
	}
	s.Free(p)
	s.faults.Add(1)
	s.faultTuples.Add(uint64(n))
	if s.faultLat != nil {
		s.faultLat.Record(time.Since(start))
	}
	s.maybeCompact()
	return rows.Data
}

// Peek returns the live rows of a spilled part, oldest first, in a
// fresh run, without admitting them: a caller that re-enters the table
// (and with it the store's read buffer) cannot disturb them.
func (s *Store) Peek(p *Part) []uint64 {
	rows, err := s.load(p, nil)
	if err != nil {
		panic(fmt.Sprintf("statestore: peeking a spilled part: %v", err))
	}
	return rows.Data
}

// Tombstone records window eviction of one one-stream row of a
// spilled part, with sequence number deadThrough, without faulting. It
// reports whether the part emptied; then it is freed and the caller
// drops p.
func (s *Store) Tombstone(p *Part, deadThrough uint64) (emptied bool) {
	s.tombstones.Add(1)
	emptied = p.count == 1
	if emptied {
		s.Free(p)
	} else {
		p.deadThrough = max(p.deadThrough, deadThrough)
		p.dirty = true
		p.count--
		d := min(p.perEnc, p.liveEnc)
		p.liveEnc -= d
		s.encLive.Add(-d)
		dm := min(p.perMem, p.memBytes)
		p.memBytes -= dm
		s.spilledMem.Add(-dm)
	}
	s.maybeCompact()
	return emptied
}

// Drop detaches t once it has freed its spilled parts (table teardown)
// and compacts if their frames tipped the garbage ratio. A hand on t
// moves to the table after it; a table that only accounted to the
// store was never attached and has nothing to detach.
func (s *Store) Drop(t Table) {
	if i := slices.Index(s.tables, t); i >= 0 {
		s.tables = slices.Delete(s.tables, i, i+1)
		if i < s.handTable {
			s.handTable--
		} else if i == s.handTable {
			s.handSlot = 0
		}
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

// load reads a part's spans and appends their rows, oldest first, to
// dst, dropping rows at or below its tombstone mark; Data holds dst
// extended. Memory-served and disk-served spans pass the same frame
// CRC check, and the survivors must be as many as the accounting says.
func (s *Store) load(p *Part, dst []uint64) (tuple.Rows, error) {
	rows := tuple.Rows{Data: dst}
	start := len(dst)
	for _, sp := range p.spans {
		data, err := s.read(sp)
		if err != nil {
			return rows, err
		}
		for off := 0; off < len(data); {
			payload, n, ok := storage.NextFrame(data[off:], maxSpillPayload)
			if !ok {
				return rows, fmt.Errorf("corrupt frame at %s offset %d", sp.seg.path, sp.off+int64(off))
			}
			live := len(rows.Data)
			if rows, err = decodeBucket(rows.Data, payload); err != nil {
				return rows, fmt.Errorf("CRC-valid frame at %s offset %d does not decode: %w", sp.seg.path, sp.off+int64(off), err)
			}
			if w := tuple.RowWidth(rows.Set); p.deadThrough > 0 && rows.Set.Count() == 1 {
				for i := live; i < len(rows.Data); i += w {
					if rows.Data[i+w-1] > p.deadThrough { // the row's one seq
						live += copy(rows.Data[live:], rows.Data[i:i+w])
					}
				}
				rows.Data = rows.Data[:live]
			}
			off += n
		}
	}
	if n := (len(rows.Data) - start) / tuple.RowWidth(rows.Set); n != p.count {
		return rows, fmt.Errorf("decoded %d live rows, accounting says %d", n, p.count)
	}
	return rows, nil
}

// maybeCompact rewrites the live set once garbage crosses garbageRatio
// of the total encoded bytes.
func (s *Store) maybeCompact() {
	if s.compactBroken {
		return
	}
	total := s.encTotal.Load()
	if total < s.minCompact {
		return
	}
	if float64(total-s.encLive.Load()) <= garbageRatio*float64(total) {
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
// directory: no part changes until it has taken every one, so a
// failure leaves the store exactly as it was.
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
			p := d.p
			if len(p.spans) == 0 || p.spans[0].seg != old || p.spans[0].off != d.off {
				continue
			}
			seg.dir = append(seg.dir, dirent{p, seg.size})
			if err := s.rewrite(seg, p); err != nil {
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
		p, off := seg.dir[i].p, seg.dir[i].off
		clear(p.spans)
		p.spans = append(p.spans[:0], span{seg, off, end - off})
		if p.dirty {
			// The tombstone mark stays: the filtered tuples are gone
			// from the rewrite, and future evictions only raise it.
			p.dirty = false
			p.liveEnc = end - off
			p.perEnc = p.liveEnc / int64(p.count)
		}
		end = off
	}
	s.encTotal.Store(seg.size)
	s.encLive.Store(seg.size)
	s.nsegs.Store(1)
	s.compactions.Add(1)
	return nil
}

// rewrite appends p's live content to seg as one run of frames: a part
// no tombstone has touched is CRC-checked and copied byte for byte, the
// others are decoded, filtered and re-encoded.
func (s *Store) rewrite(seg *segment, p *Part) error {
	if p.dirty {
		rows, err := s.load(p, nil)
		if err == nil {
			seg.appendBucket(rows)
		}
		return err
	}
	for _, sp := range p.spans {
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
	// table using the store; PeakResidentBytes is its high-water
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
