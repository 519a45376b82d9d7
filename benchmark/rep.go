package main

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"time"

	jiscrt "jisc/internal/runtime"
	"jisc/internal/server"
	"jisc/internal/tuple"
)

// stallTimeout ends a repetition whose results stop arriving; whatever
// is still missing then counts as failed.
const stallTimeout = 10 * time.Second

var newline = []byte{'\n'}

// subReader drains the subscriber connection into one preallocated
// buffer. The timed path allocates nothing: each read is stamped and
// its lines counted; the lines themselves are parsed after the run.
type subReader struct {
	h    *harness
	conn net.Conn
	buf  []byte
	n    int
	// chunkEnd[i] is the buffer offset the i-th read ended at and
	// chunkT[i] the time it returned: the receive time of every line
	// whose terminator lies in that read.
	chunkEnd, chunkT []int64
	lines            atomic.Int64
	lastT            atomic.Int64
	// want is the line count awaitLines sleeps for; wake is signalled
	// when it is reached.
	want atomic.Int64
	wake chan struct{}
	tick *time.Ticker
	done chan struct{}
}

// newSubReader allocates the reader's buffers, sized by the reference;
// start attaches the connection. The two are apart so that set-up time
// does not include clearing up to 200 MB of receive buffer.
func newSubReader(h *harness, exp expect) *subReader {
	r := &subReader{
		h:        h,
		buf:      make([]byte, exp.wireBytes+64<<10),
		chunkEnd: make([]int64, 0, exp.results+1<<16),
		chunkT:   make([]int64, 0, exp.results+1<<16),
		wake:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	r.want.Store(math.MaxInt64)
	return r
}

func (r *subReader) start(conn net.Conn) {
	r.conn = conn
	r.tick = time.NewTicker(time.Second)
	go r.run()
}

func (r *subReader) run() {
	defer close(r.done)
	for {
		if r.n == len(r.buf) {
			// More bytes than the reference predicted: the run already
			// failed its check; keep draining so the count is honest.
			r.buf = append(r.buf, make([]byte, 1<<20)...)
		}
		m, err := r.conn.Read(r.buf[r.n:])
		t := r.h.now()
		if m > 0 {
			got := r.lines.Add(int64(bytes.Count(r.buf[r.n:r.n+m], newline)))
			r.n += m
			r.chunkEnd = append(r.chunkEnd, int64(r.n))
			r.chunkT = append(r.chunkT, t)
			r.lastT.Store(t)
			if got >= r.want.Load() {
				select {
				case r.wake <- struct{}{}:
				default:
				}
			}
		}
		if err != nil {
			return
		}
	}
}

// awaitLines blocks until n result lines have arrived; it gives up,
// returning false, when none has for stallTimeout.
func (r *subReader) awaitLines(n int) bool {
	began := r.h.now()
	r.want.Store(int64(n))
	for r.lines.Load() < int64(n) {
		select {
		case <-r.wake:
		case <-r.tick.C:
			if time.Duration(r.h.now()-max(began, r.lastT.Load())) > stallTimeout {
				return false
			}
		}
	}
	return true
}

// close ends the reader; its buffers may be read afterwards.
func (r *subReader) close() {
	r.conn.Close()
	<-r.done
	r.tick.Stop()
}

// feeder is the closed-loop producer: one batch in flight.
type feeder struct {
	conn net.Conn
	ack  [4096]byte
}

// roundTrip writes one pipelined burst and reads its n response lines.
// It returns a bit mask of the lines that were not "OK".
func (f *feeder) roundTrip(burst []byte, n int) (bad uint, err error) {
	if _, err := f.conn.Write(burst); err != nil {
		return 0, err
	}
	have, lines := 0, 0
	for lines < n {
		if have == len(f.ack) {
			return 0, fmt.Errorf("response overflows %d bytes: %q", len(f.ack), f.ack[:64])
		}
		m, err := f.conn.Read(f.ack[have:])
		if err != nil {
			return 0, err
		}
		lines += bytes.Count(f.ack[have:have+m], newline)
		have += m
	}
	rest := f.ack[:have]
	for i := 0; i < n; i++ {
		nl := bytes.IndexByte(rest, '\n')
		if string(rest[:nl]) != "OK" {
			bad |= 1 << i
		}
		rest = rest[nl+1:]
	}
	return bad, nil
}

// repOut is everything one repetition measured.
type repOut struct {
	// invalid is why the repetition must be rerun ("" = valid).
	invalid string

	setupS, timedS float64
	// lat holds the result latency (ns) of every timed result,
	// ascending; migLat those whose newest tuple was fed in a migration
	// stage.
	lat, migLat []int64
	// ackNs and migrateNs are the per-batch ack and per-MIGRATE round
	// trips of the timed phase, ascending.
	ackNs, migrateNs []int64
	rssMB            float64
	serverCPUs       float64
	genCPUShare      float64
	calibMops        float64
	pinned           bool
	stats            server.Stats

	attempted, failed int
	mismatch          string
}

func (o *repOut) throughput(in *input) float64 { return float64(in.timedTuples()) / o.timedS }

// calibrate runs a fixed pure-Go hash-and-map loop and returns its speed
// in Mops: a yardstick of machine speed around a repetition, to
// diagnose slow spells — never to normalise a result.
func calibrate() float64 {
	const ops = 1 << 21
	m := make(map[uint64]uint64, 1<<14)
	r := rng{s: 1}
	start := time.Now()
	var sum uint64
	for i := 0; i < ops; i++ {
		k := r.next() & (1<<14 - 1)
		sum += m[k]
		m[k] = sum ^ uint64(i)
	}
	calibSink = sum
	return ops / time.Since(start).Seconds() / 1e6
}

var calibSink uint64

func dialTCP(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 5*time.Second)
}

// subscribe opens the subscriber connection and reads the SUBSCRIBE
// ack; nothing else can arrive on it before the first feed.
func subscribe(addr string) (net.Conn, error) {
	conn, err := dialTCP(addr)
	if err != nil {
		return nil, err
	}
	f := feeder{conn: conn}
	bad, err := f.roundTrip([]byte("SUBSCRIBE\n"), 1)
	if err == nil && bad != 0 {
		err = fmt.Errorf("SUBSCRIBE refused: %q", f.ack[:32])
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// repetition runs one full measurement of in against a fresh server
// child: spawn, warm-up (first 10% of the tuples, untimed), timed phase
// (the rest, from the first timed batch's write to the receipt of the
// last expected result), then the check against exp.
func (h *harness) repetition(in *input, exp expect) (out *repOut, err error) {
	dir, err := os.MkdirTemp(h.tmp, in.sp.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	out = &repOut{}
	writeStart := make([]int64, in.batches)
	timedBatches := in.batches - in.warmBatches
	out.ackNs = make([]int64, 0, timedBatches)
	out.migrateNs = make([]int64, 0, len(in.migrate))
	out.lat = make([]int64, 0, exp.results-exp.warmResults)
	out.migLat = make([]int64, 0, exp.results-exp.warmResults)

	rd := newSubReader(h, exp)
	calibBefore := calibrate()
	// The generator's timed path allocates nothing, so the collector
	// has nothing to do — and must not stall the subscriber's reader.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	t0 := h.now()
	c, err := h.spawn(in.sp, dir)
	if err != nil {
		return nil, err
	}
	defer func() {
		if serr := c.stop(); err == nil && serr != nil {
			err = fmt.Errorf("server child: %w", serr)
		}
	}()
	out.pinned = c.pinned
	pid := c.cmd.Process.Pid
	feedConn, err := dialTCP(c.addr)
	if err != nil {
		return nil, err
	}
	defer feedConn.Close()
	subConn, err := subscribe(c.addr)
	if err != nil {
		return nil, err
	}
	rd.start(subConn)
	defer rd.close()

	fd := &feeder{conn: feedConn}
	notAcked := 0
	var cpu0, genCPU0 float64
	var lastAck int64
	for b := 0; b < in.batches; b++ {
		if b == in.warmBatches {
			rd.awaitLines(exp.warmResults)
			out.setupS = float64(h.now()-t0) / 1e9
			cpu0, _ = procCPUSeconds(pid)
			genCPU0, _ = procCPUSeconds(os.Getpid())
		}
		writeStart[b] = h.now()
		bad, err := fd.roundTrip(in.wire[in.lineOff[b]:in.lineOff[b+1]], in.sp.streams)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", b, err)
		}
		lastAck = h.now()
		if b >= in.warmBatches {
			out.ackNs = append(out.ackNs, lastAck-writeStart[b])
		}
		for s := 0; bad != 0; s, bad = s+1, bad>>1 {
			if bad&1 != 0 {
				notAcked += in.perStream[s]
			}
		}
		// Acks are sent at enqueue, so they alone do not bound the work
		// inside the server: batch b+1 is written only once every result
		// due through batch b-1 has arrived — one batch being processed,
		// one queued behind it, never more.
		if b > 0 && !rd.awaitLines(exp.cum[b-1]) {
			break
		}
		if k, ok := in.migrateAfter(b); ok {
			start := h.now()
			bad, err := fd.roundTrip(in.migrate[k], 1)
			if err != nil || bad != 0 {
				return nil, fmt.Errorf("MIGRATE %d after batch %d refused: %q %v", k, b, fd.ack[:32], err)
			}
			if b >= in.warmBatches {
				out.migrateNs = append(out.migrateNs, h.now()-start)
			}
		}
	}
	rd.awaitLines(exp.results)
	// Give a surplus result the chance to show up before the count is
	// taken: the reference says none is due.
	time.Sleep(20 * time.Millisecond)
	begin := writeStart[in.warmBatches]
	if begin == 0 {
		begin = t0 // the results stalled before the timed phase began
	}
	wall := float64(h.now()-begin) / 1e9
	cpu1, _ := procCPUSeconds(pid)
	genCPU1, _ := procCPUSeconds(os.Getpid())
	out.serverCPUs = cpu1 - cpu0
	out.genCPUShare = (genCPU1 - genCPU0) / wall

	sc, err := server.Dial(c.addr)
	if err != nil {
		return nil, err
	}
	out.stats, err = sc.Stats()
	sc.Close()
	if err != nil {
		return nil, err
	}
	if out.rssMB, err = procPeakRSSMB(pid); err != nil {
		return nil, err
	}
	rd.close()
	out.calibMops = (calibBefore + calibrate()) / 2

	a := in.analyse(rd.buf[:rd.n], rd.chunkEnd, rd.chunkT, writeStart, out.lat, out.migLat)
	out.lat, out.migLat = a.lat, a.migLat
	slices.Sort(out.lat)
	slices.Sort(out.migLat)
	slices.Sort(out.ackNs)
	slices.Sort(out.migrateNs)
	// The timed phase ends with the receipt of the last result (nothing
	// arrives after it), or with the last ack when that came later.
	end := lastAck
	if n := len(rd.chunkT); n > 0 {
		end = max(end, rd.chunkT[n-1])
	}
	out.timedS = float64(end-begin) / 1e9

	out.attempted = in.tuples() + exp.results
	out.failed = notAcked
	if a.lines != exp.results || a.bad != 0 || a.hash != exp.hash {
		out.failed += max(exp.results, a.lines)
		out.mismatch = fmt.Sprintf("%d results (%d malformed) hash %016x, reference %d results hash %016x",
			a.lines, a.bad, a.hash, exp.results, exp.hash)
	}
	switch {
	case out.genCPUShare > 0.9:
		out.invalid = fmt.Sprintf("generator used %.2f of its CPU: it, not the server, was the bottleneck", out.genCPUShare)
	case h.pin && !out.pinned:
		out.invalid = "server child was not pinned as requested"
	case out.stats.SubsDropped > 0:
		out.invalid = fmt.Sprintf("server dropped the subscriber %d times", out.stats.SubsDropped)
	case out.stats.Rejected+out.stats.AdmissionShed > 0:
		out.invalid = fmt.Sprintf("admission rejected %d and shed %d tuples", out.stats.Rejected, out.stats.AdmissionShed)
	}
	return out, nil
}

// validRepetition is repetition with the generator's self-check
// applied: a repetition that comes back invalid is run once more.
func (h *harness) validRepetition(in *input, exp expect) (*repOut, error) {
	out, err := h.repetition(in, exp)
	if err == nil && out.invalid != "" {
		fmt.Fprintf(os.Stderr, "benchmark: %s repetition invalid (%s); rerunning once\n", in.sp.name, out.invalid)
		out, err = h.repetition(in, exp)
	}
	return out, err
}

// analysis is what the post-run pass over the received bytes found.
type analysis struct {
	lines, bad  int
	hash        uint64
	lat, migLat []int64
}

// analyse parses the received result lines: the multiset hash, and for
// each result of the timed phase its latency — receive time minus the
// write-start time of the batch that carried its newest contributing
// tuple.
func (in *input) analyse(buf []byte, chunkEnd, chunkT, writeStart []int64, lat, migLat []int64) analysis {
	a := analysis{lat: lat[:0], migLat: migLat[:0]}
	ci := 0
	for pos := 0; pos < len(buf); {
		nl := bytes.IndexByte(buf[pos:], '\n')
		if nl < 0 {
			a.bad++ // a torn last line
			break
		}
		line := buf[pos : pos+nl]
		for chunkEnd[ci] <= int64(pos+nl) {
			ci++
		}
		pos += nl + 1
		a.lines++
		rest, ok := bytes.CutPrefix(line, []byte(resultPrefix))
		if !ok {
			a.bad++
			continue
		}
		a.hash += lineHash(rest)
		b, ok := in.newestBatch(rest)
		if !ok {
			a.bad++
			continue
		}
		if b < in.warmBatches {
			continue
		}
		d := chunkT[ci] - writeStart[b]
		a.lat = append(a.lat, d)
		if in.inStage(b) {
			a.migLat = append(a.migLat, d)
		}
	}
	return a
}

// newestBatch maps a result's "<key> <stream>#<seq>|…" to the batch
// that carried its newest contributing tuple. seq is the per-stream
// arrival index on the shard the key routes to.
func (in *input) newestBatch(rest []byte) (int, bool) {
	i := 0
	neg := false
	if i < len(rest) && rest[i] == '-' {
		neg = true
		i++
	}
	var key int64
	start := i
	for ; i < len(rest) && rest[i] != ' '; i++ {
		if rest[i] < '0' || rest[i] > '9' {
			return 0, false
		}
		key = key*10 + int64(rest[i]-'0')
	}
	if i == start || i == len(rest) {
		return 0, false
	}
	if neg {
		key = -key
	}
	byStream := in.batchOf[jiscrt.ShardOf(tuple.Value(key), in.sp.shards)]
	newest := -1
	for i < len(rest) {
		i++ // the ' ' or '|' before a ref
		var stream, seq int
		start = i
		for ; i < len(rest) && rest[i] != '#'; i++ {
			if rest[i] < '0' || rest[i] > '9' || stream >= len(byStream) {
				return 0, false
			}
			stream = stream*10 + int(rest[i]-'0')
		}
		if i == start || i == len(rest) || stream >= len(byStream) {
			return 0, false
		}
		i++
		start = i
		for ; i < len(rest) && rest[i] != '|'; i++ {
			if rest[i] < '0' || rest[i] > '9' {
				return 0, false
			}
			seq = seq*10 + int(rest[i]-'0')
		}
		if i == start || seq < 1 || seq > len(byStream[stream]) {
			return 0, false
		}
		newest = max(newest, int(byStream[stream][seq-1]))
	}
	return newest, newest >= 0
}
