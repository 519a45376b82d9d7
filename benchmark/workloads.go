package main

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"jisc/internal/plan"
	"jisc/internal/runtime"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// batchTuples is the closed-loop unit: one pipelined write carries this
// many tuples, round-robin over the streams, as one FEEDB line per
// stream.
const batchTuples = 256

// runSeconds is BENCHMARK.json's run_seconds, the run length the
// per-workload tuple counts are written for: 3 repetitions of a ≈6 s
// timed phase on the 2-core reference box, which stays above 5 s in the
// box's fastest spells. --seconds scales the counts linearly from it,
// so a run is fixed work, never a stopwatch.
const runSeconds = 18

// spec is one workload: the query, the key distribution, the server
// options that differ from jiscd's defaults, and the migration cadence.
type spec struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same text).
	why     string
	streams int
	window  int
	// domain is the size of the uniform key range [0, domain).
	domain int64
	// hotPermille of the tuples carry the single hot key (== domain,
	// outside the uniform range) instead of a uniform one.
	hotPermille   uint64
	shards        int
	wal           bool
	inflightBytes int64
	stateBudget   int64
	// migrateEvery is the MIGRATE cadence in tuples; the harness
	// rounds it to whole batches (a batch is in flight as a unit).
	migrateEvery int
	// tuples is the per-repetition count at runSeconds.
	tuples int
}

var specs = []*spec{
	{
		name:    "ingest-durable",
		why:     "thin 3-way join, WAL + admission + 2 shards: server, admission, durable and runtime handoff do most of the work (line-protocol tax); 5.7 M tuples (issue: 8 M ran 9.7 s phases, over the time cap)",
		streams: 3, window: 64, domain: 256, shards: 2, wal: true,
		inflightBytes: 64 << 20, migrateEvery: 20000, tuples: 5700000,
	},
	{
		name:    "migrate-uniform",
		why:     "6-way join, ~1 match per probe, ~30% of tuples in a migration stage: the paper's headline, engine/core/state/window dominate; 3.3 M tuples (issue: 3 M ran 4.9 s phases, under the 5 s floor)",
		streams: 6, window: 1000, domain: 1250, shards: 1,
		migrateEvery: 20000, tuples: 3300000,
	},
	{
		name:    "migrate-hotkey",
		why:     "3-way join with a 2% hot key: one huge bucket (completion, eviction scans) and 8x output fan-out instead of many tiny buckets; 570 k tuples (issue: 600 k ran 5.9 s phases; 6 s like the rest)",
		streams: 3, window: 1000, domain: 4000, hotPermille: 20, shards: 1,
		migrateEvery: 15000, tuples: 570000,
	},
	{
		name:    "spill-half",
		why:     "4-way join under a 1 MiB state budget (~half the working set): statestore spill, fault and compaction do most of the work; 280 k tuples (issue: 300 k ran 7.2 s phases, over the time cap)",
		streams: 4, window: 4000, domain: 4000, shards: 1,
		stateBudget: 1 << 20, migrateEvery: 50000, tuples: 280000,
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// rng is splitmix64: the benchmark's own generator, so the key sequence
// of a seed never depends on the Go release.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// below returns a uniform value in [0, n).
func (r *rng) below(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

// nextKey draws one join key of the workload.
func (sp *spec) nextKey(r *rng) int64 {
	if sp.hotPermille > 0 && r.below(1000) < sp.hotPermille {
		return sp.domain
	}
	return int64(r.below(uint64(sp.domain)))
}

// input is one repetition's pre-generated feed: every key, every
// pre-encoded protocol line, and the maps from a result's provenance
// back to the batch that carried each contributing tuple.
type input struct {
	sp          *spec
	batches     int
	warmBatches int
	// perStream[s] is the number of stream-s tuples in every batch.
	perStream []int
	// keys holds all keys in arrival order: batch-major, and inside a
	// batch stream-major — the order the server sees the FEEDB lines.
	keys []int64
	// wire[lineOff[b]:lineOff[b+1]] is batch b's pipelined write.
	wire    []byte
	lineOff []int
	// batchOf[shard][stream][seq-1] is the batch that fed the tuple the
	// server numbers stream#seq on that shard.
	batchOf [][][]int32
	// migEvery and stageLen are the MIGRATE cadence and the migration
	// stage length, both in batches.
	migEvery, stageLen int
	// migrate[k] is the k-th MIGRATE command line (newline included).
	migrate [][]byte
	plans   []*plan.Plan
}

func (in *input) tuples() int      { return in.batches * batchTuples }
func (in *input) timedTuples() int { return (in.batches - in.warmBatches) * batchTuples }

// migrateAfter reports whether a MIGRATE follows batch b, and which one.
func (in *input) migrateAfter(b int) (int, bool) {
	if (b+1)%in.migEvery != 0 || b+1 >= in.batches {
		return 0, false
	}
	return (b+1)/in.migEvery - 1, true
}

// inStage reports whether batch b falls in a migration stage: the
// streams×window tuples fed after a MIGRATE ack, one full turnover of
// every window.
func (in *input) inStage(b int) bool {
	return b >= in.migEvery && b%in.migEvery < in.stageLen
}

// initialOrder is the left-deep stream order every server starts with.
func initialOrder(streams int) []tuple.StreamID {
	order := make([]tuple.StreamID, streams)
	for i := range order {
		order[i] = tuple.StreamID(i)
	}
	return order
}

// rotated returns the left-deep order after k one-position rotations
// (0,1,2,3 → 1,2,3,0 → …): every intermediate state of the new plan is
// absent from the old one, the paper's worst case.
func rotated(streams, k int) []tuple.StreamID {
	order := make([]tuple.StreamID, streams)
	for i := range order {
		order[i] = tuple.StreamID((i + k) % streams)
	}
	return order
}

func orderString(order []tuple.StreamID) string {
	parts := make([]string, len(order))
	for i, id := range order {
		parts[i] = strconv.Itoa(int(id))
	}
	return strings.Join(parts, ",")
}

// generate builds the repetition's input from the seed. scale
// multiplies the workload's tuple count (1 = runSeconds).
func generate(sp *spec, seed uint64, scale float64) (*input, error) {
	batches := int(float64(sp.tuples)*scale/batchTuples + 0.5)
	migEvery := (sp.migrateEvery + batchTuples/2) / batchTuples
	stageLen := (sp.streams*sp.window + batchTuples - 1) / batchTuples
	if batches < 10 || migEvery < 1 || stageLen > migEvery {
		return nil, fmt.Errorf("workload %s: %d batches at scale %g is too small", sp.name, batches, scale)
	}
	in := &input{
		sp: sp, batches: batches, warmBatches: batches / 10,
		perStream: make([]int, sp.streams),
		migEvery:  migEvery, stageLen: stageLen,
	}
	for i := 0; i < batchTuples; i++ {
		in.perStream[i%sp.streams]++
	}
	r := rng{s: uint64(workload.DeriveSeed(seed, sp.name))}
	in.keys = make([]int64, in.tuples())
	for i := range in.keys {
		in.keys[i] = sp.nextKey(&r)
	}

	in.batchOf = make([][][]int32, sp.shards)
	for sh := range in.batchOf {
		in.batchOf[sh] = make([][]int32, sp.streams)
		for s := range in.batchOf[sh] {
			in.batchOf[sh][s] = make([]int32, 0, in.tuples()/sp.streams/sp.shards*11/10+64)
		}
	}
	in.lineOff = make([]int, batches+1)
	in.wire = make([]byte, 0, in.tuples()*6)
	k := 0
	for b := 0; b < batches; b++ {
		in.lineOff[b] = len(in.wire)
		for s, n := range in.perStream {
			in.wire = append(in.wire, "FEEDB "...)
			in.wire = strconv.AppendInt(in.wire, int64(s), 10)
			for i := 0; i < n; i++ {
				key := in.keys[k]
				k++
				in.wire = append(in.wire, ' ')
				in.wire = strconv.AppendInt(in.wire, key, 10)
				sh := runtime.ShardOf(tuple.Value(key), sp.shards)
				in.batchOf[sh][s] = append(in.batchOf[sh][s], int32(b))
			}
			in.wire = append(in.wire, '\n')
		}
	}
	in.lineOff[batches] = len(in.wire)

	for k := 1; k <= batches/migEvery; k++ {
		order := rotated(sp.streams, k)
		p, err := plan.LeftDeep(order...)
		if err != nil {
			return nil, err
		}
		in.plans = append(in.plans, p)
		in.migrate = append(in.migrate, []byte("MIGRATE "+orderString(order)+"\n"))
	}
	return in, nil
}

// subBatches calls fn with batch b's tuples one FEEDB line at a time,
// as the server's handler delivers them to the runtime. evs is scratch
// of at least batchTuples capacity; fn must not keep it.
func (in *input) subBatches(b int, evs []workload.Event, fn func([]workload.Event)) {
	k := b * batchTuples
	for s, n := range in.perStream {
		evs = evs[:n]
		for i := range evs {
			evs[i] = workload.Event{Stream: tuple.StreamID(s), Key: tuple.Value(in.keys[k])}
			k++
		}
		fn(evs)
	}
}
