package main

import (
	"strconv"

	"jisc/internal/engine"
	"jisc/internal/migrate"
	"jisc/internal/plan"
	"jisc/internal/workload"
)

// resultPrefix starts every result line the server streams; the rest of
// the line is "<key> <fingerprint>".
const resultPrefix = "RESULT "

// expect is what the reference says a repetition must deliver.
type expect struct {
	// results is the total result count; warmResults the part produced
	// by the warm-up prefix.
	results, warmResults int
	// hash is the order-independent multiset hash of every result's
	// "<key> <fingerprint>".
	hash uint64
	// wireBytes is the exact size of all result lines.
	wireBytes int
	// cum[b] is the result count once batch b is fully processed.
	cum []int
}

// lineHash hashes one result's "<key> <fingerprint>" bytes: FNV-1a with
// a splitmix finalizer, so the per-line hashes can be summed into a
// multiset hash without the sum's low bits being weak.
func lineHash(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	return h ^ (h >> 31)
}

// reference computes the expected output in-process with the eager
// Moving State strategy on the same events, batch order and MIGRATE
// positions, one engine per shard partition (Theorem 1: the lazy
// engine behind TCP, WAL and spill must emit exactly this multiset).
func reference(in *input) (expect, error) {
	var exp expect
	var line []byte
	out := func(d engine.Delta) {
		line = strconv.AppendInt(line[:0], int64(d.Tuple.Key), 10)
		line = append(line, ' ')
		line = append(line, d.Tuple.Fingerprint()...)
		exp.results++
		exp.hash += lineHash(line)
		exp.wireBytes += len(resultPrefix) + len(line) + 1
	}
	sp := in.sp
	set, err := newEngineSet(sp.shards, func(int) engine.Config {
		return engine.Config{
			Plan:       plan.MustLeftDeep(initialOrder(sp.streams)...),
			WindowSize: sp.window,
			Strategy:   migrate.MovingState{},
			Output:     out,
		}
	})
	if err != nil {
		return expect{}, err
	}
	defer set.close()
	evs := make([]workload.Event, batchTuples)
	for b := 0; b < in.batches; b++ {
		if b == in.warmBatches {
			exp.warmResults = exp.results
		}
		in.subBatches(b, evs, set.feed)
		exp.cum = append(exp.cum, exp.results)
		if k, ok := in.migrateAfter(b); ok {
			if err := set.migrate(in.plans[k]); err != nil {
				return expect{}, err
			}
		}
	}
	return exp, nil
}
