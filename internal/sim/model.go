package sim

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"jisc/internal/tuple"
	"jisc/internal/workload"
)

// oracle is the naive reference executor: per-stream count windows
// and, on every arrival, a full recomputation of the multi-way join
// results the arrival completes. Because every join in the query
// matches on the single shared key attribute, the incremental output
// of any plan over the same windows is exactly "one tuple per stream,
// all with the arriving key, newest tuple included" — independent of
// plan shape and of any migration in progress. That independence is
// the JISC correctness invariant the differential harness tests.
//
// An oracle models one shard: the sharded comparison builds one
// oracle per shard and routes events with runtime.ShardOf.
type oracle struct {
	sizes []int
	wins  [][]oentry
	seqs  []uint64
	outs  map[string]int
}

type oentry struct {
	seq uint64
	key tuple.Value
}

func newOracle(windows []int) *oracle {
	return &oracle{
		sizes: windows,
		wins:  make([][]oentry, len(windows)),
		seqs:  make([]uint64, len(windows)),
		outs:  map[string]int{},
	}
}

// feed slides the arriving stream's window, admits the tuple, and
// emits every combination of one same-key tuple per other stream —
// mirroring the engine, which slides before probing so a new tuple
// never joins expired ones.
func (o *oracle) feed(ev workload.Event) {
	s := int(ev.Stream)
	w := o.wins[s]
	if len(w) == o.sizes[s] {
		copy(w, w[1:])
		w = w[:len(w)-1]
	}
	o.seqs[s]++
	w = append(w, oentry{seq: o.seqs[s], key: ev.Key})
	o.wins[s] = w

	// The arriving tuple is its own stream's sole contributor: a
	// result holds exactly one ref per stream, and results pairing
	// only older tuples were emitted on their own arrivals.
	match := make([][]uint64, len(o.wins))
	for t := range o.wins {
		if t == s {
			match[t] = []uint64{o.seqs[s]}
			continue
		}
		for _, e := range o.wins[t] {
			if e.key == ev.Key {
				match[t] = append(match[t], e.seq)
			}
		}
		if len(match[t]) == 0 {
			return
		}
	}

	// Cross product over the per-stream candidate lists. Iterating
	// streams in ascending order yields refs already sorted by
	// (stream, seq), matching tuple.Fingerprint's canonical form.
	chosen := make([]uint64, len(match))
	buf := make([]byte, 0, 4*len(match))
	var emit func(t int)
	emit = func(t int) {
		if t == len(match) {
			buf = buf[:0]
			for i, q := range chosen {
				if i > 0 {
					buf = append(buf, '|')
				}
				buf = strconv.AppendUint(buf, uint64(i), 10)
				buf = append(buf, '#')
				buf = strconv.AppendUint(buf, q, 10)
			}
			o.outs[string(buf)]++
			return
		}
		for _, q := range match[t] {
			chosen[t] = q
			emit(t + 1)
		}
	}
	emit(0)
}

// total is the output count the STATS Output counter must equal.
func total(outs map[string]int) uint64 {
	var n uint64
	for _, c := range outs {
		n += uint64(c)
	}
	return n
}

// diffMultisets renders the difference between two output multisets,
// empty when they are equal. (maps.Equal is the per-batch hot-path
// check; this runs only once a divergence is found.)
func diffMultisets(want, got map[string]int) string {
	var keys []string
	seen := map[string]bool{}
	for k := range want {
		seen[k] = true
	}
	for k := range got {
		seen[k] = true
	}
	for k := range seen {
		keys = append(keys, k)
	}
	// Sort for a stable report; the shrinker reruns scenarios and
	// compares failure output across runs.
	sort.Strings(keys)
	var b strings.Builder
	n := 0
	for _, k := range keys {
		if want[k] == got[k] {
			continue
		}
		fmt.Fprintf(&b, "    %s: want %d, got %d\n", k, want[k], got[k])
		if n++; n > 12 {
			b.WriteString("    ...\n")
			break
		}
	}
	return b.String()
}

// bucketModel is the independent re-implementation of the admission
// TokenBucket arithmetic: identical float operations in identical
// order, so with the same observation timestamps its trajectory must
// equal the real bucket's bit for bit — any drift is a mismatch, not a
// tolerance.
type bucketModel struct {
	rate, burst, tokens float64
	last                int64
}

func (m *bucketModel) take(n float64, ns int64) bool {
	if elapsed := ns - m.last; elapsed > 0 {
		m.tokens += float64(elapsed) / 1e9 * m.rate
		if m.tokens > m.burst {
			m.tokens = m.burst
		}
		m.last = ns
	}
	if m.tokens < n {
		return false
	}
	m.tokens -= n
	return true
}
