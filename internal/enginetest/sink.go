// Package enginetest holds what the equivalence suites (core, runtime,
// sim) share: the naive Reference every Theorem 1 referee holds its
// subjects to, and the output sink through which each of them also
// holds the engine to the lending rule of engine.Output.
package enginetest

import (
	"fmt"

	"jisc/internal/engine"
	"jisc/internal/tuple"
)

// Sink is an engine.Output: the engine lends each result for the
// duration of the call, whatever its root. Sink reads the result the two
// ways the contract allows — its fingerprint inside the callback, into
// Outs, and a Clone kept to the end — and then poisons the lent tuple,
// so an engine that went on reading what it lent, or a consumer that
// kept the pointer, would show up as a wrong result rather than pass by
// luck. It is not safe for concurrent use.
type Sink struct {
	// Outs is the multiset of additions: fingerprint → count.
	Outs map[string]int
	kept []*tuple.Tuple
}

// NewSink returns an empty sink.
func NewSink() *Sink { return &Sink{Outs: map[string]int{}} }

// Output is the engine.Output. Retractions are not counted.
func (s *Sink) Output(d engine.Delta) {
	if d.Retraction {
		return
	}
	s.Outs[d.Tuple.Fingerprint()]++
	s.kept = append(s.kept, d.Tuple.Clone())
	for i := range d.Tuple.Seqs {
		d.Tuple.Seqs[i] = ^uint64(0)
	}
	d.Tuple.Key, d.Tuple.Set = -1, 0
}

// Rows is the engine.Sink, a served query's result path: t's result
// with each row of rows, read in place, counted and kept as by Output.
// Nothing is poisoned: t and rows are the engine's own state.
func (s *Sink) Rows(retract bool, t *tuple.Tuple, rows tuple.Rows) {
	if retract {
		return
	}
	var v tuple.Tuple
	for i := range rows.Len() {
		c := tuple.Join(t, rows.View(i, &v))
		s.Outs[c.Fingerprint()]++
		s.kept = append(s.kept, c)
	}
}

// Check re-reads the clones: their fingerprints must be the multiset
// read inside the callbacks.
func (s *Sink) Check() error {
	again := make(map[string]int, len(s.Outs))
	for _, t := range s.kept {
		again[t.Fingerprint()]++
	}
	for fp, n := range s.Outs {
		if again[fp] != n {
			return fmt.Errorf("result %s: read %d times inside the callback, %d times from the clones kept", fp, n, again[fp])
		}
	}
	if len(again) != len(s.Outs) {
		return fmt.Errorf("%d distinct results from the clones kept, %d read inside the callback", len(again), len(s.Outs))
	}
	return nil
}
