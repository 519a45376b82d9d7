package enginetest

import (
	"testing"

	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/workload"
)

// TestSinkPoisonsWhatItWasLent: the sink counts a result and keeps a
// clone before scribbling over the lent tuple, so a pointer kept across
// the call reads poison; and Check notices clones that no longer re-read
// to the fingerprints counted.
func TestSinkPoisonsWhatItWasLent(t *testing.T) {
	s := NewSink()
	var lent []string
	e := engine.MustNew(engine.Config{Plan: plan.MustLeftDeep(0, 1), Output: func(d engine.Delta) {
		s.Output(d)
		lent = append(lent, d.Tuple.Fingerprint())
	}})
	defer e.Close()
	for i := 0; i < 3; i++ {
		e.Feed(workload.Event{Stream: 0, Key: 1})
	}
	e.Feed(workload.Event{Stream: 1, Key: 1})
	if len(s.Outs) != 3 || s.Outs["0#2|1#1"] != 1 {
		t.Fatalf("outs = %v", s.Outs)
	}
	for _, fp := range lent {
		if s.Outs[fp] != 0 {
			t.Fatalf("lent tuple still reads %s after the sink returned", fp)
		}
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	s.kept[0].Refs[0].Seq = 99
	if s.Check() == nil {
		t.Fatal("Check passed a clone that changed")
	}
	s.kept = s.kept[1:]
	if s.Check() == nil {
		t.Fatal("Check passed a missing clone")
	}
}
