package metrics

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// TestOutputLatency: output latency is a figure instrument (package
// bench measures it), not something an executor's counters keep.
// Transitions and outputs are plain counts, so a snapshot — what a
// checkpoint encodes — holds nothing per transition and does not grow
// with migrations: 130 and 250 transitions, each followed by an output,
// encode to the same number of bytes.
func TestOutputLatency(t *testing.T) {
	encoded := func(transitions int) (Snapshot, int) {
		var c Snapshot
		for i := 0; i < transitions; i++ {
			c.Transitions++
			c.Output++
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(c); err != nil {
			t.Fatal(err)
		}
		return c, buf.Len()
	}
	few, fewBytes := encoded(130)
	many, manyBytes := encoded(250)
	if few != (Snapshot{Transitions: 130, Output: 130}) || many != (Snapshot{Transitions: 250, Output: 250}) {
		t.Fatalf("snapshots %+v and %+v, want only the transition and output counts", few, many)
	}
	if fewBytes != manyBytes {
		t.Fatalf("snapshot encodes to %d B after 130 transitions, %d B after 250; want equal", fewBytes, manyBytes)
	}
}

// TestSnapshotIsCopy: a snapshot handed out is a value, so the
// executor counting on leaves it as it was.
func TestSnapshotIsCopy(t *testing.T) {
	var c Snapshot
	c.Input = 3
	c.Transitions++
	s := c
	c.Input = 99
	c.Transitions++
	if s.Input != 3 || s.Transitions != 1 {
		t.Fatalf("Snapshot shares counters: %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

func TestSnapshotAdd(t *testing.T) {
	a := Snapshot{Input: 1, Output: 2, Probes: 3, MigrationWork: 4}
	b := Snapshot{Input: 10, Output: 20, Probes: 30, MigrationWork: 40}
	if sum := a.Add(b); sum != (Snapshot{Input: 11, Output: 22, Probes: 33, MigrationWork: 44}) {
		t.Fatalf("Add = %+v", sum)
	}
}

func TestMergeShards(t *testing.T) {
	shards := []Snapshot{
		{Input: 5, Transitions: 2},
		{Input: 7, Transitions: 2},
		{Input: 1, Transitions: 1}, // shard migrated once less (mid-fan-out read)
	}
	m := MergeShards(shards)
	if m.Input != 13 {
		t.Fatalf("Input = %d, want 13", m.Input)
	}
	if m.Transitions != 2 {
		t.Fatalf("Transitions = %d, want 2 (max, not sum)", m.Transitions)
	}
}

func TestSnapshotStringSections(t *testing.T) {
	s := Snapshot{
		Input: 1, Output: 2, Completions: 3, CompletedEntries: 4, Transitions: 7,
	}
	str := s.String()
	for _, want := range []string{"in=1 out=2", "completions=3(+4 entries)", "transitions=7"} {
		if !contains(str, want) {
			t.Errorf("String %q missing %q", str, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
