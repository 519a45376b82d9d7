package admission

import (
	"errors"
	"testing"
	"time"
)

// clock is a manually advanced time source for deterministic
// controller tests.
type clock struct{ t time.Time }

func newClock() *clock               { return &clock{t: time.Unix(1000, 0)} }
func (c *clock) now() time.Time      { return c.t }
func (c *clock) add(d time.Duration) { c.t = c.t.Add(d) }

func TestZeroConfigAdmitsEverything(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero Config reports Enabled")
	}
	c := MustNew(Config{})
	for i := 0; i < 1000; i++ {
		if dec, _ := c.AdmitBatch(1000, 1<<40); dec != Admit {
			t.Fatalf("zero-config controller decided %v", dec)
		}
	}
	if !c.AcquireConn() {
		t.Fatal("zero-config controller refused a connection")
	}
}

func TestNilControllerAdmitsEverything(t *testing.T) {
	var c *Controller
	if dec, _ := c.AdmitBatch(10, 10); dec != Admit {
		t.Fatal("nil controller did not admit")
	}
	if !c.AcquireConn() {
		t.Fatal("nil controller refused a connection")
	}
	c.Release(10)
	c.ReleaseConn()
	c.CountDeadlineShed(1)
	c.StartDrain()
	if c.Draining() {
		t.Fatal("nil controller reports draining")
	}
	if s := c.Snapshot(); s != (Stats{}) {
		t.Fatalf("nil controller snapshot = %+v, want zero", s)
	}
}

func TestRateLimitSheds(t *testing.T) {
	ck := newClock()
	c := MustNew(Config{Rate: 100, Burst: 10, Now: ck.now})
	// The bucket starts full at burst=10: the first 10 tuples pass,
	// the 11th sheds.
	if dec, _ := c.AdmitBatch(10, 0); dec != Admit {
		t.Fatalf("burst batch: %v, want Admit", dec)
	}
	if dec, _ := c.AdmitBatch(1, 0); dec != Shed {
		t.Fatalf("over-rate tuple: %v, want Shed", dec)
	}
	if got := c.Snapshot().ShedTuples; got != 1 {
		t.Fatalf("ShedTuples = %d, want 1", got)
	}
	// 50ms at 100 tuples/sec refills 5 tokens.
	ck.add(50 * time.Millisecond)
	if dec, _ := c.AdmitBatch(5, 0); dec != Admit {
		t.Fatal("refilled tokens not admitted")
	}
	if dec, _ := c.AdmitBatch(1, 0); dec != Shed {
		t.Fatal("tuple beyond refill not shed")
	}
	// Shed is all-or-nothing per batch: a 3-tuple batch against 2
	// tokens sheds whole, leaving the tokens for a smaller batch.
	ck.add(20 * time.Millisecond)
	if dec, _ := c.AdmitBatch(3, 0); dec != Shed {
		t.Fatal("partial-token batch not shed whole")
	}
	if dec, _ := c.AdmitBatch(2, 0); dec != Admit {
		t.Fatal("tokens consumed by a shed batch")
	}
}

func TestBudgetRejectsAndReleases(t *testing.T) {
	c := MustNew(Config{InflightBytes: 100})
	if dec, _ := c.AdmitBatch(2, 60); dec != Admit {
		t.Fatal("first batch rejected")
	}
	if dec, _ := c.AdmitBatch(2, 60); dec != Reject {
		t.Fatal("over-budget batch admitted")
	}
	s := c.Snapshot()
	if s.RejectedTuples != 2 || s.RejectedBatches != 1 {
		t.Fatalf("rejected = %d tuples / %d batches, want 2/1", s.RejectedTuples, s.RejectedBatches)
	}
	if s.InflightBytes != 60 {
		t.Fatalf("InflightBytes = %d, want 60", s.InflightBytes)
	}
	c.Release(60)
	if dec, _ := c.AdmitBatch(2, 100); dec != Admit {
		t.Fatal("released budget not reusable")
	}
}

func TestDeadlineStampAndExpiry(t *testing.T) {
	ck := newClock()
	c := MustNew(Config{FeedDeadline: 10 * time.Millisecond, Now: ck.now})
	dec, deadline := c.AdmitBatch(1, 0)
	if dec != Admit || deadline == 0 {
		t.Fatalf("AdmitBatch = %v deadline=%d, want Admit with a stamp", dec, deadline)
	}
	if c.DeadlineExpired(deadline) {
		t.Fatal("fresh deadline already expired")
	}
	ck.add(11 * time.Millisecond)
	if !c.DeadlineExpired(deadline) {
		t.Fatal("passed deadline not expired")
	}
	if c.DeadlineExpired(0) {
		t.Fatal("zero deadline expired")
	}
	c.CountDeadlineShed(3)
	if got := c.Snapshot().DeadlineShedTuples; got != 3 {
		t.Fatalf("DeadlineShedTuples = %d, want 3", got)
	}
}

func TestDrainRejectsEverything(t *testing.T) {
	c := MustNew(Config{Rate: 1e9})
	c.StartDrain()
	if !c.Draining() {
		t.Fatal("not draining after StartDrain")
	}
	if dec, _ := c.AdmitBatch(5, 0); dec != Reject {
		t.Fatal("draining controller admitted a batch")
	}
	s := c.Snapshot()
	if s.RejectedTuples != 5 || !s.Draining {
		t.Fatalf("snapshot = %+v, want 5 rejected and draining", s)
	}
}

func TestConnGate(t *testing.T) {
	c := MustNew(Config{MaxConns: 2})
	if !c.AcquireConn() || !c.AcquireConn() {
		t.Fatal("conns within the cap refused")
	}
	if c.AcquireConn() {
		t.Fatal("conn beyond the cap admitted")
	}
	if got := c.Snapshot().ConnRejected; got != 1 {
		t.Fatalf("ConnRejected = %d, want 1", got)
	}
	c.ReleaseConn()
	if !c.AcquireConn() {
		t.Fatal("released slot not reusable")
	}
	if got := c.Snapshot().Conns; got != 2 {
		t.Fatalf("Conns = %d, want 2", got)
	}
}

func TestBusyErrorMatchesSentinel(t *testing.T) {
	err := Busy("draining")
	if !errors.Is(err, ErrBusy) {
		t.Fatal("Busy error does not match ErrBusy")
	}
	if got := err.Error(); got != "BUSY draining" {
		t.Fatalf("Error() = %q, want \"BUSY draining\"", got)
	}
}

func TestNewRejectsNegativeLimits(t *testing.T) {
	for _, cfg := range []Config{
		{MaxConns: -1}, {Rate: -1}, {Burst: -1}, {InflightBytes: -1}, {FeedDeadline: -1},
	} {
		if _, err := New(cfg); err == nil {
			t.Fatalf("New(%+v) accepted a negative limit", cfg)
		}
	}
}

func TestBucketNonMonotonicClock(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewTokenBucket(100, 10, now)
	if !b.Take(10, now) {
		t.Fatal("full bucket refused its burst")
	}
	// A clock reading in the past must refill nothing.
	if b.Take(1, now.Add(-time.Hour)) {
		t.Fatal("backwards clock minted tokens")
	}
	if b.Take(1, now) {
		t.Fatal("restored clock minted tokens")
	}
	if !b.Take(1, now.Add(10*time.Millisecond)) {
		t.Fatal("forward progress refused after a clock blip")
	}
}
