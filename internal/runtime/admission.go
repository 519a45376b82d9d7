package runtime

// Admission wiring for the sharded Runtime. The controller's
// degradation ladder runs ONCE at the Runtime entry points (Feed,
// FeedBatch) — before routing, before any WAL append — so a shed or
// rejected batch costs nothing downstream and, on the durable path,
// never reaches the log (replay only ever sees admitted traffic).
// Admitted messages carry their deadline and byte reservation to the
// shard workers, which release the reservation when the message
// leaves the queue and shed it counted if its deadline passed first.

import "jisc/internal/admission"

// EventBytes is the in-flight cost model: what one queued tuple is
// charged against the admission controller's byte budget. It
// approximates the real footprint of a queued workload.Event plus its
// queue slot; the budget exists to bound memory order-of-magnitude
// under overload, not to account bytes exactly.
const EventBytes = 32

// Admission returns the runtime's admission controller, nil when
// admission is off.
func (rt *Runtime) Admission() *admission.Controller { return rt.adm }

// admit runs the degradation ladder for a batch of `tuples` tuples.
// ok=false with err=nil means the batch was shed (the caller reports
// success — shed tuples never existed); ok=false with a BUSY err means
// rejected. On ok=true the returned cost is reserved and must travel
// on the message(s) so a worker releases it exactly once.
func (rt *Runtime) admit(tuples int) (deadlineNS, cost int64, ok bool, err error) {
	if rt.adm == nil {
		return 0, 0, true, nil
	}
	cost = int64(tuples) * EventBytes
	dec, deadline := rt.adm.AdmitBatch(tuples, cost)
	switch dec {
	case admission.Shed:
		return 0, 0, false, nil
	case admission.Reject:
		if rt.adm.Draining() {
			return 0, 0, false, admission.Busy("draining")
		}
		return 0, 0, false, admission.Busy("in-flight budget exhausted")
	}
	return deadline, cost, true, nil
}

// PauseAuto ends the autopilot's decision-making (a no-op when AUTO
// is off). The drain path pauses rather than stops: Pause takes effect
// immediately and never joins a goroutine, so it is safe while the
// drain holds server locks.
func (rt *Runtime) PauseAuto() {
	rt.autoMu.Lock()
	defer rt.autoMu.Unlock()
	if rt.auto != nil {
		rt.auto.Pause()
	}
}
