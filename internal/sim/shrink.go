package sim

import "jisc/internal/workload"

// Shrink reduces a failing scenario to a minimal one that still
// fails, ddmin-style: first truncate to the first divergence point and
// turn off every layer the failure does not need, then alternately
// drop migrations and remove event chunks of halving size until
// neither makes progress or the run budget is spent. check is usually
// Run; because Run is deterministic, rerunning the original seed
// reproduces the same minimal scenario.
func Shrink(sc Scenario, m *Mismatch, check func(Scenario) *Mismatch, budget int) (Scenario, *Mismatch) {
	best, bestM := sc, m
	runs := 0
	try := func(c Scenario) bool {
		if runs >= budget {
			return false
		}
		runs++
		if mm := check(c); mm != nil {
			best, bestM = c, mm
			return true
		}
		return false
	}

	truncate := func() bool {
		if bestM.Batch <= 0 || bestM.Batch >= len(best.Events) {
			return false
		}
		return try(without(best, bestM.Batch, len(best.Events)-bestM.Batch))
	}
	truncate()

	for _, l := range layers {
		if c := best; l.on(&c) {
			l.off(&c)
			try(c)
		}
	}

	for progress := true; progress && runs < budget; {
		progress = false
		for i := len(best.Migrations) - 1; i >= 0; i-- {
			if i >= len(best.Migrations) {
				continue
			}
			c := best
			c.Migrations = append(append([]Migration{}, best.Migrations[:i]...), best.Migrations[i+1:]...)
			if try(c) {
				progress = true
			}
		}
		for size := len(best.Events) / 2; size >= 1; size /= 2 {
			for start := 0; start+size <= len(best.Events) && runs < budget; {
				if try(without(best, start, size)) {
					progress = true
					// best shrank in place; the next chunk slid to start.
				} else {
					start += size
				}
			}
		}
		if truncate() {
			progress = true
		}
	}
	return best, bestM
}

// without removes the event chunk [start, start+size), remapping
// migration indices so each switch keeps its position relative to the
// surviving events, and keeping the checkpoint inside the log.
func without(sc Scenario, start, size int) Scenario {
	c := sc
	c.Events = append(append([]workload.Event{}, sc.Events[:start]...), sc.Events[start+size:]...)
	c.Migrations = make([]Migration, 0, len(sc.Migrations))
	for _, m := range sc.Migrations {
		at := m.At
		switch {
		case at > start+size:
			at -= size
		case at > start:
			at = start
		}
		c.Migrations = append(c.Migrations, Migration{At: at, Plan: m.Plan})
	}
	c.CheckpointAt = min(c.CheckpointAt, len(c.Events))
	return c
}
