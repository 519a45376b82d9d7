package sim

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
