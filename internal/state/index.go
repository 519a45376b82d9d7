package state

import (
	"math/bits"

	"jisc/internal/statestore"
	"jisc/internal/tuple"
)

// Slot flags. used marks an occupied slot; the other three are the
// per-key bits a Table keeps beside the bucket.
const (
	used uint8 = 1 << iota
	// hot is the CLOCK reference bit: the resident bucket was touched
	// since the store's hand last passed it.
	hot
	// attempted is Definition 2: the key's entries were computed (or
	// found absent) since the last transition.
	attempted
	// pending is §4.3: the key is still counted by the armed completion
	// counter.
	pending
)

// slot is everything a Table knows about one key: the resident run (the
// rows inserted since the key last spilled, newest last), the spilled
// part the store holds for it, and the flag bits. It holds no pointer
// per tuple.
type slot struct {
	key   tuple.Value
	run   []uint64
	part  *statestore.Part
	flags uint8
}

// holds reports whether the slot has rows, resident or spilled —
// whether its key is one of the table's keys.
func (s *slot) holds() bool { return len(s.run) > 0 || s.part != nil }

// live reports whether the slot must stay: it holds tuples, or one of
// the per-transition marks names its key.
func (s *slot) live() bool { return s.holds() || s.flags&(attempted|pending) != 0 }

// index is an open-addressing hash table of slots: power-of-two sized,
// Fibonacci-hashed, linear probing, deleted by backward shift so a probe
// sequence never needs tombstones. Positions are not stable across
// upsert (which may grow) or remove (which shifts), so callers hold a
// position only between calls that can move slots.
type index struct {
	slots []slot
	n     int   // occupied slots
	shift uint8 // 64 - log2(len(slots))
}

const (
	minSlots = 8
	// fib is 2^64 divided by the golden ratio: multiplying by it
	// spreads consecutive keys across the high bits the home slot is
	// taken from.
	fib = 0x9E3779B97F4A7C15
)

func (x *index) home(k tuple.Value) int { return int(uint64(k) * fib >> x.shift) }

// find returns the position of k's slot, or -1.
func (x *index) find(k tuple.Value) int {
	if x.n == 0 {
		return -1
	}
	mask := len(x.slots) - 1
	for i := x.home(k); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.flags&used == 0 {
			return -1
		}
		if s.key == k {
			return i
		}
	}
}

// reserve grows the table, in one rehash, until n slots fit at most
// three quarters full.
func (x *index) reserve(n int) {
	size := max(minSlots, len(x.slots))
	for 4*n > 3*size {
		size *= 2
	}
	if size != len(x.slots) {
		x.resize(size)
	}
}

// upsert returns the position of k's slot, occupying a fresh one when
// k has none. The table stays at most three quarters full.
func (x *index) upsert(k tuple.Value) int {
	if 4*(x.n+1) > 3*len(x.slots) {
		x.reserve(x.n + 1)
	}
	mask := len(x.slots) - 1
	for i := x.home(k); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.flags&used == 0 {
			s.key, s.flags = k, used
			x.n++
			return i
		}
		if s.key == k {
			return i
		}
	}
}

// resize rehashes every occupied slot into a table of size slots, a
// power of two larger than the occupancy.
func (x *index) resize(size int) {
	old := x.slots
	x.slots = make([]slot, size)
	x.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for i := range old {
		if old[i].flags&used == 0 {
			continue
		}
		j := x.home(old[i].key)
		for x.slots[j].flags&used != 0 {
			j = (j + 1) & mask
		}
		x.slots[j] = old[i]
	}
}

// remove empties the slot at i and closes the gap by backward shift:
// each later slot of the probe run moves into the hole when the hole
// lies between its home and where it sits, so every remaining key stays
// reachable from its home without a tombstone.
func (x *index) remove(i int) {
	mask := len(x.slots) - 1
	for j := (i + 1) & mask; x.slots[j].flags&used != 0; j = (j + 1) & mask {
		// Distance from the slot's home to j, against from the hole to j.
		if (j-x.home(x.slots[j].key))&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = slot{}
	x.n--
}

// sweep applies fn to every occupied slot and removes the slots fn
// leaves dead. A removal can shift a later slot into the position just
// visited, so that position is visited again; a slot shifted back
// across the array's end is visited twice, which fn must tolerate.
func (x *index) sweep(fn func(*slot)) {
	for i := 0; i < len(x.slots); {
		s := &x.slots[i]
		if s.flags&used != 0 {
			fn(s)
			if !s.live() {
				x.remove(i)
				continue
			}
		}
		i++
	}
}
