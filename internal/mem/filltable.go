package mem

// fillTable tracks in-flight line fills (MSHR merge state) as an
// open-addressed hash table from fill granule to data-ready cycle. It
// replaces the per-SM / per-bank map[uint64]int64 on the hot path: the
// tables are small (sized by the MSHR count), stay allocated across the
// run, and probe with a multiplicative hash plus linear scan instead of
// the runtime map machinery.
//
// Semantics are exactly those of the maps it replaces: size() counts
// every stored entry (including fills whose ready cycle has passed but
// that have not been deleted yet — the capacity-stall check deliberately
// counts those, matching the original len(map) test), minReady() is the
// minimum ready cycle over those same stored entries, and gc() deletes
// entries with ready <= cutoff. Every consumer is order-independent (min,
// predicate delete, sorted capture), so swapping the map's random
// iteration order for the table's slot order cannot change any simulated
// cycle or digest.
//
// The minimum is cached, not scanned per call. While minValid is set,
// min equals the smallest ready cycle over all stored entries (fillNoReady
// when there are none). set lowers it in place. It goes stale — minValid
// cleared — only when del removes, or set raises, an entry whose ready
// cycle equals the cached minimum; minReady then rescans once. gc, rehash
// and reset rebuild it during the pass they already make over the slots,
// so the capacity-stall check costs O(1) on the common path.
type fillTable struct {
	keys     []uint64
	ready    []int64
	state    []uint8 // slot states: fillEmpty, fillLive, fillDead
	live     int     // stored entries
	used     int     // live + tombstones (probe-chain occupancy)
	min      int64   // cached minimum ready cycle; meaningful only if minValid
	minValid bool

	// Slot arrays retired by the last rehash, reused by the next one.
	spareKeys  []uint64
	spareReady []int64
	spareState []uint8
}

const (
	fillEmpty uint8 = iota
	fillLive
	fillDead // tombstone: deleted, but probe chains pass through

	fillNoReady = int64(1<<62 - 1) // minReady() result for an empty table
)

// initTable sizes the table for an expected MSHR population. Capacity is
// a power of two so the probe mask is cheap; it starts at 8x the MSHR
// count because the garbage collector only triggers above 4x and deletes
// lazily, so the steady-state population can sit just past that line.
func (t *fillTable) initTable(mshrs int) {
	capacity := 8
	for capacity < 8*mshrs {
		capacity *= 2
	}
	t.keys = make([]uint64, capacity)
	t.ready = make([]int64, capacity)
	t.state = make([]uint8, capacity)
	t.live = 0
	t.used = 0
	t.min, t.minValid = fillNoReady, true
}

func fillHash(g uint64) uint64 {
	// Fibonacci multiplicative hash; granules are sequential line/sector
	// indices, so the multiply is what spreads neighbors across slots.
	return g * 0x9e3779b97f4a7c15
}

// size reports the number of stored entries (live fills, expired or not).
func (t *fillTable) size() int { return t.live }

// get returns the ready cycle for granule g, if a fill is stored.
func (t *fillTable) get(g uint64) (int64, bool) {
	mask := uint64(len(t.keys) - 1)
	for i := fillHash(g) & mask; ; i = (i + 1) & mask {
		switch t.state[i] {
		case fillEmpty:
			return 0, false
		case fillLive:
			if t.keys[i] == g {
				return t.ready[i], true
			}
		}
	}
}

// del removes the entry for granule g if present.
func (t *fillTable) del(g uint64) {
	mask := uint64(len(t.keys) - 1)
	for i := fillHash(g) & mask; ; i = (i + 1) & mask {
		switch t.state[i] {
		case fillEmpty:
			return
		case fillLive:
			if t.keys[i] == g {
				t.state[i] = fillDead
				t.live--
				if t.ready[i] == t.min {
					t.minValid = false
				}
				return
			}
		}
	}
}

// set inserts or updates the fill for granule g.
func (t *fillTable) set(g uint64, ready int64) {
	// Keep probe chains short: rehash when the chain occupancy (live +
	// tombstones) passes 3/4 of capacity. Growth doubles only when the
	// live population itself is the pressure; otherwise the rehash just
	// clears tombstones in place.
	if 4*(t.used+1) > 3*len(t.keys) {
		newCap := len(t.keys)
		if 2*t.live >= len(t.keys) {
			newCap *= 2
		}
		t.rehash(newCap)
	}
	mask := uint64(len(t.keys) - 1)
	firstDead := -1
	for i := fillHash(g) & mask; ; i = (i + 1) & mask {
		switch t.state[i] {
		case fillEmpty:
			if firstDead >= 0 {
				i = uint64(firstDead)
			} else {
				t.used++
			}
			t.keys[i] = g
			t.ready[i] = ready
			t.state[i] = fillLive
			t.live++
			if ready < t.min {
				t.min = ready
			}
			return
		case fillLive:
			if t.keys[i] == g {
				if ready < t.min {
					t.min = ready
				} else if t.ready[i] == t.min && ready > t.min {
					t.minValid = false
				}
				t.ready[i] = ready
				return
			}
		case fillDead:
			if firstDead < 0 {
				firstDead = int(i)
			}
		}
	}
}

// rehash rebuilds the table at newCap slots, dropping tombstones. The
// previous slot arrays are kept as the spare set, and a rehash at an
// unchanged capacity (the common, tombstone-clearing case) reuses them,
// so steady-state churn allocates nothing.
func (t *fillTable) rehash(newCap int) {
	oldKeys, oldReady, oldState := t.keys, t.ready, t.state
	if len(t.spareState) == newCap {
		t.keys, t.ready, t.state = t.spareKeys, t.spareReady, t.spareState
		clear(t.state)
	} else {
		t.keys = make([]uint64, newCap)
		t.ready = make([]int64, newCap)
		t.state = make([]uint8, newCap)
	}
	t.spareKeys, t.spareReady, t.spareState = oldKeys, oldReady, oldState
	t.live = 0
	t.used = 0
	t.min, t.minValid = fillNoReady, true
	for i, st := range oldState {
		if st == fillLive {
			t.set(oldKeys[i], oldReady[i])
		}
	}
}

// minReady returns the earliest ready cycle over all stored entries, or
// fillNoReady when the table is empty. This is the capacity-stall query:
// a full MSHR file stalls the requester behind the earliest completing
// fill. It rescans only when the cached minimum has gone stale.
func (t *fillTable) minReady() int64 {
	if !t.minValid {
		earliest := fillNoReady
		for i, st := range t.state {
			if st == fillLive && t.ready[i] < earliest {
				earliest = t.ready[i]
			}
		}
		t.min, t.minValid = earliest, true
	}
	return t.min
}

// gc deletes every entry whose fill completed at or before cutoff and
// rebuilds the cached minimum from the survivors in the same pass.
func (t *fillTable) gc(cutoff int64) {
	earliest := fillNoReady
	for i, st := range t.state {
		if st != fillLive {
			continue
		}
		if r := t.ready[i]; r <= cutoff {
			t.state[i] = fillDead
			t.live--
		} else if r < earliest {
			earliest = r
		}
	}
	t.min, t.minValid = earliest, true
}

// reset drops all entries but keeps the allocation.
func (t *fillTable) reset() {
	for i := range t.state {
		t.state[i] = fillEmpty
	}
	t.live = 0
	t.used = 0
	t.min, t.minValid = fillNoReady, true
}
