package mem

import (
	"math/rand"
	"testing"
)

// scanMinReady is the brute-force minimum the cached one must match: the
// earliest ready cycle over every stored entry, expired or not.
func scanMinReady(t *fillTable) int64 {
	earliest := fillNoReady
	for i, st := range t.state {
		if st == fillLive && t.ready[i] < earliest {
			earliest = t.ready[i]
		}
	}
	return earliest
}

// TestFillTableCachedMinimum drives a fill table through a seeded random
// mix of every mutating operation and checks the cached minimum, the entry
// count and lookups against a plain map after each step.
func TestFillTableCachedMinimum(t *testing.T) {
	var ft fillTable
	ft.initTable(4) // 32 slots: a few dozen live keys force growth and rehash
	if got := ft.minReady(); got != fillNoReady {
		t.Fatalf("empty table minReady = %d, want fillNoReady", got)
	}
	model := map[uint64]int64{}
	rng := rand.New(rand.NewSource(7))
	now := int64(0)
	counts := map[string]int{}
	for step := 0; step < 20000; step++ {
		now += int64(rng.Intn(4))
		g := uint64(rng.Intn(48))
		var op string
		switch r := rng.Intn(100); {
		case r < 45:
			// Insert or update, raising or lowering. Ready cycles fall
			// on both sides of now, so expired-but-uncollected entries
			// are common and must still count.
			op = "set"
			ready := now + int64(rng.Intn(64)) - 24
			if old, ok := model[g]; ok && rng.Intn(2) == 0 {
				ready = old + int64(rng.Intn(9)) - 4 // small move around the old value
			}
			ft.set(g, ready)
			model[g] = ready
		case r < 75:
			op = "del"
			ft.del(g)
			delete(model, g)
		case r < 85:
			op = "gc"
			cutoff := now - int64(rng.Intn(16))
			ft.gc(cutoff)
			for k, v := range model {
				if v <= cutoff {
					delete(model, k)
				}
			}
		case r < 90:
			op = "rehash"
			ft.rehash(len(ft.keys))
		case r < 92:
			op = "reset"
			ft.reset()
			clear(model)
		case r < 97:
			op = "restore"
			p := capturePending(&ft)
			restorePending(&ft, p)
		default:
			// Read-only queries must leave the cache consistent too.
			op = "query"
			ft.minReady()
		}
		counts[op]++

		// Query through a copy: minReady rewrites only the cache fields,
		// so ft keeps whatever stale state the operation left and the
		// next operation is applied to it.
		peek := ft
		if got, want := peek.minReady(), scanMinReady(&ft); got != want {
			t.Fatalf("step %d after %s: minReady = %d, scan = %d", step, op, got, want)
		}
		if !ft.minValid {
			counts["stale"]++
		}
		want := fillNoReady
		for _, v := range model {
			want = min(want, v)
		}
		if got := peek.minReady(); got != want {
			t.Fatalf("step %d after %s: minReady = %d, model minimum %d", step, op, got, want)
		}
		if ft.size() != len(model) {
			t.Fatalf("step %d after %s: size = %d, model %d", step, op, ft.size(), len(model))
		}
		wantReady, wantOK := model[g]
		if got, ok := ft.get(g); ok != wantOK || got != wantReady {
			t.Fatalf("step %d after %s: get(%d) = %d,%v, model %d,%v", step, op, g, got, ok, wantReady, wantOK)
		}
	}
	for _, op := range []string{"set", "del", "gc", "rehash", "reset", "restore", "query", "stale"} {
		if counts[op] == 0 {
			t.Errorf("%s never exercised", op)
		}
	}
}

// TestFillTableExpiredEntriesCount pins the semantics the capacity-stall
// check relies on: a fill whose ready cycle has passed still occupies an
// MSHR and still sets the minimum until gc collects it.
func TestFillTableExpiredEntriesCount(t *testing.T) {
	var ft fillTable
	ft.initTable(2)
	ft.set(1, 10)
	ft.set(2, 50)
	ft.set(3, 30)
	if ft.size() != 3 || ft.minReady() != 10 {
		t.Fatalf("size %d minReady %d, want 3 and 10", ft.size(), ft.minReady())
	}
	// Raising the minimum's entry makes the next-earliest fill the minimum.
	ft.set(1, 60)
	if got := ft.minReady(); got != 30 {
		t.Errorf("after raising the minimum: minReady = %d, want 30", got)
	}
	ft.gc(40) // collects granule 3 only
	if ft.size() != 2 || ft.minReady() != 50 {
		t.Errorf("after gc(40): size %d minReady %d, want 2 and 50", ft.size(), ft.minReady())
	}
	ft.del(2)
	ft.del(1)
	if ft.size() != 0 || ft.minReady() != fillNoReady {
		t.Errorf("emptied table: size %d minReady %d, want 0 and fillNoReady", ft.size(), ft.minReady())
	}
}
