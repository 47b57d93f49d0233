package rdbms

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestHashIdxAgainstModel drives hashIdx and a reference
// map[string]map[int]struct{} (the representation it replaced) through
// the same random operations and compares every observable after each
// step: set semantics, emptied keys disappearing, lookup/each agreeing
// and yielding ids in insertion order.
func TestHashIdxAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := newHashIdx()
		model := map[string]map[int]struct{}{}
		order := map[string][]int{} // per key: ids in insertion order

		// Key 0 collects hundreds of ids, a handful hold one or two, the
		// rest a few.
		keyOf := func() Value {
			switch r := rng.Intn(10); {
			case r < 4:
				return Int(0)
			case r < 6:
				return Int(int64(1 + rng.Intn(40)))
			default:
				return Int(int64(100 + rng.Intn(6)))
			}
		}
		idOf := func(v Value) int {
			if v.Int() == 0 {
				return rng.Intn(600)
			}
			if v.Int() < 100 {
				return rng.Intn(2)
			}
			return rng.Intn(12)
		}

		for step := 0; step < 6000; step++ {
			v := keyOf()
			k := v.hashKey()
			id := idOf(v)
			switch op := rng.Intn(10); {
			case op < 5: // insert, duplicates included
				h.insert(v, id)
				if model[k] == nil {
					model[k] = map[int]struct{}{}
				}
				if _, dup := model[k][id]; !dup {
					model[k][id] = struct{}{}
					order[k] = append(order[k], id)
				}
			case op < 8: // remove, absent ids and absent keys included
				h.remove(v, id)
				if _, ok := model[k][id]; ok {
					delete(model[k], id)
					at := slices.Index(order[k], id)
					order[k] = slices.Delete(order[k], at, at+1)
					if len(model[k]) == 0 {
						delete(model, k)
						delete(order, k)
					}
				}
			}

			want := order[k]
			if got := h.lookup(v); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: lookup(%v) = %v, want %v", seed, step, v, got, want)
			}
			var walked []int
			h.each(v, func(id int) bool { walked = append(walked, id); return true })
			if !slices.Equal(walked, want) {
				t.Fatalf("seed %d step %d: each(%v) walked %v, want %v", seed, step, v, walked, want)
			}
			calls := 0
			h.each(v, func(int) bool { calls++; return false })
			if wantCalls := min(1, len(want)); calls != wantCalls {
				t.Fatalf("seed %d step %d: each(%v) ignored stop: %d calls", seed, step, v, calls)
			}
			one, ok := h.lookupOneKey(k)
			if ok != (len(want) > 0) || (ok && one != want[0]) {
				t.Fatalf("seed %d step %d: lookupOneKey(%q) = %d, %v; model holds %v", seed, step, k, one, ok, want)
			}
			if one2, ok2 := h.lookupOne(v); one2 != one || ok2 != ok {
				t.Fatalf("seed %d step %d: lookupOne disagrees with lookupOneKey", seed, step)
			}
			if len(h.m) != len(model) {
				t.Fatalf("seed %d step %d: %d keys held, model has %d", seed, step, len(h.m), len(model))
			}
		}
		if len(order[Int(0).hashKey()]) < 200 {
			t.Fatalf("seed %d: the wide key ended with %d ids; the test no longer covers hundreds", seed, len(order[Int(0).hashKey()]))
		}
	}
}

// TestHashIdxProbesDoNotAllocate guards the two read paths the request
// path runs per lookup: the primary-key probe and the secondary-index
// walk. (Bool keys: their hash key is a constant, so the probe's own
// cost is all that is measured.)
func TestHashIdxProbesDoNotAllocate(t *testing.T) {
	h := newHashIdx()
	for id := 0; id < 300; id++ {
		h.insert(Bool(true), id)
	}
	h.insert(Bool(false), 7)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = String(fmt.Sprintf("art-%06d", i)).hashKey()
		h.insertKey(keys[i], i)
	}

	sum := 0
	if n := testing.AllocsPerRun(100, func() {
		for _, k := range keys {
			id, _ := h.lookupOneKey(k)
			sum += id
		}
	}); n != 0 {
		t.Errorf("lookupOneKey allocates %v times per run", n)
	}
	for _, v := range []Value{Bool(true), Bool(false)} {
		if n := testing.AllocsPerRun(100, func() {
			h.each(v, func(id int) bool { sum += id; return true })
		}); n != 0 {
			t.Errorf("each(%v) allocates %v times per run", v, n)
		}
	}
	if sum == 0 {
		t.Error("probes found nothing")
	}
}
