package compute

import (
	"errors"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func intRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestMap(t *testing.T) {
	p := NewPool(4, nil)
	got, err := Map(p, intRange(100), func(x int) (int, error) { return x * 2, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("len %d, want 100", len(got))
	}
	for i, v := range got {
		if v != i*2 {
			t.Fatalf("map order/value at %d: %d", i, v)
		}
	}
}

// TestMapError: the task error reaches the caller wrapped, not formatted,
// so errors.Is finds the cause.
func TestMapError(t *testing.T) {
	cause := errors.New("boom")
	_, err := Map(NewPool(2, nil), intRange(10), func(x int) (int, error) {
		if x == 7 {
			return 0, cause
		}
		return x, nil
	})
	if !errors.Is(err, cause) {
		t.Errorf("errors.Is(err, cause) = false for %v", err)
	}
}

// TestMapPreservesOrderProperty: the output is index-aligned with the
// input for lengths 0, 1, below the worker count and far above it.
func TestMapPreservesOrderProperty(t *testing.T) {
	check := func(xs []int, workers uint8) bool {
		got, err := Map(NewPool(int(workers%8)+1, nil), xs, func(x int) (int, error) { return x + 1, nil })
		if err != nil || len(got) != len(xs) {
			return false
		}
		for i := range xs {
			if got[i] != xs[i]+1 {
				return false
			}
		}
		return true
	}
	for _, n := range []int{0, 1, 3, 1000} {
		if !check(intRange(n), 7) {
			t.Errorf("length %d on 8 workers: output not index-aligned", n)
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestPoolDefaults(t *testing.T) {
	if p := NewPool(0, nil); p.workers < 1 {
		t.Error("workers default")
	}
	if p := NewPool(-5, nil); p.workers < 1 {
		t.Error("negative workers default")
	}
}

// highWater tracks the peak number of tasks inside one job.
type highWater struct{ cur, peak atomic.Int64 }

func (h *highWater) enter() {
	n := h.cur.Add(1)
	for {
		old := h.peak.Load()
		if n <= old || h.peak.CompareAndSwap(old, n) {
			break
		}
	}
	time.Sleep(time.Millisecond) // hold the slot so overlaps happen
}

func (h *highWater) leave() { h.cur.Add(-1) }

// TestConcurrencyBound: Map never has more than workers tasks in flight.
func TestConcurrencyBound(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		p := NewPool(workers, nil)

		var m highWater
		if _, err := Map(p, intRange(64), func(x int) (int, error) {
			m.enter()
			defer m.leave()
			return x, nil
		}); err != nil {
			t.Fatal(err)
		}
		if peak := m.peak.Load(); peak > int64(workers) || peak < 1 {
			t.Errorf("Map on %d workers: peak %d tasks in flight", workers, peak)
		}
	}
}
