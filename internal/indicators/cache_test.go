package indicators

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// len returns the total number of cached entries.
func (c *reportCache) len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += len(s.entries)
		s.mu.Unlock()
	}
	return total
}

// cacheLen returns the number of reports e's cache holds.
func cacheLen(e *Engine) int {
	if e.cache == nil {
		return 0
	}
	return e.cache.len()
}

// countingDoc builds a distinct well-formed article document.
func countingDoc(i int) string {
	return fmt.Sprintf(`<html><head><title>Study %d examines transmission</title></head><body>
<p>Epidemiologists tracked coronavirus transmission in study %d, citing
surveillance data and quarantine effects on infection rates in careful
detail across hospital wards.</p></body></html>`, i, i)
}

// TestSingleflightConcurrency launches N goroutines evaluating the same
// never-seen document and asserts the underlying pipeline ran once: every
// caller must receive the identical cached *Report. Run under -race this
// also exercises the cache's locking.
func TestSingleflightConcurrency(t *testing.T) {
	e := NewEngine(Config{CacheSize: 64})
	const goroutines = 32
	doc := countingDoc(1)

	var wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)
	reports := make([]*Report, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start.Wait()
			r, err := e.Evaluate(doc, "https://a.example/sf", nil)
			if err != nil {
				t.Error(err)
				return
			}
			reports[g] = r
		}(g)
	}
	start.Done()
	wg.Wait()

	for g := 1; g < goroutines; g++ {
		if reports[g] != reports[0] {
			t.Fatalf("goroutine %d received a different report pointer: evaluation ran more than once", g)
		}
	}
	if cacheLen(e) != 1 {
		t.Errorf("cache len after concurrent evaluation: %d", cacheLen(e))
	}
}

// TestSingleflightSharesOneComputation uses the raw cache to assert the
// compute function itself runs exactly once across concurrent callers.
func TestSingleflightSharesOneComputation(t *testing.T) {
	c := newReportCache(8)
	key := keyFor("doc", "url")
	var calls atomic.Int32
	release := make(chan struct{})
	want := &Report{}

	const waiters = 16
	var wg sync.WaitGroup
	results := make([]*Report, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, _, err := c.getOrCompute(key, func() (*Report, error) {
				calls.Add(1)
				<-release // hold the flight open so every waiter piles up
				return want, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = r
		}(i)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	for i, r := range results {
		if r != want {
			t.Fatalf("waiter %d got %p, want shared %p", i, r, want)
		}
	}
}

// TestCacheEviction fills a small cache past capacity and checks LRU
// behaviour: the bound holds, recently used entries survive, the coldest
// entry is evicted.
func TestCacheEviction(t *testing.T) {
	e := NewEngine(Config{CacheSize: 4})
	urls := make([]string, 6)
	reports := make([]*Report, 6)
	for i := 0; i < 4; i++ {
		urls[i] = fmt.Sprintf("https://a.example/%d", i)
		r, err := e.Evaluate(countingDoc(i), urls[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		reports[i] = r
	}
	if cacheLen(e) != 4 {
		t.Fatalf("cache len at capacity: %d", cacheLen(e))
	}
	// Touch entry 0 so entry 1 is the LRU victim.
	if r, _ := e.Evaluate(countingDoc(0), urls[0], nil); r != reports[0] {
		t.Fatal("touching entry 0 should hit the cache")
	}
	// Two more inserts evict entries 1 and 2.
	for i := 4; i < 6; i++ {
		urls[i] = fmt.Sprintf("https://a.example/%d", i)
		if _, err := e.Evaluate(countingDoc(i), urls[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	if cacheLen(e) != 4 {
		t.Fatalf("cache len after eviction: %d", cacheLen(e))
	}
	if r, _ := e.Evaluate(countingDoc(0), urls[0], nil); r != reports[0] {
		t.Error("recently used entry 0 was evicted")
	}
	if r, _ := e.Evaluate(countingDoc(1), urls[1], nil); r == reports[1] {
		t.Error("LRU entry 1 survived past capacity")
	}
}

// TestCacheBypass verifies CacheSize: -1 disables caching entirely: no
// entries are stored and repeated evaluations recompute.
func TestCacheBypass(t *testing.T) {
	e := NewEngine(Config{CacheSize: -1})
	doc := countingDoc(7)
	r1, err := e.Evaluate(doc, "https://a.example/bypass", nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Evaluate(doc, "https://a.example/bypass", nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r2 {
		t.Error("CacheSize -1 must bypass the cache (same pointer returned)")
	}
	if cacheLen(e) != 0 {
		t.Errorf("disabled cache stored %d entries", cacheLen(e))
	}
}

// TestCacheKeyIncludesURL: the same document evaluated against different
// URLs must be cached separately — link resolution and internal/external
// reference classification depend on the article URL.
func TestCacheKeyIncludesURL(t *testing.T) {
	e := NewEngine(Config{CacheSize: 16})
	doc := `<html><head><title>Relative links</title></head><body>
<p>Body text with a relative reference. <a href="/other">ref</a></p></body></html>`
	r1, err := e.Evaluate(doc, "https://excellent-1.example/a", nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Evaluate(doc, "https://verypoor-1.example/a", nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r2 {
		t.Fatal("different URLs must not share a cache entry")
	}
	if cacheLen(e) != 2 {
		t.Errorf("cache len: %d, want 2", cacheLen(e))
	}
}

// TestCacheServesCascadeBase: a cascade evaluation reuses the cached
// cascade-independent base but must return a fresh report carrying the
// social indicators, leaving the cached base untouched.
func TestCacheServesCascadeBase(t *testing.T) {
	e := NewEngine(Config{CacheSize: 16})
	doc := countingDoc(9)
	base, err := e.Evaluate(doc, "https://a.example/casc", nil)
	if err != nil {
		t.Fatal(err)
	}
	withSocial, err := e.Evaluate(doc, "https://a.example/casc", supportCascade(5))
	if err != nil {
		t.Fatal(err)
	}
	if withSocial == base {
		t.Fatal("cascade evaluation returned the cached base pointer")
	}
	if withSocial.Social.Reach.Posts == 0 {
		t.Error("cascade evaluation lost the social indicators")
	}
	if base.Social.Reach.Posts != 0 {
		t.Error("cached base report was mutated by a cascade evaluation")
	}
	if withSocial.Content != base.Content {
		t.Error("cascade evaluation recomputed divergent content indicators")
	}
}

// TestCacheFlushOnModelChange: attaching a model must invalidate cached
// reports, including results of evaluations still in flight at flush time.
func TestCacheFlushOnModelChange(t *testing.T) {
	e := NewEngine(Config{CacheSize: 16})
	if _, err := e.Evaluate(countingDoc(3), "https://a.example/m", nil); err != nil {
		t.Fatal(err)
	}
	if cacheLen(e) == 0 {
		t.Fatal("expected a cached entry")
	}
	e.SetStanceModel(nil)
	if cacheLen(e) != 0 {
		t.Error("cache not flushed on model change")
	}

	// A flight that started before the flush must not repopulate the
	// cache with a stale report.
	c := newReportCache(8)
	key := keyFor("stale", "")
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = c.getOrCompute(key, func() (*Report, error) {
			close(started)
			<-release
			return &Report{}, nil
		})
	}()
	<-started
	c.flush() // models changed while the evaluation was running
	close(release)
	<-done
	if n := c.len(); n != 0 {
		t.Errorf("stale in-flight evaluation repopulated the cache: len %d", n)
	}
}

// TestCacheErrorNotCached: parse failures must not poison the cache.
func TestCacheErrorNotCached(t *testing.T) {
	e := NewEngine(Config{CacheSize: 16})
	if _, err := e.Evaluate("", "https://a.example/e", nil); err == nil {
		t.Fatal("expected parse error")
	}
	if cacheLen(e) != 0 {
		t.Errorf("error result cached: len %d", cacheLen(e))
	}
}

// TestShardedCacheCapacity: large caches shard; the total bound must still
// hold approximately (per-shard LRU) and lookups stay correct.
func TestShardedCacheCapacity(t *testing.T) {
	e := NewEngine(Config{CacheSize: 64})
	for i := 0; i < 200; i++ {
		url := fmt.Sprintf("https://a.example/s/%d", i)
		if _, err := e.Evaluate(countingDoc(i), url, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := cacheLen(e); n > 64 {
		t.Errorf("sharded cache exceeded capacity: %d > 64", n)
	}
	// A fresh evaluation still round-trips through the cache.
	doc := countingDoc(1000)
	r1, _ := e.Evaluate(doc, "https://a.example/fresh", nil)
	r2, _ := e.Evaluate(doc, "https://a.example/fresh", nil)
	if r1 != r2 {
		t.Error("sharded cache missed an immediate re-evaluation")
	}
}

// TestPanicDoesNotPoisonKey: a compute that panics must deregister its
// flight (waiters get an error, not a hang) and leave the key usable.
func TestPanicDoesNotPoisonKey(t *testing.T) {
	c := newReportCache(8)
	key := keyFor("poison", "")

	panicking := make(chan struct{})
	waiterDone := make(chan error, 1)
	go func() {
		defer func() { recover() }()
		_, _, _ = c.getOrCompute(key, func() (*Report, error) {
			close(panicking)
			panic("evaluation blew up")
		})
	}()
	<-panicking
	go func() {
		// Either joins the dying flight (must get an error, not block
		// forever) or starts fresh after deregistration.
		r, _, err := c.getOrCompute(key, func() (*Report, error) { return &Report{}, nil })
		if r == nil && err == nil {
			waiterDone <- fmt.Errorf("nil report with nil error")
			return
		}
		waiterDone <- nil
	}()
	select {
	case err := <-waiterDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-timeoutAfter(t):
		t.Fatal("request for a panicked key hung: flight was not deregistered")
	}
	// The key must still be computable afterwards.
	want := &Report{}
	r, _, err := c.getOrCompute(key, func() (*Report, error) { return want, nil })
	if err != nil || (r != want && r == nil) {
		t.Fatalf("key poisoned after panic: r=%v err=%v", r, err)
	}
}

func timeoutAfter(t *testing.T) <-chan time.Time {
	t.Helper()
	return time.After(5 * time.Second)
}
