package indicators

import (
	"errors"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// The assessment cache is keyed by document content hash (plus the URL the
// document was evaluated against, which drives link resolution and
// reference classification), sharded to keep lock hold times short under
// concurrent real-time traffic, and fronted by a singleflight layer so N
// concurrent requests for the same never-seen article run the indicator
// pipeline once and share the resulting report.

// cacheShardCount is the shard fan-out for large caches (power of two).
const cacheShardCount = 16

// smallCacheLimit is the capacity below which the cache collapses to one
// shard, keeping eviction order exact for small configurations.
const smallCacheLimit = 2 * cacheShardCount

// cacheSeed1/2 are the process-wide hash seeds; two independent seeds give
// a 128-bit key, making accidental collisions between distinct documents
// negligible for cache purposes.
var (
	cacheSeed1 = maphash.MakeSeed()
	cacheSeed2 = maphash.MakeSeed()
)

// cacheKey identifies one (document, url) evaluation input.
type cacheKey struct {
	d1, d2 uint64 // document content hash
	u1, u2 uint64 // evaluation URL hash
}

func keyFor(doc, url string) cacheKey {
	return cacheKey{
		d1: maphash.String(cacheSeed1, doc),
		d2: maphash.String(cacheSeed2, doc),
		u1: maphash.String(cacheSeed1, url),
		u2: maphash.String(cacheSeed2, url),
	}
}

// cacheEntry is one cached report on a shard's LRU list.
type cacheEntry struct {
	key        cacheKey
	report     *Report
	prev, next *cacheEntry
}

// flight is one in-progress evaluation; concurrent requests for the same
// key block on done and share the result.
type flight struct {
	done chan struct{}
	r    *Report
	err  error
}

// cacheShard is one lock domain: an LRU-ordered entry map plus the
// in-flight evaluations for keys hashing here.
type cacheShard struct {
	mu       sync.Mutex
	entries  map[cacheKey]*cacheEntry
	inflight map[cacheKey]*flight
	head     *cacheEntry // most recently used
	tail     *cacheEntry // next to evict
}

// reportCache is the sharded LRU + singleflight report cache.
type reportCache struct {
	shards   []cacheShard
	shardCap int
	gen      atomic.Uint64 // bumped on flush; stale flights do not store
}

// newReportCache builds a cache holding at least `size` total entries
// (sharded caches round the per-shard capacity up, so the effective bound
// is size rounded up to a multiple of the shard count).
func newReportCache(size int) *reportCache {
	n := cacheShardCount
	capPerShard := (size + cacheShardCount - 1) / cacheShardCount
	if size < smallCacheLimit {
		n = 1
		capPerShard = size
	}
	c := &reportCache{shards: make([]cacheShard, n), shardCap: capPerShard}
	for i := range c.shards {
		c.shards[i].entries = make(map[cacheKey]*cacheEntry)
		c.shards[i].inflight = make(map[cacheKey]*flight)
	}
	return c
}

func (c *reportCache) shard(k cacheKey) *cacheShard {
	return &c.shards[k.d1&uint64(len(c.shards)-1)]
}

// cacheOutcome classifies one getOrCompute call for telemetry: a warm
// hit, a miss that ran the pipeline, or a singleflight join that waited
// on a concurrent computation.
type cacheOutcome uint8

const (
	cacheHit cacheOutcome = iota
	cacheMiss
	cacheJoin
)

// getOrCompute returns the cached report for key, or runs compute exactly
// once across all concurrent callers and caches the result. Errors are
// shared with concurrent waiters but never cached.
func (c *reportCache) getOrCompute(key cacheKey, compute func() (*Report, error)) (*Report, cacheOutcome, error) {
	s := c.shard(key)
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.moveFront(e)
		r := e.report
		s.mu.Unlock()
		return r, cacheHit, nil
	}
	if f, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		<-f.done
		return f.r, cacheJoin, f.err
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[key] = f
	gen := c.gen.Load()
	s.mu.Unlock()

	// Deregister and release waiters even if compute panics — a poisoned
	// key must not block every later request for the same document. The
	// identity check matters: flush() swaps the inflight map, so another
	// flight may legitimately own this key by the time we finish.
	defer func() {
		if f.r == nil && f.err == nil {
			// compute panicked before assigning: give waiters an error
			// instead of a nil report (the panic itself propagates to the
			// owning caller).
			f.err = errEvaluationAborted
		}
		s.mu.Lock()
		if s.inflight[key] == f {
			delete(s.inflight, key)
		}
		if f.err == nil && c.gen.Load() == gen {
			s.insert(key, f.r, c.shardCap)
		}
		s.mu.Unlock()
		close(f.done)
	}()
	f.r, f.err = compute()
	return f.r, cacheMiss, f.err
}

// errEvaluationAborted is handed to singleflight waiters whose flight
// owner panicked mid-evaluation.
var errEvaluationAborted = errors.New("indicators: evaluation aborted")

// flush invalidates everything: the generation bump prevents in-flight
// evaluations started against the old models from repopulating the cache,
// and the inflight maps are replaced so requests arriving after the flush
// start fresh evaluations instead of joining a pre-flush flight and
// receiving a report computed with the old models.
func (c *reportCache) flush() {
	c.gen.Add(1)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.entries = make(map[cacheKey]*cacheEntry)
		s.inflight = make(map[cacheKey]*flight)
		s.head, s.tail = nil, nil
		s.mu.Unlock()
	}
}

// insert adds an entry at the LRU front, evicting the coldest entry when
// the shard is full. Callers hold s.mu.
func (s *cacheShard) insert(key cacheKey, r *Report, capacity int) {
	if capacity <= 0 {
		return
	}
	if e, ok := s.entries[key]; ok {
		e.report = r
		s.moveFront(e)
		return
	}
	if len(s.entries) >= capacity {
		evict := s.tail
		if evict != nil {
			s.unlink(evict)
			delete(s.entries, evict.key)
		}
	}
	e := &cacheEntry{key: key, report: r}
	s.entries[key] = e
	s.pushFront(e)
}

// pushFront links e as the most recently used entry. Callers hold s.mu.
func (s *cacheShard) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// unlink removes e from the LRU list. Callers hold s.mu.
func (s *cacheShard) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// moveFront marks e as most recently used. Callers hold s.mu.
func (s *cacheShard) moveFront(e *cacheEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}
