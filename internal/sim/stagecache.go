package sim

import (
	"container/list"
	"sync"

	"wlansim/internal/measure"
)

// DefaultCacheBytes is the byte budget of a stage cache when the caller does
// not set one: generous enough that the paper's sweeps (a few megabytes of
// waveform) never evict, small enough to stay irrelevant next to a
// simulation's working set.
const DefaultCacheBytes = 256 << 20

// CacheKey identifies one cached stage output. Packet and Kind are explicit
// so distinct packets and pipeline prefixes can never alias; Content is a
// seed.ContentKey fold of every invariant configuration field the entry
// depends on, guarding against accidental sharing between runs that reuse
// one cache with differing scenarios.
type CacheKey struct {
	// Kind tags which pipeline prefix the entry holds (the caller's stage
	// enumeration).
	Kind uint8
	// Packet is the Monte-Carlo packet index.
	Packet int
	// Content folds the invariant configuration (rate, payload length,
	// interferer line-up, channel impairments, content seed — never the
	// swept value).
	Content uint64
}

// cacheEntry is one resident (or in-flight) stage output. The first
// requester computes the value while later requesters block on ready;
// entries therefore materialize exactly once per key no matter how many
// workers race for them, which also keeps the hit/miss counters independent
// of the worker count.
type cacheEntry struct {
	key   CacheKey
	elem  *list.Element
	ready chan struct{}
	value any
	size  int64
	err   error
}

// StageCache memoizes invariant pipeline-prefix outputs across the points of
// one sweep run, bounded by a byte budget with least-recently-used eviction.
// A nil *StageCache is valid and means "always compute": GetOrCompute simply
// invokes the compute function, so callers need no conditional wiring.
//
// Cached values are shared across goroutines; callers must treat them as
// immutable and copy any buffer they intend to mutate (copy-on-read). The
// cache itself is safe for concurrent use.
type StageCache struct {
	mu      sync.Mutex
	budget  int64
	entries map[CacheKey]*cacheEntry
	lru     *list.List // front = most recently used; values are *cacheEntry

	bytes     int64
	peak      int64
	hits      int64
	misses    int64
	evictions int64
}

// NewStageCache returns a cache bounded by budgetBytes (<= 0 selects
// DefaultCacheBytes).
func NewStageCache(budgetBytes int64) *StageCache {
	if budgetBytes <= 0 {
		budgetBytes = DefaultCacheBytes
	}
	return &StageCache{
		budget:  budgetBytes,
		entries: make(map[CacheKey]*cacheEntry),
		lru:     list.New(),
	}
}

// GetOrCompute returns the cached value for key, computing it with compute on
// first request. compute returns the value and its payload size in bytes.
// Concurrent requests for the same key run compute once; the losers wait and
// share the winner's result (or error). The returned value is shared — the
// caller must not mutate it.
func (c *StageCache) GetOrCompute(key CacheKey, compute func() (any, int64, error)) (any, error) {
	if c == nil {
		v, _, err := compute()
		return v, err
	}
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		<-e.ready
		return e.value, e.err
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.misses++
	c.mu.Unlock()

	v, size, err := compute()

	c.mu.Lock()
	e.value, e.size, e.err = v, size, err
	if err != nil {
		// Failed computations are not worth keeping; the next request
		// retries. Waiters already holding e still observe the error.
		c.removeLocked(e)
	} else {
		c.bytes += size
		if c.bytes > c.peak {
			c.peak = c.bytes
		}
		c.evictLocked()
	}
	c.mu.Unlock()
	close(e.ready)
	return v, err
}

// evictLocked drops least-recently-used entries until the resident bytes fit
// the budget. In-flight entries (size still unset, waiters pending) are
// skipped; evicting a ready entry is safe because requesters that already
// hold it keep their reference — eviction only forgets the key.
func (c *StageCache) evictLocked() {
	for c.bytes > c.budget {
		evicted := false
		for elem := c.lru.Back(); elem != nil; elem = elem.Prev() {
			e := elem.Value.(*cacheEntry)
			if !e.isReadyLocked() {
				continue
			}
			c.removeLocked(e)
			c.evictions++
			evicted = true
			break
		}
		if !evicted {
			return // everything resident is in flight; nothing to drop
		}
	}
}

// isReadyLocked reports whether the entry's computation has finished. The
// ready channel is closed outside the lock, so probe the size/err fields that
// are only set under the lock instead.
func (e *cacheEntry) isReadyLocked() bool {
	return e.value != nil || e.err != nil
}

// removeLocked unlinks an entry from the map and LRU list and returns its
// bytes to the budget.
func (c *StageCache) removeLocked(e *cacheEntry) {
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
	if e.err == nil {
		c.bytes -= e.size
	}
}

// Stats snapshots the hit/miss/byte counters.
func (c *StageCache) Stats() measure.CacheStats {
	if c == nil {
		return measure.CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return measure.CacheStats{
		Enabled:    true,
		Hits:       c.hits,
		Misses:     c.misses,
		BytesInUse: c.bytes,
		PeakBytes:  c.peak,
		Evictions:  c.evictions,
	}
}
