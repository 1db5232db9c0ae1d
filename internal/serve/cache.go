package serve

import (
	"container/list"
	"sync"
)

// Completed cells are cached keyed by (scenario hash, seed, git revision):
// the scenario hash pins the exact spec, the seed is surfaced separately so
// operators can read it off the key, and the git revision guards against a
// redeployed daemon serving results computed by older modeling code.
// Because every cell is bit-deterministic, a cache hit is byte-identical to
// a fresh run — the determinism tests assert exactly that — so the cache is
// a pure latency optimization shared by sweeps and what-if searches alike.

// cacheKey identifies one deterministic cell run.
type cacheKey struct {
	// SpecHash is the hex SHA-256 of the canonical scenario JSON.
	SpecHash string
	// Seed is the scenario's tenant-stream shift (also inside SpecHash;
	// kept explicit so keys are self-describing).
	Seed uint64
	// GitRev is the modeling code revision that computed the entry.
	GitRev string
	// Artifacts records whether the run armed observability surfaces, so
	// an artifact-bearing request never hits an artifact-free entry.
	Artifacts bool
}

// resultCache is a mutex-guarded LRU over completed cells.
type resultCache struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used; values are cacheKey
	entries map[cacheKey]*list.Element
	values  map[cacheKey]cellOutput
	hits    uint64
	misses  uint64
}

func newResultCache(max int) *resultCache {
	if max < 1 {
		max = 1
	}
	return &resultCache{
		max:     max,
		order:   list.New(),
		entries: make(map[cacheKey]*list.Element),
		values:  make(map[cacheKey]cellOutput),
	}
}

// get returns the entry for k, marking it most recently used.
func (c *resultCache) get(k cacheKey) (cellOutput, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses++
		return cellOutput{}, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return c.values[k], true
}

// put stores the entry for k, evicting the least recently used entry when
// the cache is full.
func (c *resultCache) put(k cacheKey, e cellOutput) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.order.MoveToFront(el)
		c.values[k] = e
		return
	}
	for len(c.values) >= c.max {
		back := c.order.Back()
		if back == nil {
			break
		}
		old := back.Value.(cacheKey)
		c.order.Remove(back)
		delete(c.entries, old)
		delete(c.values, old)
	}
	c.entries[k] = c.order.PushFront(k)
	c.values[k] = e
}

// stats snapshots hit/miss counters and the live entry count.
func (c *resultCache) stats() (hits, misses uint64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.values)
}
