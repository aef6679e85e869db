package serve

import (
	"container/list"
	"strconv"
	"strings"
	"sync"

	"zipflm/internal/model"
	"zipflm/internal/sampling"
)

// The serving-side mirror of the paper's unique-word argument: request
// popularity is Zipf-distributed, so a small LRU over request keys absorbs
// most of the traffic the way a small set of hot embedding rows absorbs
// most of the gradient updates. Two caches exploit it at different depths:
//
//   - the result cache keys the full request (prompt, n, decode options,
//     seed) and returns finished token sequences without touching a worker;
//   - the prefix cache keys the prompt alone and snapshots the post-prompt
//     recurrent state plus logits, so a request that misses the result
//     cache but repeats a hot prompt skips prefill entirely (correct for
//     any seed/temperature: the post-prompt state is deterministic).

// lruCache is a mutex-guarded LRU with hit/miss accounting. Values are
// treated as immutable by convention; callers copy on the way in and out as
// needed.
type lruCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List
	items   map[string]*list.Element
	hits    uint64
	misses  uint64
	evicted uint64
}

type lruEntry struct {
	key string
	val any
}

// newLRUCache returns a cache bounded to capacity entries; capacity <= 0
// returns nil (callers treat a nil cache as disabled).
func newLRUCache(capacity int) *lruCache {
	if capacity <= 0 {
		return nil
	}
	return &lruCache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element, capacity)}
}

// getIf returns the cached value and marks it most recently used, subject
// to a validity predicate (nil accepts everything): an entry that fails it
// is dropped and counted as a miss — the hit counters must only report work
// the cache actually served (a version-stale entry after a weights reload
// is a miss, not a hit).
func (c *lruCache) getIf(key string, valid func(any) bool) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	val := el.Value.(*lruEntry).val
	if valid != nil && !valid(val) {
		c.misses++
		c.ll.Remove(el)
		delete(c.items, key)
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return val, true
}

// put inserts or refreshes a key, evicting the least recently used entry
// when full.
func (c *lruCache) put(key string, val any) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
		c.evicted++
	}
}

// reset drops every entry (hit/miss counters keep accumulating) — used by
// Reload to release the old weights' cached work promptly. Per-entry
// version tags, not this reset, are what guarantee correctness: a stale
// entry that races back in is rejected at lookup.
func (c *lruCache) reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[string]*list.Element, c.cap)
}

// counters returns (hits, misses, evicted, len).
func (c *lruCache) counters() (uint64, uint64, uint64, int) {
	if c == nil {
		return 0, 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evicted, c.ll.Len()
}

// prefixEntry is a post-prompt snapshot: the recurrent state after the last
// prompt token and the logits that token produced. Both are immutable once
// cached — samplers copy logits into their own scratch, and states are
// cloned on the way out. The version tags the weights generation that
// computed the snapshot; a worker on different weights treats it as a miss.
type prefixEntry struct {
	state   *model.GenState
	logits  []float32
	version uint64
}

// resultEntry is a finished token sequence tagged with the weights
// generation that produced it; Submit serves it only while that generation
// is still current.
type resultEntry struct {
	version uint64
	tokens  []int
}

// resultKey encodes the full request identity. Any field that can change
// the output token sequence must appear here.
func resultKey(prompt []int, n int, opts sampling.DecodeOpts, seed uint64) string {
	var b strings.Builder
	b.Grow(8*len(prompt) + 64)
	for _, id := range prompt {
		b.WriteString(strconv.Itoa(id))
		b.WriteByte(',')
	}
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(n))
	b.WriteByte('|')
	b.WriteString(strconv.FormatFloat(opts.Temperature, 'g', -1, 64))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(opts.TopK))
	b.WriteByte('|')
	b.WriteString(strconv.FormatFloat(opts.TopP, 'g', -1, 64))
	b.WriteByte('|')
	b.WriteString(strconv.FormatUint(seed, 10))
	return b.String()
}

// prefixKey encodes the prompt alone: the post-prompt state depends on
// nothing else.
func prefixKey(prompt []int) string {
	var b strings.Builder
	b.Grow(8 * len(prompt))
	for _, id := range prompt {
		b.WriteString(strconv.Itoa(id))
		b.WriteByte(',')
	}
	return b.String()
}
