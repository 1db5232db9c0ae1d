package harness

import (
	"container/list"
	"sync"

	"daredevil/internal/ftl"
)

// Preconditioning is a pure function of the FTL configuration and the die
// count (the scenario seed never enters it), so the aged state every
// FTL-backed cell starts from is built once per process and shared:
// NewEnv clones each device from a cached ftl.Image. An image is read-only
// once published and fully determined by its key, so sharing it across
// concurrently running cells lets no cell observe another — results stay
// bit-identical to building every device from scratch.

// imageCacheBytes bounds the bytes of cached images: about seven default
// (4 GiB, 128-die) images, while the ext-gc sweep needs three.
const imageCacheBytes = 64 << 20

// images is the process-wide image cache behind NewEnv.
var images = newImageCache(imageCacheBytes)

// imageKey identifies one aged state.
type imageKey struct {
	cfg  ftl.Config // normalized
	dies int
}

// imageEntry is one cached image, or one still being built.
type imageEntry struct {
	key   imageKey
	ready chan struct{} // closed once the build finished or failed
	img   *ftl.Image    // nil until ready; stays nil if the build panicked
	bytes int64
	elem  *list.Element // position in the LRU order; nil until published
}

// imageCache is a byte-bounded LRU of aged images with single-flight
// builds: concurrent misses on one key wait for the first caller's build.
type imageCache struct {
	mu      sync.Mutex
	limit   int64
	bytes   int64                    // bytes of published entries
	entries map[imageKey]*imageEntry // published and in-flight
	order   list.List                // published entries, front = most recently used
	builds  int                      // images built, for tests
}

func newImageCache(limit int64) *imageCache {
	return &imageCache{limit: limit, entries: make(map[imageKey]*imageEntry)}
}

// get returns the image for cfg on a device with the given die count,
// building it on a miss. An image larger than the bound is built for the
// caller and not cached.
func (c *imageCache) get(cfg ftl.Config, dies int) *ftl.Image {
	key := imageKey{cfg.Normalized(), dies}
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.elem != nil {
			c.order.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		<-e.ready
		if e.img == nil {
			// The shared build panicked; fail the same way on this caller.
			return ftl.NewImage(cfg, dies)
		}
		return e.img
	}
	e := &imageEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.builds++
	c.mu.Unlock()

	defer func() {
		if e.img == nil { // NewImage panicked: forget the key
			c.mu.Lock()
			delete(c.entries, key)
			c.mu.Unlock()
		}
		close(e.ready)
	}()
	img := ftl.NewImage(cfg, dies)

	c.mu.Lock()
	defer c.mu.Unlock()
	e.img, e.bytes = img, img.Bytes()
	if e.bytes > c.limit {
		delete(c.entries, key)
		return img
	}
	e.elem = c.order.PushFront(e)
	c.bytes += e.bytes
	for c.bytes > c.limit {
		old := c.order.Remove(c.order.Back()).(*imageEntry)
		delete(c.entries, old.key)
		c.bytes -= old.bytes
	}
	return img
}
