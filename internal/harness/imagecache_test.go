package harness

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"daredevil/internal/ftl"
	"daredevil/internal/nvme"
	"daredevil/internal/sim"
	"daredevil/internal/workload"
)

// agedGCSpec is the aged-device cell: the default FTL (precondition 100%,
// scramble 30%, OP 7%), 4 L readers against 4 random-overwrite T tenants at
// depth 4 trimming every 8th request, 100+400 ms.
func agedGCSpec(kind StackKind) CellSpec {
	m := SVM(4)
	fcfg := ftl.DefaultConfig()
	m.FTL = &fcfg
	spec := CellSpec{Machine: m, Kind: kind, Warmup: 100 * sim.Millisecond, Measure: 400 * sim.Millisecond}
	for i := 0; i < 8; i++ {
		var cfg workload.FIOConfig
		if i < 4 {
			cfg = workload.DefaultLTenant("L", i%m.Cores)
		} else {
			cfg = workload.DefaultTTenant("T", i%m.Cores)
			cfg.Pattern, cfg.ReadPct, cfg.IODepth, cfg.TrimEvery = workload.Random, 0, 4, 8
		}
		cfg.Seed += uint64(i) * 9176
		spec.Jobs = append(spec.Jobs, cfg)
	}
	return spec
}

// withImageCache swaps the process-wide image cache for c until the
// returned restore runs.
func withImageCache(c *imageCache) (restore func()) {
	saved := images
	images = c
	return func() { images = saved }
}

// defaultDies is the die count of the default NVMe device's media.
func defaultDies() int {
	fc := nvme.DefaultConfig().Flash
	return fc.Channels * fc.ChipsPerChannel
}

func TestImageCacheConcurrentCellsShareOneBuild(t *testing.T) {
	spec := agedGCSpec(DareFull)
	run := func() []byte {
		data, err := json.Marshal(RunCellSpec(spec))
		if err != nil {
			t.Error(err)
		}
		return data
	}

	cold := newImageCache(imageCacheBytes)
	defer withImageCache(cold)()
	want := run()
	if cold.builds != 1 {
		t.Fatalf("serial cell built %d images, want 1", cold.builds)
	}

	shared := newImageCache(imageCacheBytes)
	images = shared
	got := make([][]byte, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = run()
		}()
	}
	wg.Wait()
	for i := range got {
		if !bytes.Equal(got[i], want) {
			t.Errorf("concurrent cell %d differs from the serial cold-cache run:\n%s\nwant\n%s", i, got[i], want)
		}
	}
	if shared.builds != 1 {
		t.Fatalf("%d concurrent cells built %d images, want 1", len(got), shared.builds)
	}
}

func TestImageCacheStaysWithinBound(t *testing.T) {
	c := newImageCache(imageCacheBytes)
	dies := defaultDies()
	cfgAt := func(i int) ftl.Config {
		cfg := ftl.DefaultConfig()
		cfg.OPPct = 7 + float64(i)/4
		return cfg
	}
	for i := 0; i < 64; i++ {
		if img := c.get(cfgAt(i), dies); img == nil {
			t.Fatalf("image %d is nil", i)
		}
		c.get(cfgAt(0), dies) // keep image 0 the most recently used
		var sum int64
		for e := c.order.Front(); e != nil; e = e.Next() {
			sum += e.Value.(*imageEntry).bytes
		}
		if sum != c.bytes || c.bytes > c.limit {
			t.Fatalf("after image %d: %d cached bytes (accounted %d), bound %d", i, sum, c.bytes, c.limit)
		}
		if c.order.Len() != len(c.entries) {
			t.Fatalf("after image %d: %d LRU entries, %d keys", i, c.order.Len(), len(c.entries))
		}
	}
	if c.builds != 64 {
		t.Fatalf("64 distinct keys built %d images; the most recently used one was evicted", c.builds)
	}
	if n := c.order.Len(); n < 7 {
		t.Fatalf("the bound holds %d default-geometry images, want at least 7", n)
	}
	c.get(cfgAt(1), dies)
	if c.builds != 65 {
		t.Fatal("the least recently used image survived 62 newer ones")
	}
}

func TestImageCacheSkipsOversizedImages(t *testing.T) {
	c := newImageCache(1 << 20)
	for i := 1; i <= 2; i++ {
		if c.get(ftl.DefaultConfig(), defaultDies()) == nil {
			t.Fatal("oversized image not returned")
		}
		if c.builds != i || c.bytes != 0 || len(c.entries) != 0 {
			t.Fatalf("get %d: builds %d, %d bytes in %d entries; an oversized image must be built, not cached",
				i, c.builds, c.bytes, len(c.entries))
		}
	}
}

func TestImageCacheFailedBuildIsNotCached(t *testing.T) {
	c := newImageCache(imageCacheBytes)
	bad := ftl.DefaultConfig()
	bad.OPPct = 95
	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid configuration built an image")
				}
			}()
			c.get(bad, defaultDies())
		}()
	}
	if len(c.entries) != 0 || c.bytes != 0 {
		t.Fatalf("a failed build left %d entries, %d bytes", len(c.entries), c.bytes)
	}
}

// BenchmarkCellSetupAgedFTL builds the aged-gc cell with its image cached:
// the per-cell set-up every FTL-backed cell pays after the first.
func BenchmarkCellSetupAgedFTL(b *testing.B) {
	spec := agedGCSpec(DareFull)
	BuildCell(spec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildCell(spec)
	}
}
