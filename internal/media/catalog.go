package media

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
)

// Catalog is a fixed set of titles sessions draw from. Building the
// catalogue once and sharing it across experiment groups mirrors the paper's
// setup, where all test groups stream the same production library.
//
// A Catalog is immutable once built, so NewCatalog hands one instance to
// every caller asking for the same titles.
type Catalog struct {
	videos []*Video
}

// maxCachedCatalogs bounds the process-wide catalog cache. A 24-title
// catalog holds ≈ 5 MB of size index; the callers that repeat a key — a
// benchmark's repetitions, the figures' shared experiment seed, a worker's
// per-goroutine shard runners — each use one or two keys at a time.
const maxCachedCatalogs = 4

// catalogs is the process-wide cache behind NewCatalog, most recently used
// last.
var catalogs struct {
	sync.Mutex
	entries []*catalogEntry
}

// catalogEntry is one cached catalog. ladder is the entry's own copy, so a
// caller changing its slice afterwards changes neither the key nor the
// built titles; once makes concurrent first requests build it once.
type catalogEntry struct {
	n      int
	seed   int64
	ladder Ladder
	once   sync.Once
	c      *Catalog
	err    error
}

// NewCatalog returns n VBR titles on the given ladder, generated
// deterministically from seed. Title lengths vary from about 20 minutes to
// 2 hours, roughly the range between an episode and a film. The same
// (n, ladder rates, seed) returns the same *Catalog for as long as the
// process keeps it cached.
func NewCatalog(n int, ladder Ladder, seed int64) (*Catalog, error) {
	if n <= 0 {
		return nil, fmt.Errorf("media: catalogue needs at least one title, got %d", n)
	}
	if err := ladder.Validate(); err != nil {
		return nil, err
	}
	e := cachedCatalog(n, ladder, seed)
	e.once.Do(func() { e.c, e.err = buildCatalog(e.n, e.ladder, e.seed) })
	return e.c, e.err
}

// cachedCatalog finds or inserts the cache entry for a key, evicting the
// least recently used entry beyond maxCachedCatalogs.
func cachedCatalog(n int, ladder Ladder, seed int64) *catalogEntry {
	catalogs.Lock()
	defer catalogs.Unlock()
	for i, e := range catalogs.entries {
		if e.n == n && e.seed == seed && slices.Equal(e.ladder, ladder) {
			catalogs.entries = append(slices.Delete(catalogs.entries, i, i+1), e)
			return e
		}
	}
	e := &catalogEntry{n: n, seed: seed, ladder: slices.Clone(ladder)}
	if len(catalogs.entries) == maxCachedCatalogs {
		catalogs.entries = slices.Delete(catalogs.entries, 0, 1)
	}
	catalogs.entries = append(catalogs.entries, e)
	return e
}

// buildCatalog generates a catalog without consulting the cache.
func buildCatalog(n int, ladder Ladder, seed int64) (*Catalog, error) {
	rng := rand.New(rand.NewSource(seed))
	c := &Catalog{videos: make([]*Video, n)}
	for i := range c.videos {
		// 300–1800 chunks of 4 s: 20 min – 2 h.
		numChunks := 300 + rng.Intn(1501)
		v, err := NewVBR(VBRConfig{
			Title:     fmt.Sprintf("title-%03d", i),
			Ladder:    ladder,
			NumChunks: numChunks,
		}, rng)
		if err != nil {
			return nil, err
		}
		c.videos[i] = v
	}
	return c, nil
}

// Len returns the number of titles.
func (c *Catalog) Len() int { return len(c.videos) }

// Pick returns title i modulo the catalogue size, so any non-negative
// draw maps to a title.
func (c *Catalog) Pick(i int) *Video {
	if i < 0 {
		i = -i
	}
	return c.videos[i%len(c.videos)]
}
