// Package runcache memoizes simulation results. A run is fully determined
// by its Config (the golden-determinism harness pins this), so identical
// grid cells — the CC-NUMA baseline every figure shares, a re-rendered
// panel, a repeated server request — need not be simulated twice.
//
// The cache is content-addressed: the key is a SHA-256 of the canonical
// encoding of the Config (including the full Params block), so any change
// to any knob produces a distinct key. Lookups go memory LRU -> optional
// on-disk layer -> simulate, with singleflight deduplication so concurrent
// requests for the same key run the simulation exactly once.
//
// Cached *ascoma.Result values are shared between callers and must be
// treated as immutable.
package runcache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"ascoma"
	"ascoma/internal/obs"
)

// keyVersion is folded into every key; bump it when the statistics schema
// or the simulated model changes incompatibly, so stale disk entries from
// an older binary can never satisfy a new request.
const keyVersion = "ascoma-run-v1"

// Key identifies one run configuration (hex SHA-256).
type Key string

// KeyOf returns the content address of cfg. Scale is normalized the way
// Run normalizes it (0 and 1 are the same problem size). Two configs that
// differ only in how they spell the default Params hash differently — a
// conservative miss, never a wrong hit.
func KeyOf(cfg ascoma.Config) (Key, error) {
	if cfg.Scale < 1 {
		cfg.Scale = 1
	}
	blob, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("runcache: encode config: %w", err)
	}
	h := sha256.Sum256(append([]byte(keyVersion+"\n"), blob...))
	return Key(hex.EncodeToString(h[:])), nil
}

// Stats is a snapshot of the cache's counters.
type Stats struct {
	MemHits    int64 `json:"memHits"`    // served from the in-memory LRU
	DiskHits   int64 `json:"diskHits"`   // served from the on-disk layer
	RemoteHits int64 `json:"remoteHits"` // served from a remote (peer) backend
	Dedups     int64 `json:"dedups"`     // waited on an identical in-flight run
	Sims       int64 `json:"sims"`       // simulations actually executed
	Shared     int64 `json:"shared"`     // filled from a run certifying their architecture and pressure
	Errors     int64 `json:"errors"`     // failed fills (never cached)
}

// Lookups returns the total number of Do calls the snapshot covers.
func (s Stats) Lookups() int64 {
	return s.MemHits + s.DiskHits + s.RemoteHits + s.Dedups + s.Sims + s.Shared + s.Errors
}

// HitRate returns the fraction of lookups that avoided a fresh simulation.
func (s Stats) HitRate() float64 {
	n := s.Lookups()
	if n == 0 {
		return 0
	}
	return float64(s.MemHits+s.DiskHits+s.RemoteHits+s.Dedups+s.Shared) / float64(n)
}

func (s Stats) String() string {
	return fmt.Sprintf("mem=%d disk=%d remote=%d dedup=%d sims=%d shared=%d errors=%d (%.1f%% hit rate)",
		s.MemHits, s.DiskHits, s.RemoteHits, s.Dedups, s.Sims, s.Shared, s.Errors, 100*s.HitRate())
}

// flight is one in-progress fill; waiters block on done. simulating is
// closed when the fill moves past the backend probes into the simulation
// itself — Fetch (the peer-protocol read) only parks on flights past that
// point, because a fill still probing backends may be probing the very
// peer that is asking (two workers filling the same key would otherwise
// deadlock, each waiting on the other's in-flight table).
type flight struct {
	done       chan struct{}
	simulating chan struct{}
	res        *ascoma.Result
	err        error
}

// Cache is a concurrency-safe, content-addressed result cache.
type Cache struct {
	mu       sync.Mutex
	entries  map[Key]*list.Element
	lru      *list.List // front = most recent; values are *lruEntry
	max      int
	backends []Backend // probed in order on a miss; see backend.go
	inflight map[Key]*flight

	memHits    atomic.Int64
	diskHits   atomic.Int64
	remoteHits atomic.Int64
	dedups     atomic.Int64
	sims       atomic.Int64
	shared     atomic.Int64
	errs       atomic.Int64
}

type lruEntry struct {
	key Key
	res *ascoma.Result
	// reply is the caller-encoded reply for res, filled by Reply on first
	// use. It lives and dies with the entry: eviction drops it, and a
	// store that replaces res clears it.
	reply []byte
}

// New returns a cache holding up to maxEntries results in memory
// (maxEntries < 1 selects a default of 1024). If dir is non-empty it is
// created if needed and used as a persistent second layer: every simulated
// result is written there, and misses probe it before simulating.
func New(maxEntries int, dir string) (*Cache, error) {
	var backends []Backend
	if dir != "" {
		disk, err := NewDiskBackend(dir)
		if err != nil {
			return nil, err
		}
		backends = append(backends, disk)
	}
	return NewWithBackends(maxEntries, backends...), nil
}

// NewWithBackends returns a cache over an ordered chain of backends —
// typically disk first, then an HTTP peer — probed in that order on a
// memory miss. A hit in a later backend is written back into the earlier
// ones, so the chain behaves as one tiered store.
func NewWithBackends(maxEntries int, backends ...Backend) *Cache {
	if maxEntries < 1 {
		maxEntries = 1024
	}
	return &Cache{
		entries:  make(map[Key]*list.Element),
		lru:      list.New(),
		max:      maxEntries,
		backends: backends,
		inflight: make(map[Key]*flight),
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		MemHits:    c.memHits.Load(),
		DiskHits:   c.diskHits.Load(),
		RemoteHits: c.remoteHits.Load(),
		Dedups:     c.dedups.Load(),
		Sims:       c.sims.Load(),
		Shared:     c.shared.Load(),
		Errors:     c.errs.Load(),
	}
}

// Publish registers the cache's counters on reg as live metric functions:
// the exposition always reflects the current counts, with no periodic
// copying. Call once per (cache, registry) pair — re-registration panics.
func (c *Cache) Publish(reg *obs.Registry) {
	reg.NewCounterFunc("ascoma_runcache_mem_hits_total",
		"Results served from the in-memory LRU.", c.memHits.Load)
	reg.NewCounterFunc("ascoma_runcache_disk_hits_total",
		"Results served from the on-disk layer.", c.diskHits.Load)
	reg.NewCounterFunc("ascoma_runcache_remote_hits_total",
		"Results served from a remote (HTTP peer) backend.", c.remoteHits.Load)
	reg.NewCounterFunc("ascoma_runcache_dedups_total",
		"Lookups that waited on an identical in-flight run.", c.dedups.Load)
	reg.NewCounterFunc("ascoma_runcache_sims_total",
		"Simulations actually executed.", c.sims.Load)
	reg.NewCounterFunc("ascoma_runcache_shared_total",
		"Grid cells filled from a finished run that certified their architecture and pressure.", c.shared.Load)
	reg.NewCounterFunc("ascoma_runcache_errors_total",
		"Failed fills (never cached).", c.errs.Load)
	reg.NewGaugeFunc("ascoma_runcache_hit_ratio",
		"Fraction of lookups that avoided a fresh simulation.",
		func() float64 { return c.Stats().HitRate() })
	reg.NewGaugeFunc("ascoma_runcache_resident",
		"Results resident in the in-memory LRU.",
		func() float64 { return float64(c.Len()) })
}

// Len returns the number of results resident in memory.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Do returns the cached result for key, or runs fn to produce it. Exactly
// one caller runs fn per key at a time; concurrent callers with the same
// key wait for that fill and share its outcome. A waiter whose ctx is
// cancelled stops waiting (the fill itself keeps the leader's context).
// Errors are returned but never cached.
//
// A leader's cancellation never poisons its waiters: when the fill fails
// with a context error but the waiter's own context is still live, the
// waiter retries the lookup — one of the survivors becomes the new leader
// and re-fills — so a request is cancelled only by its own context.
func (c *Cache) Do(ctx context.Context, key Key, fn func(ctx context.Context) (*ascoma.Result, error)) (*ascoma.Result, error) {
	return c.do(ctx, key, fn, &c.sims)
}

// do is Do with the counter a successful fn bumps: sims for a simulation,
// shared for a fill from a certifying run.
func (c *Cache) do(ctx context.Context, key Key, fn func(ctx context.Context) (*ascoma.Result, error), made *atomic.Int64) (*ascoma.Result, error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.lru.MoveToFront(el)
			res := el.Value.(*lruEntry).res
			c.mu.Unlock()
			c.memHits.Add(1)
			return res, nil
		}
		if f, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			c.dedups.Add(1)
			select {
			case <-f.done:
				if f.err != nil && isContextErr(f.err) && ctx.Err() == nil {
					// The leader was cancelled or timed out, but this
					// waiter is live: promote it to retry the lookup.
					continue
				}
				return f.res, f.err
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		f := &flight{done: make(chan struct{}), simulating: make(chan struct{})}
		c.inflight[key] = f
		c.mu.Unlock()

		f.res, f.err = c.fill(ctx, f, key, fn, made)

		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		close(f.done)
		return f.res, f.err
	}
}

// isContextErr reports whether err is (or wraps) a cancellation or
// deadline error — the class of fill failures that reflect the leader's
// context rather than the simulation itself.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Fetch returns the result for key from this process's local layers only:
// the memory LRU, the in-flight singleflight table, and every non-remote
// backend (disk). It never simulates and never consults remote backends —
// the peer protocol (PeerHandler) is built on it, and a peer that probed
// its own peers could loop.
//
// A Fetch that lands while this process is *simulating* the same key
// blocks until the fill completes (bounded by ctx): that is the
// cross-worker singleflight — a peer asking for a result another worker
// is already simulating waits for that simulation instead of starting its
// own. A fill still probing its backend chain is answered as a miss, not
// waited on: two workers filling the same key probe each other, and
// parking both sides would deadlock the pair. Local counters are
// untouched: serving a peer is not a local lookup.
func (c *Cache) Fetch(ctx context.Context, key Key) (*ascoma.Result, error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.lru.MoveToFront(el)
			res := el.Value.(*lruEntry).res
			c.mu.Unlock()
			return res, nil
		}
		f, ok := c.inflight[key]
		c.mu.Unlock()
		if ok {
			select {
			case <-f.simulating:
			default:
				// The fill is still probing its backend chain — it may be
				// probing the very peer now asking us. Answering "miss"
				// breaks the cycle; the asker fills on its own, at worst
				// duplicating one simulation instead of deadlocking.
				return nil, ErrNotFound
			}
			select {
			case <-f.done:
				if f.err == nil {
					return f.res, nil
				}
				if isContextErr(f.err) && ctx.Err() == nil {
					continue // the fill died with its leader; re-probe
				}
				return nil, ErrNotFound
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		for _, b := range c.backends {
			if _, isRemote := b.(remoteBackend); isRemote {
				continue
			}
			if res, err := b.Load(ctx, key); err == nil {
				c.store(key, res)
				return res, nil
			}
		}
		return nil, ErrNotFound
	}
}

// Put inserts a result produced outside the Do path — an observed run
// (which bypasses the cache read side so its recording fills) or a peer's
// PUT — into the memory layer and every local backend (never back out to
// remote peers; see persist). Results are identical with or without
// observation, so a Put entry satisfies later lookups of the same config
// exactly like a simulated fill.
func (c *Cache) Put(key Key, res *ascoma.Result) {
	c.store(key, res)
	c.persist(key, res)
}

// Reply returns the encoded reply stored with key's entry, calling
// encode(res) to fill it on first use. The bytes belong to the entry: they
// are kept only while the entry holds res, and die when it is evicted or
// replaced by Put, so they need no bound of their own. A res that is not
// resident under key is encoded on every call and stored nowhere. encode
// runs outside the lock, so two first callers may both encode; the first
// to finish is kept. An entry holds one reply, so every caller of Reply on
// a cache must pass the same encoding. Callers must not modify the
// returned bytes.
func (c *Cache) Reply(key Key, res *ascoma.Result, encode func(*ascoma.Result) ([]byte, error)) ([]byte, error) {
	c.mu.Lock()
	if e := c.resident(key, res); e != nil && e.reply != nil {
		b := e.reply
		c.mu.Unlock()
		return b, nil
	}
	c.mu.Unlock()
	b, err := encode(res)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if e := c.resident(key, res); e != nil && e.reply == nil {
		e.reply = b
	}
	c.mu.Unlock()
	return b, nil
}

// resident returns key's memory entry if it holds res, else nil. Callers
// hold c.mu.
func (c *Cache) resident(key Key, res *ascoma.Result) *lruEntry {
	if el, ok := c.entries[key]; ok {
		if e := el.Value.(*lruEntry); e.res == res {
			return e
		}
	}
	return nil
}

// fill resolves a miss: the backend chain in order, then fn itself. A hit
// at backend i is written back into backends 0..i-1 so the faster layers
// warm up.
func (c *Cache) fill(ctx context.Context, f *flight, key Key, fn func(ctx context.Context) (*ascoma.Result, error), made *atomic.Int64) (*ascoma.Result, error) {
	for i, b := range c.backends {
		res, err := b.Load(ctx, key)
		if err != nil {
			if !errors.Is(err, ErrNotFound) {
				// Real backend trouble (corruption, a sick peer) must be
				// visible, but only costs a re-simulation.
				fmt.Fprintf(os.Stderr, "runcache: load %s: %v\n", shortKey(key), err)
			}
			continue
		}
		if _, isRemote := b.(remoteBackend); isRemote {
			c.remoteHits.Add(1)
		} else {
			c.diskHits.Add(1)
		}
		c.store(key, res)
		for _, earlier := range c.backends[:i] {
			if werr := earlier.Store(ctx, key, res); werr != nil {
				fmt.Fprintf(os.Stderr, "runcache: backfill %s: %v\n", shortKey(key), werr)
			}
		}
		return res, nil
	}
	close(f.simulating) // peers asking for this key now park on the fill
	res, err := fn(ctx)
	if err != nil {
		c.errs.Add(1)
		return nil, err
	}
	made.Add(1)
	c.store(key, res)
	c.persist(key, res)
	return res, nil
}

// persist writes res through to every local backend, best-effort: a failed
// persist only costs a future re-simulation. Remote backends are skipped —
// a worker owns the results it produces and peers pull them on demand;
// pushing would let two peers pointing at each other forward one result
// back and forth forever.
func (c *Cache) persist(key Key, res *ascoma.Result) {
	for _, b := range c.backends {
		if _, isRemote := b.(remoteBackend); isRemote {
			continue
		}
		if werr := b.Store(context.Background(), key, res); werr != nil {
			fmt.Fprintf(os.Stderr, "runcache: persist %s: %v\n", shortKey(key), werr)
		}
	}
}

// shortKey abbreviates a key for log lines.
func shortKey(key Key) string {
	if len(key) > 12 {
		return string(key[:12])
	}
	return string(key)
}

// store inserts into the memory layer, evicting from the LRU tail.
func (c *Cache) store(key Key, res *ascoma.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*lruEntry)
		e.res, e.reply = res, nil
		return
	}
	c.entries[key] = c.lru.PushFront(&lruEntry{key: key, res: res})
	for c.lru.Len() > c.max {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		delete(c.entries, tail.Value.(*lruEntry).key)
	}
}
