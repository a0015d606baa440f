// Package statecache memoises simulated MPS states across kernel
// computations — the scaling lever the paper's structural insight exposes:
// simulations are the linear-but-expensive stage, so a state computed once
// for the training Gram matrix should never be recomputed for the inference
// kernel, a second fit, or a redundant shard of the no-messaging strategy.
//
// The cache is a concurrency-safe LRU bounded by a byte budget rather than
// an entry count. Each entry is costed by the actual payload of its site
// tensors (mps.MemoryBytes), which grows as O(m·χ²) — so the budget is
// χ-aware: a few high-bond-dimension states displace many cheap product-like
// states, and the resident set always fits the configured memory.
//
// Keys are 128-bit FNV-1a fingerprints of the full simulation context
// (feature-map ansatz and simulator configuration) plus the exact bit
// pattern of the data row, so any change to the ansatz or mps.Config
// invalidates every prior entry by construction.
//
// GetOrCompute adds in-flight deduplication (singleflight): concurrent
// requests for the same key run the simulation once and share the result,
// which collapses the no-messaging strategy's redundant simulations to one
// per state cluster-wide.
//
// Cached states are shared between callers and MUST be treated as read-only;
// every consumer in this repository only reads them (inner products,
// serialisation).
package statecache

import (
	"container/list"
	"math"
	"math/bits"
	"sync"
	"time"

	"repro/internal/mps"
	"repro/internal/obs"
)

// entryOverheadBytes approximates the bookkeeping cost per resident entry
// (map bucket share, list element, MPS header and tensor headers) charged
// against the budget on top of the tensor payload.
const entryOverheadBytes = 256

// Key identifies a simulated state: a 128-bit hash of the simulation context
// and the data row. The zero Key is valid (it is simply a key no fingerprint
// will produce in practice).
type Key struct{ hi, lo uint64 }

// FNV-128a parameters (the same constants hash/fnv uses): the offset basis
// seeds the state and each input byte is XORed into the low word before the
// 128-bit multiply by the prime 2^88 + 2^8 + 0x3b.
const (
	fnvOffsetHi   = 0x6c62272e07bb0142
	fnvOffsetLo   = 0x62b821756295c58d
	fnvPrimeLow   = 0x13b
	fnvPrimeShift = 24
)

// KeyFor fingerprints a simulation context (an opaque string encoding the
// ansatz and simulator configuration — see kernel.Quantum) together with a
// data row. Rows hash by exact float64 bit pattern: the cache never returns
// a state for approximately-equal inputs.
//
// The hash is FNV-128a inlined (bit-identical to hash/fnv's New128a over the
// same byte stream — pinned by TestKeyForMatchesStdlibFNV) so keying a lookup
// performs zero heap allocations: this runs once per row on every cache
// probe in the kernel, dist and serve hot paths.
func KeyFor(context string, x []float64) Key {
	hi, lo := uint64(fnvOffsetHi), uint64(fnvOffsetLo)
	for i := 0; i < len(context); i++ {
		lo ^= uint64(context[i])
		s0, s1 := bits.Mul64(fnvPrimeLow, lo)
		s0 += lo<<fnvPrimeShift + fnvPrimeLow*hi
		hi, lo = s0, s1
	}
	for _, v := range x {
		b := math.Float64bits(v)
		for s := 0; s < 64; s += 8 { // little-endian byte order, as before
			lo ^= uint64(byte(b >> s))
			s0, s1 := bits.Mul64(fnvPrimeLow, lo)
			s0 += lo<<fnvPrimeShift + fnvPrimeLow*hi
			hi, lo = s0, s1
		}
	}
	return Key{hi: hi, lo: lo}
}

// EntryBytes is the budget cost of caching st: its tensor payload plus the
// per-entry bookkeeping overhead. Exported so callers can size budgets
// (e.g. budget ≈ expectedResidentStates × EntryBytes of a representative
// state).
func EntryBytes(st *mps.MPS) int64 {
	return st.MemoryBytes() + entryOverheadBytes
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts lookups served from a resident entry, including
	// GetOrCompute joins on an in-flight simulation.
	Hits int64
	// Misses counts lookups that found nothing (for GetOrCompute, the
	// requests that ran the computation themselves).
	Misses int64
	// Evictions counts entries displaced to keep Bytes within Budget.
	Evictions int64
	// Rejected counts states too large to ever fit the budget; they are
	// returned to the caller but not retained.
	Rejected int64
	// Entries is the current resident entry count.
	Entries int
	// Bytes is the current resident cost (≤ Budget at all times).
	Bytes int64
	// Budget is the configured byte budget.
	Budget int64
	// ComputeWall is the cumulative wall-clock spent inside GetOrCompute's
	// compute callbacks (the simulation latency the cache either pays or
	// saves) — with Misses this yields the mean simulate latency a serving
	// process reports per request.
	ComputeWall time.Duration
	// WaitWall is the cumulative wall-clock concurrent callers spent blocked
	// joining a peer's in-flight computation (the latency cost of the
	// singleflight dedup, always bounded by one simulation).
	WaitWall time.Duration
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

type entry struct {
	key   Key
	st    *mps.MPS
	bytes int64
}

// call is one in-flight computation being shared by concurrent requesters.
type call struct {
	done chan struct{}
	st   *mps.MPS
	err  error
}

// Cache is the χ-aware byte-budgeted LRU. The zero value is not usable;
// construct with New. A nil *Cache is valid everywhere and behaves as a
// disabled cache (every lookup misses, nothing is retained).
type Cache struct {
	mu       sync.Mutex
	budget   int64
	bytes    int64
	ll       *list.List // front = most recently used; values are *entry
	items    map[Key]*list.Element
	inflight map[Key]*call

	hits, misses, evictions, rejected int64
	computeWall, waitWall             time.Duration
}

// New returns a cache bounded by budgetBytes. Budgets ≤ 0 are treated as
// "cache nothing" (every insert is rejected); to disable caching entirely,
// use a nil *Cache instead.
func New(budgetBytes int64) *Cache {
	return &Cache{
		budget:   budgetBytes,
		ll:       list.New(),
		items:    make(map[Key]*list.Element),
		inflight: make(map[Key]*call),
	}
}

// Get returns the cached state for k, marking it most recently used.
func (c *Cache) Get(k Key) (*mps.MPS, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*entry).st, true
	}
	c.misses++
	return nil, false
}

// Probe returns the resident state for k without ever counting a miss: a
// found entry is refreshed in LRU order and counted as a hit exactly like
// Get, while an absent one leaves every counter untouched. It is the
// allocation-free fast path for hot loops that keep their own fallback —
// a caller that probes and then falls back to GetOrCompute on absence ends
// up with the same counter totals as calling GetOrCompute alone. Probe never
// joins an in-flight computation (that requires blocking, which the fallback
// path provides).
func (c *Cache) Probe(k Key) (*mps.MPS, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*entry).st, true
	}
	return nil, false
}

// Put inserts (or refreshes) the state for k, evicting least-recently-used
// entries until the budget holds. States whose cost alone exceeds the budget
// are rejected rather than flushing the whole cache.
func (c *Cache) Put(k Key, st *mps.MPS) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(k, st)
}

// put is Put without locking; callers hold c.mu.
func (c *Cache) put(k Key, st *mps.MPS) {
	cost := EntryBytes(st)
	if cost > c.budget {
		// Never admit a state that cannot fit — and drop any stale entry
		// under the same key rather than flushing unrelated residents to
		// make room for something that still would not fit.
		if el, ok := c.items[k]; ok {
			e := el.Value.(*entry)
			c.ll.Remove(el)
			delete(c.items, k)
			c.bytes -= e.bytes
		}
		c.rejected++
		return
	}
	if el, ok := c.items[k]; ok {
		// Refresh: same key, possibly re-simulated state.
		e := el.Value.(*entry)
		c.bytes += cost - e.bytes
		e.st, e.bytes = st, cost
		c.ll.MoveToFront(el)
		c.evictOverBudget()
		return
	}
	c.items[k] = c.ll.PushFront(&entry{key: k, st: st, bytes: cost})
	c.bytes += cost
	c.evictOverBudget()
}

func (c *Cache) evictOverBudget() {
	for c.bytes > c.budget {
		back := c.ll.Back()
		if back == nil {
			return
		}
		e := back.Value.(*entry)
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.bytes -= e.bytes
		c.evictions++
	}
}

// GetOrCompute returns the state for k, running compute on a miss and
// retaining its result. Concurrent calls for the same key run compute once:
// the first caller simulates, later callers block on the in-flight result
// and report a hit. Errors are propagated to every waiter and never cached.
// hit reports whether this caller avoided running compute.
func (c *Cache) GetOrCompute(k Key, compute func() (*mps.MPS, error)) (st *mps.MPS, hit bool, err error) {
	return c.GetOrComputeTraced(k, nil, compute)
}

// GetOrComputeTraced is GetOrCompute with trace instrumentation: the lookup's
// outcome is recorded on sp as a cache_hit, cache_join (with the blocked
// duration) or cache_compute (with the simulation duration) event. A nil span
// records nothing; the cache counters are identical either way.
func (c *Cache) GetOrComputeTraced(k Key, sp *obs.Span, compute func() (*mps.MPS, error)) (st *mps.MPS, hit bool, err error) {
	if c == nil {
		t0 := time.Now()
		st, err = compute()
		sp.Event("cache_compute", obs.KV("us", time.Since(t0).Microseconds()), obs.KV("uncached", true))
		return st, false, err
	}
	c.mu.Lock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		st = el.Value.(*entry).st
		c.mu.Unlock()
		sp.Event("cache_hit")
		return st, true, nil
	}
	if cl, ok := c.inflight[k]; ok {
		// Join the in-flight simulation: counts as a hit — a simulation
		// was avoided even though the result is not resident yet.
		c.hits++
		c.mu.Unlock()
		t0 := time.Now()
		<-cl.done
		wait := time.Since(t0)
		c.mu.Lock()
		c.waitWall += wait
		c.mu.Unlock()
		sp.Event("cache_join", obs.KV("wait_us", wait.Microseconds()))
		return cl.st, true, cl.err
	}
	cl := &call{done: make(chan struct{})}
	c.inflight[k] = cl
	c.misses++
	c.mu.Unlock()

	t0 := time.Now()
	cl.st, cl.err = compute()
	elapsed := time.Since(t0)

	c.mu.Lock()
	c.computeWall += elapsed
	delete(c.inflight, k)
	if cl.err == nil {
		c.put(k, cl.st)
	}
	c.mu.Unlock()
	close(cl.done)
	sp.Event("cache_compute", obs.KV("us", elapsed.Microseconds()))
	return cl.st, false, cl.err
}

// Stats returns a consistent snapshot of the counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evictions,
		Rejected:    c.rejected,
		Entries:     c.ll.Len(),
		Bytes:       c.bytes,
		Budget:      c.budget,
		ComputeWall: c.computeWall,
		WaitWall:    c.waitWall,
	}
}
