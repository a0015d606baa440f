// Package statecache memoises simulated MPS states across kernel
// computations — the scaling lever the paper's structural insight exposes:
// simulations are the linear-but-expensive stage, so a state computed once
// for the training Gram matrix should never be recomputed for the inference
// kernel, a second fit, or a redundant shard of the no-messaging strategy.
//
// The cache is a concurrency-safe segmented LRU bounded by a byte budget
// rather than an entry count. Each entry is costed by the heap its state
// really holds (EntryBytes: the site payloads, which grow as O(m·χ²), plus
// the per-site and per-entry headers) — so the budget is χ-aware: a few
// high-bond-dimension states displace many cheap product-like states, and
// the resident set fits the configured memory.
//
// The two segments make the cache scan-resistant. A first-time entry goes
// to the probation segment, which holds at most a quarter of the budget (a
// state larger than that share is still admitted, alone). A hit promotes the
// entry to the protected segment. Victims come from the probation tail
// first and from the protected tail only when probation has nothing else to
// give. So a stream of rows that are never asked for again — a server
// answering fresh requests — churns a quarter of the budget instead of the
// whole of it, and cannot flush a pool of states that are actually reused.
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
// (map bucket share, list element, cache entry and MPS header) and
// siteOverheadBytes the headers each site adds beside its payload (the
// *mps.Tensor, its Shape array and its slot in MPS.Sites); both are
// charged against the budget on top of the tensor payload.
const (
	entryOverheadBytes = 256
	siteOverheadBytes  = 80
)

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
// per-site and per-entry headers — the heap a resident entry holds alive.
// Exported so callers can size budgets (e.g. budget ≈ expectedResidentStates
// × EntryBytes of a representative state).
func EntryBytes(st *mps.MPS) int64 {
	return st.MemoryBytes() + int64(len(st.Sites))*siteOverheadBytes + entryOverheadBytes
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts lookups served from a resident entry, including
	// GetOrCompute joins on an in-flight simulation.
	Hits int64
	// Misses counts lookups that found nothing (for GetOrCompute, the
	// requests that ran the computation themselves).
	Misses int64
	// Evictions counts entries displaced to keep Bytes within Budget and
	// the probation segment within its quarter of it.
	Evictions int64
	// Rejected counts states too large to ever fit the budget; they are
	// returned to the caller but not retained.
	Rejected int64
	// Entries is the current resident entry count, both segments.
	Entries int
	// Bytes is the current resident cost of both segments (≤ Budget at all
	// times).
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
	key       Key
	st        *mps.MPS
	bytes     int64
	protected bool // which segment holds the entry
}

// call is one in-flight computation being shared by concurrent requesters.
type call struct {
	done chan struct{}
	st   *mps.MPS
	err  error
	// joined records that another requester joined the flight — a hit on
	// the entry before it was even resident, so it is admitted protected.
	joined bool
}

// Cache is the χ-aware byte-budgeted segmented LRU. The zero value is not
// usable; construct with New. A nil *Cache is valid everywhere and behaves
// as a disabled cache (every lookup misses, nothing is retained).
type Cache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64 // both segments
	// probation holds entries not yet hit since insertion and protected the
	// ones that were; front = most recent, values are *entry. probBytes is
	// probation's share of bytes.
	probation, protected *list.List
	probBytes            int64
	items                map[Key]*list.Element
	inflight             map[Key]*call

	hits, misses, evictions, rejected int64
	computeWall, waitWall             time.Duration
}

// New returns a cache bounded by budgetBytes. Budgets ≤ 0 are treated as
// "cache nothing" (every insert is rejected); to disable caching entirely,
// use a nil *Cache instead.
func New(budgetBytes int64) *Cache {
	return &Cache{
		budget:    budgetBytes,
		probation: list.New(),
		protected: list.New(),
		items:     make(map[Key]*list.Element),
		inflight:  make(map[Key]*call),
	}
}

// Get returns the cached state for k, promoting it to the front of the
// protected segment.
func (c *Cache) Get(k Key) (*mps.MPS, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		return c.hit(el), true
	}
	c.misses++
	return nil, false
}

// Probe returns the resident state for k without ever counting a miss: a
// found entry is promoted and counted as a hit exactly like Get, while an
// absent one leaves every counter untouched. Beyond an entry's one
// promotion it allocates nothing: it is the fast path for hot loops that
// keep their own fallback — a caller that probes and then falls back to
// GetOrCompute on absence ends up with the same counter totals as calling
// GetOrCompute alone. Probe never joins an in-flight computation (that
// requires blocking, which the fallback path provides).
func (c *Cache) Probe(k Key) (*mps.MPS, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		return c.hit(el), true
	}
	return nil, false
}

// hit counts a hit on a resident entry and promotes it: a probation entry
// moves to the protected segment, a protected one to its front. Promotion
// moves bytes between segments without changing the total, so it never
// evicts. Callers hold c.mu.
func (c *Cache) hit(el *list.Element) *mps.MPS {
	c.hits++
	e := el.Value.(*entry)
	if e.protected {
		c.protected.MoveToFront(el)
	} else {
		c.probation.Remove(el)
		c.probBytes -= e.bytes
		e.protected = true
		c.items[e.key] = c.protected.PushFront(e)
	}
	return e.st
}

// Put inserts (or refreshes) the state for k. A new key enters probation; a
// resident one keeps its segment and moves to its front. Entries are then
// evicted until both bounds hold. States whose cost alone exceeds the budget
// are rejected rather than flushing the whole cache.
func (c *Cache) Put(k Key, st *mps.MPS) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(k, st, false)
}

// put is Put without locking; callers hold c.mu. A new key enters the
// protected segment directly when hot (it was hit while in flight).
func (c *Cache) put(k Key, st *mps.MPS, hot bool) {
	cost := EntryBytes(st)
	el, resident := c.items[k]
	if cost > c.budget {
		// Never admit a state that cannot fit — and drop any stale entry
		// under the same key rather than flushing unrelated residents to
		// make room for something that still would not fit.
		if resident {
			c.remove(el)
		}
		c.rejected++
		return
	}
	if resident {
		// Refresh: same key, possibly re-simulated state.
		e := el.Value.(*entry)
		c.bytes += cost - e.bytes
		if !e.protected {
			c.probBytes += cost - e.bytes
		}
		e.st, e.bytes = st, cost
		c.segment(e).MoveToFront(el)
	} else {
		e := &entry{key: k, st: st, bytes: cost, protected: hot}
		el = c.segment(e).PushFront(e)
		c.items[k] = el
		c.bytes += cost
		if !hot {
			c.probBytes += cost
		}
	}
	c.evict(el)
}

// evict restores the two bounds — probation within a quarter of the budget,
// both segments within the budget — never evicting keep, the entry just
// written. Victims come from the probation tail first; the protected tail
// gives only when probation holds nothing but keep.
func (c *Cache) evict(keep *list.Element) {
	for {
		var victim *list.Element
		if back := c.probation.Back(); back != nil && back != keep && (c.probBytes > c.budget/4 || c.bytes > c.budget) {
			victim = back
		} else if back := c.protected.Back(); back != nil && back != keep && c.bytes > c.budget {
			victim = back
		}
		if victim == nil {
			return
		}
		c.remove(victim)
		c.evictions++
	}
}

// segment returns the list holding e.
func (c *Cache) segment(e *entry) *list.List {
	if e.protected {
		return c.protected
	}
	return c.probation
}

// remove drops a resident entry from its segment and the index.
func (c *Cache) remove(el *list.Element) {
	e := el.Value.(*entry)
	c.segment(e).Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.bytes
	if !e.protected {
		c.probBytes -= e.bytes
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
		st = c.hit(el)
		c.mu.Unlock()
		sp.Event("cache_hit")
		return st, true, nil
	}
	if cl, ok := c.inflight[k]; ok {
		// Join the in-flight simulation: counts as a hit — a simulation
		// was avoided even though the result is not resident yet — and
		// makes the result enter the protected segment.
		c.hits++
		cl.joined = true
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
		c.put(k, cl.st, cl.joined)
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
		Entries:     len(c.items),
		Bytes:       c.bytes,
		Budget:      c.budget,
		ComputeWall: c.computeWall,
		WaitWall:    c.waitWall,
	}
}
