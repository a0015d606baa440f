package statecache

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mps"
)

// zeroState returns |0…0⟩ on n qubits — a product state with a known,
// n-proportional payload, convenient for exact budget arithmetic.
func zeroState(n int) *mps.MPS {
	return mps.NewZeroState(n, mps.Config{})
}

func key(i int) Key {
	return KeyFor("test-context", []float64{float64(i)})
}

func TestKeyForDistinguishesContextAndRow(t *testing.T) {
	base := KeyFor("ctx-a", []float64{0.25, 0.5})
	if KeyFor("ctx-a", []float64{0.25, 0.5}) != base {
		t.Fatal("identical inputs produced different keys")
	}
	if KeyFor("ctx-b", []float64{0.25, 0.5}) == base {
		t.Fatal("different contexts collided")
	}
	if KeyFor("ctx-a", []float64{0.25, 0.5000001}) == base {
		t.Fatal("different rows collided")
	}
	// Bit-exact hashing: +0 and −0 differ in their float64 bit pattern.
	if KeyFor("ctx-a", []float64{0.0}) == KeyFor("ctx-a", []float64{negZero()}) {
		t.Fatal("+0 and −0 rows collided despite distinct bit patterns")
	}
}

func negZero() float64 {
	z := 0.0
	return -z
}

// TestEvictionOrder: with a budget for exactly three equal-cost states, a
// fourth insert evicts the least recently used, and a Get refreshes recency.
func TestEvictionOrder(t *testing.T) {
	st := zeroState(8)
	cost := EntryBytes(st)
	c := New(3 * cost)

	for i := 0; i < 3; i++ {
		c.Put(key(i), zeroState(8))
	}
	// Touch key 0 so key 1 becomes the LRU victim.
	if _, ok := c.Get(key(0)); !ok {
		t.Fatal("key 0 missing before eviction")
	}
	c.Put(key(3), zeroState(8))

	if _, ok := c.Get(key(1)); ok {
		t.Fatal("LRU entry (key 1) survived eviction")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := c.Get(key(i)); !ok {
			t.Fatalf("key %d was evicted out of LRU order", i)
		}
	}
	s := c.Stats()
	if s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	if s.Entries != 3 || s.Bytes != 3*cost {
		t.Fatalf("resident %d entries / %d bytes, want 3 / %d", s.Entries, s.Bytes, 3*cost)
	}
}

// TestBudgetNeverExceeded: inserting states of varying cost never leaves the
// resident set over budget, and larger states displace proportionally more
// small ones (the χ-aware property at product-state scale).
func TestBudgetNeverExceeded(t *testing.T) {
	budget := 5 * EntryBytes(zeroState(32))
	c := New(budget)
	for i := 0; i < 100; i++ {
		n := 4 + (i*7)%29 // vary payload size
		c.Put(key(i), zeroState(n))
		if s := c.Stats(); s.Bytes > s.Budget {
			t.Fatalf("after insert %d: %d resident bytes exceed budget %d", i, s.Bytes, s.Budget)
		}
	}
	if s := c.Stats(); s.Evictions == 0 {
		t.Fatalf("expected evictions under tight budget, got stats %+v", s)
	}
}

func TestOversizeStateRejected(t *testing.T) {
	small := zeroState(4)
	c := New(EntryBytes(small))
	c.Put(key(0), small)
	c.Put(key(1), zeroState(64)) // costs more than the whole budget
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("oversize state was cached")
	}
	if _, ok := c.Get(key(0)); !ok {
		t.Fatal("oversize insert flushed an unrelated resident entry")
	}
	if s := c.Stats(); s.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", s.Rejected)
	}
}

// TestOversizeRefreshRejected: refreshing a resident key with a state too
// large for the whole budget must reject (dropping the stale entry), not
// flush unrelated residents.
func TestOversizeRefreshRejected(t *testing.T) {
	small := zeroState(4)
	c := New(3 * EntryBytes(small))
	c.Put(key(0), zeroState(4))
	c.Put(key(1), zeroState(4))
	c.Put(key(0), zeroState(64)) // oversize refresh of a resident key
	if _, ok := c.Get(key(0)); ok {
		t.Fatal("oversize refresh left an entry resident")
	}
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("oversize refresh flushed an unrelated resident entry")
	}
	s := c.Stats()
	if s.Rejected != 1 || s.Evictions != 0 {
		t.Fatalf("rejected/evictions = %d/%d, want 1/0", s.Rejected, s.Evictions)
	}
	if s.Bytes > s.Budget {
		t.Fatalf("over budget after oversize refresh: %+v", s)
	}
}

func TestPutRefreshSameKey(t *testing.T) {
	c := New(10 * EntryBytes(zeroState(8)))
	c.Put(key(0), zeroState(8))
	c.Put(key(0), zeroState(16)) // refresh with a different-size state
	s := c.Stats()
	if s.Entries != 1 {
		t.Fatalf("refresh duplicated the entry: %d resident", s.Entries)
	}
	if want := EntryBytes(zeroState(16)); s.Bytes != want {
		t.Fatalf("resident bytes %d after refresh, want %d", s.Bytes, want)
	}
}

// TestGetOrComputeSingleflight: concurrent requests for one key run the
// computation exactly once; the joiners count as hits.
func TestGetOrComputeSingleflight(t *testing.T) {
	c := New(1 << 20)
	var computes atomic.Int64
	gate := make(chan struct{})
	const goroutines = 16

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, _, err := c.GetOrCompute(key(0), func() (*mps.MPS, error) {
				computes.Add(1)
				<-gate // hold the flight open until all goroutines have queued
				return zeroState(8), nil
			})
			if err != nil || st == nil {
				t.Errorf("GetOrCompute: st=%v err=%v", st, err)
			}
		}()
	}
	// Let every goroutine reach the cache before releasing the computation.
	for c.Stats().Hits+c.Stats().Misses < goroutines {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != goroutines-1 {
		t.Fatalf("hits/misses = %d/%d, want %d/1", s.Hits, s.Misses, goroutines-1)
	}
}

// TestGetOrComputeError: failures reach every waiter and are never cached.
func TestGetOrComputeError(t *testing.T) {
	c := New(1 << 20)
	wantErr := fmt.Errorf("simulation failed")
	_, hit, err := c.GetOrCompute(key(0), func() (*mps.MPS, error) { return nil, wantErr })
	if hit || err != wantErr {
		t.Fatalf("hit=%v err=%v, want miss with the compute error", hit, err)
	}
	// The failed flight must not poison the key.
	st, hit, err := c.GetOrCompute(key(0), func() (*mps.MPS, error) { return zeroState(4), nil })
	if err != nil || hit || st == nil {
		t.Fatalf("retry after error: st=%v hit=%v err=%v", st, hit, err)
	}
	if _, ok := c.Get(key(0)); !ok {
		t.Fatal("successful retry was not cached")
	}
}

func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache
	if _, ok := c.Get(key(0)); ok {
		t.Fatal("nil cache reported a hit")
	}
	c.Put(key(0), zeroState(4)) // must not panic
	st, hit, err := c.GetOrCompute(key(0), func() (*mps.MPS, error) { return zeroState(4), nil })
	if err != nil || hit || st == nil {
		t.Fatalf("nil GetOrCompute: st=%v hit=%v err=%v", st, hit, err)
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("nil cache has non-zero stats %+v", s)
	}
}

// TestConcurrentStress hammers the cache from many goroutines mixing reads,
// writes and singleflight computes over an overlapping key range; run under
// -race this is the data-race check for concurrent readers.
func TestConcurrentStress(t *testing.T) {
	c := New(20 * EntryBytes(zeroState(8)))
	const (
		goroutines = 8
		ops        = 300
		keys       = 40
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := key((g*31 + i) % keys)
				switch i % 3 {
				case 0:
					if st, ok := c.Get(k); ok && st.N < 1 {
						t.Error("cached state corrupted")
					}
				case 1:
					c.Put(k, zeroState(8))
				default:
					st, _, err := c.GetOrCompute(k, func() (*mps.MPS, error) {
						return zeroState(8), nil
					})
					if err != nil || st == nil {
						t.Errorf("GetOrCompute: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if s := c.Stats(); s.Bytes > s.Budget {
		t.Fatalf("stress left cache over budget: %+v", s)
	}
}

func TestHitRate(t *testing.T) {
	if r := (Stats{}).HitRate(); r != 0 {
		t.Fatalf("empty hit rate %v, want 0", r)
	}
	if r := (Stats{Hits: 3, Misses: 1}).HitRate(); r != 0.75 {
		t.Fatalf("hit rate %v, want 0.75", r)
	}
}

// TestLatencyCounters: ComputeWall accumulates the wall-clock of compute
// callbacks (paid on misses) and WaitWall the time joiners spent blocked on
// an in-flight peer — the per-request latency counters /metrics surfaces.
func TestLatencyCounters(t *testing.T) {
	c := New(1 << 20)
	const pause = 5 * time.Millisecond

	var wg sync.WaitGroup
	gate := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _ = c.GetOrCompute(key(0), func() (*mps.MPS, error) {
			close(gate) // a joiner can now queue behind this flight
			// Hold the flight open until the joiner has actually joined (the
			// only way Hits can move while nothing is resident), so WaitWall
			// is guaranteed to observe a real wait.
			for c.Stats().Hits == 0 {
				runtime.Gosched()
			}
			time.Sleep(pause)
			return zeroState(8), nil
		})
	}()
	<-gate
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _ = c.GetOrCompute(key(0), func() (*mps.MPS, error) {
			t.Error("joiner must not compute")
			return zeroState(8), nil
		})
	}()
	wg.Wait()

	s := c.Stats()
	if s.ComputeWall < pause {
		t.Fatalf("ComputeWall %v below the %v the compute slept", s.ComputeWall, pause)
	}
	if s.WaitWall <= 0 {
		t.Fatalf("joiner recorded no wait: %+v", s)
	}
	// Generous upper bound: the joiner's wait includes its own wake-up
	// latency, which can stretch well past the flight on a loaded machine.
	if s.WaitWall > s.ComputeWall+time.Second {
		t.Fatalf("WaitWall %v implausibly exceeds one flight (%v)", s.WaitWall, s.ComputeWall)
	}

	// Resident hits are free: neither counter moves.
	before := c.Stats()
	if _, hit, _ := c.GetOrCompute(key(0), func() (*mps.MPS, error) { return zeroState(8), nil }); !hit {
		t.Fatal("expected a resident hit")
	}
	after := c.Stats()
	if after.ComputeWall != before.ComputeWall || after.WaitWall != before.WaitWall {
		t.Fatalf("resident hit moved latency counters: %+v vs %+v", after, before)
	}
}

// TestKeyForMatchesStdlibFNV pins the inlined FNV-128a in KeyFor to the
// stdlib implementation over the same byte stream (context bytes, then each
// float64 little-endian): the inline form exists only to make keying
// allocation-free, never to change a single key.
func TestKeyForMatchesStdlibFNV(t *testing.T) {
	ref := func(context string, x []float64) Key {
		h := fnv.New128a()
		_, _ = h.Write([]byte(context))
		var buf [8]byte
		for _, v := range x {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			_, _ = h.Write(buf[:])
		}
		var sum [16]byte
		h.Sum(sum[:0])
		return Key{
			hi: binary.BigEndian.Uint64(sum[0:8]),
			lo: binary.BigEndian.Uint64(sum[8:16]),
		}
	}
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		context string
		x       []float64
	}{
		{"", nil},
		{"ctx", nil},
		{"", []float64{0}},
		{"ansatz:8/2/1/3fe0000000000000|cfg:serial/3ddb7cdfd9d7bdbb/0/false/false/false/false", []float64{0.25, 0.5, 1.75}},
	}
	for i := 0; i < 50; i++ {
		n := rng.Intn(12)
		x := make([]float64, n)
		for j := range x {
			x[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
		ctx := make([]byte, rng.Intn(90))
		for j := range ctx {
			ctx[j] = byte(rng.Intn(256))
		}
		cases = append(cases, struct {
			context string
			x       []float64
		}{string(ctx), x})
	}
	for _, c := range cases {
		if got, want := KeyFor(c.context, c.x), ref(c.context, c.x); got != want {
			t.Fatalf("KeyFor(%q, %v) = %+v, stdlib fnv gives %+v", c.context, c.x, got, want)
		}
	}
}

// TestKeyForZeroAlloc: keying runs once per row on every cache probe in the
// kernel/dist/serve hot paths and must never touch the heap.
func TestKeyForZeroAlloc(t *testing.T) {
	ctx := "ansatz:8/2/1/3fe0000000000000|cfg:serial/3ddb7cdfd9d7bdbb/0/false/false/false/false"
	x := []float64{0.25, 0.5, 1.75, 0.125}
	if n := testing.AllocsPerRun(50, func() { _ = KeyFor(ctx, x) }); n != 0 {
		t.Fatalf("KeyFor performed %v allocations, want 0", n)
	}
}

// TestProbeCounterNeutralOnAbsence: Probe + GetOrCompute fallback must count
// exactly like GetOrCompute alone — a found entry is a hit, an absent one
// counts nothing until the fallback records the miss.
func TestProbeCounterNeutralOnAbsence(t *testing.T) {
	c := New(1 << 20)
	st := zeroState(4)
	if _, ok := c.Probe(key(1)); ok {
		t.Fatal("probe of empty cache reported a hit")
	}
	if s := c.Stats(); s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("absent probe moved counters: %+v", s)
	}
	if _, _, err := c.GetOrCompute(key(1), func() (*mps.MPS, error) { return st, nil }); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Probe(key(1))
	if !ok || got != st {
		t.Fatal("probe missed a resident entry")
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("probe hit accounting wrong: %+v", s)
	}
	// LRU refresh: probing key 1 must protect it from eviction over key 2.
	c2 := New(2 * EntryBytes(st))
	c2.Put(key(1), st)
	c2.Put(key(2), zeroState(4))
	if _, ok := c2.Probe(key(1)); !ok {
		t.Fatal("setup: key 1 not resident")
	}
	c2.Put(key(3), zeroState(4)) // evicts key 2, the LRU entry after the probe
	if _, ok := c2.Probe(key(1)); !ok {
		t.Fatal("probe did not refresh LRU order: key 1 evicted")
	}
	if _, ok := c2.Get(key(2)); ok {
		t.Fatal("key 2 should have been the eviction victim")
	}
	var nilCache *Cache
	if _, ok := nilCache.Probe(key(1)); ok {
		t.Fatal("nil cache probe reported a hit")
	}
}
