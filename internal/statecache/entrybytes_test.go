package statecache_test

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/mps"
	"repro/internal/statecache"
)

// TestEntryBytesMatchesHeap: the budget charge of a cached state agrees with
// the heap the cache really holds alive for it, within ±15 %, at both ends of
// the bond range the workloads use — bond-2 64-qubit states, where headers
// rival the payload, and χ=32 10-qubit states, where the payload dominates —
// and for states decoded from their wire form, which keep every payload in
// one slab (a loaded model's states, a ring shard's).
// Otherwise a configured budget says little about the resident set.
func TestEntryBytesMatchesHeap(t *testing.T) {
	for _, c := range []struct {
		name    string
		a       circuit.Ansatz
		rows    int
		decoded bool
	}{
		{"bond2_64q", circuit.Ansatz{Qubits: 64, Layers: 2, Distance: 1, Gamma: 0.1}, 400, false},
		{"bond32_10q", circuit.Ansatz{Qubits: 10, Layers: 2, Distance: 4, Gamma: 1.0}, 12, false},
		{"bond2_64q_decoded", circuit.Ansatz{Qubits: 64, Layers: 2, Distance: 1, Gamma: 0.1}, 400, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			full := dataset.GenerateElliptic(dataset.EllipticConfig{
				Features: c.a.Qubits, NumIllicit: c.rows, NumLicit: c.rows, Seed: 1, Skew: -1,
			})
			train, _, err := dataset.PrepareSplit(full, 2*c.rows, c.a.Qubits, 1)
			if err != nil {
				t.Fatal(err)
			}
			X := train.X[:c.rows]

			cache := statecache.New(1 << 40)
			var blobs [][]byte
			if c.decoded {
				blobs = marshalStates(t, c.a, X)
			}
			before := liveHeap()
			if c.decoded {
				for i, blob := range blobs {
					st, err := mps.UnmarshalBinary(blob, mps.Config{})
					if err != nil {
						t.Fatal(err)
					}
					cache.Put(statecache.KeyFor(c.name, X[i]), st)
				}
			} else if _, err := (&kernel.Quantum{Ansatz: c.a, Workers: 1, Cache: cache}).States(X); err != nil {
				t.Fatal(err)
			}
			held := float64(liveHeap() - before)
			runtime.KeepAlive(blobs)
			s := cache.Stats()
			runtime.KeepAlive(X)
			if s.Entries != c.rows {
				t.Fatalf("%d entries cached, want %d", s.Entries, c.rows)
			}
			charged := float64(s.Bytes)
			t.Logf("%s: %.0f B charged vs %.0f B held per entry", c.name, charged/float64(c.rows), held/float64(c.rows))
			if math.Abs(charged-held) > 0.15*held {
				t.Fatalf("cache charges %.0f B for %d states that hold %.0f B of heap (%.0f%% off)",
					charged, c.rows, held, 100*(charged-held)/held)
			}
			runtime.KeepAlive(cache)
		})
	}
}

// marshalStates simulates X and returns the states' wire form; the states
// themselves are garbage once it returns.
func marshalStates(t *testing.T, a circuit.Ansatz, X [][]float64) [][]byte {
	t.Helper()
	states, err := (&kernel.Quantum{Ansatz: a, Workers: 1}).States(X)
	if err != nil {
		t.Fatal(err)
	}
	blobs := make([][]byte, len(states))
	for i, st := range states {
		if blobs[i], err = st.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}
	return blobs
}

// liveHeap returns the bytes of live heap objects after a full collection.
// Two cycles also release anything a finaliser kept for one more.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
