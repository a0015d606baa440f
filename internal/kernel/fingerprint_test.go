package kernel

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/mps"
	"repro/internal/statecache"
)

// TestFingerprintLiteral pins the exact Fingerprint format: it is the cache
// key and the integrity check every saved model is loaded against, so any
// change to it orphans model files. Of the four trailing booleans only the
// second (RecordMemory) still varies; the other three are fixed false.
func TestFingerprintLiteral(t *testing.T) {
	a := circuit.Ansatz{Qubits: 6, Layers: 2, Distance: 2, Gamma: 0.7}
	for _, tc := range []struct {
		name string
		cfg  mps.Config
		want string
	}{
		{"default", mps.Config{}, "ansatz:6/2/2/3fe6666666666666|cfg:serial/3c9cd2b297d889bc/0/false/false/false/false"},
		{"record-memory", mps.Config{RecordMemory: true}, "ansatz:6/2/2/3fe6666666666666|cfg:serial/3c9cd2b297d889bc/0/false/true/false/false"},
		{"max-bond", mps.Config{MaxBond: 8}, "ansatz:6/2/2/3fe6666666666666|cfg:serial/3c9cd2b297d889bc/8/false/false/false/false"},
	} {
		q := &Quantum{Ansatz: a, Config: tc.cfg}
		if got := q.Fingerprint(); got != tc.want {
			t.Errorf("%s: Fingerprint() = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestFingerprintFollowsReassignedConfig: the fingerprint is built once per
// Ansatz and Config value, so reassigning Config.MaxBond after first use
// must rebuild it and change the cache key.
func TestFingerprintFollowsReassignedConfig(t *testing.T) {
	q := &Quantum{Ansatz: circuit.Ansatz{Qubits: 6, Layers: 2, Distance: 2, Gamma: 0.7}}
	x := []float64{0.1, 0.5, 0.9, 1.3, 1.7, 1.9}
	if _, err := q.State(x); err != nil {
		t.Fatal(err)
	}
	before := statecache.KeyFor(q.Fingerprint(), x)
	q.Config.MaxBond = 8
	const want = "ansatz:6/2/2/3fe6666666666666|cfg:serial/3c9cd2b297d889bc/8/false/false/false/false"
	if got := q.Fingerprint(); got != want {
		t.Fatalf("Fingerprint() after reassigning MaxBond = %q, want %q", got, want)
	}
	if statecache.KeyFor(q.Fingerprint(), x) == before {
		t.Fatal("reassigning Config.MaxBond kept the cache key")
	}
}
