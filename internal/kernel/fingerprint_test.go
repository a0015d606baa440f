package kernel

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/mps"
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
