package mps

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
)

func marshal(t *testing.T, m *MPS) []byte {
	t.Helper()
	b, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSimulateMatchesFreshState: a workspace's Simulate, run over several
// rows and a change of width, returns what NewZeroState + ApplyCircuit +
// CompactSites returns — same bytes, gate count and memory ledger — so the
// scratch state carries nothing from one row to the next.
func TestSimulateMatchesFreshState(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ws := NewSimWorkspace()
	narrow := circuit.Ansatz{Qubits: 5, Layers: 1, Distance: 2, Gamma: 1.1}
	for trial, a := range []circuit.Ansatz{engineAnsatz, engineAnsatz, narrow, engineAnsatz} {
		for _, cfg := range []Config{{}, {RecordMemory: true}, {MaxBond: 2}} {
			c, err := a.BuildRouted(randomData(rng, a.Qubits))
			if err != nil {
				t.Fatal(err)
			}
			got, err := ws.Simulate(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := NewZeroState(a.Qubits, cfg)
			if err := want.ApplyCircuit(c); err != nil {
				t.Fatal(err)
			}
			want.CompactSites()
			if !bytes.Equal(marshal(t, got), marshal(t, want)) || got.GatesApplied() != want.GatesApplied() ||
				!slices.Equal(got.Ledger, want.Ledger) {
				t.Fatalf("trial %d %+v: Simulate differs from a fresh state", trial, cfg)
			}
		}
	}
}

// TestSlabStateGates: gates on a slab state — through a Clone or on the
// state itself — grow sites by reallocating them, never by writing into a
// neighbour's window: the original stays ==, and the gated slab state
// equals the same gates on a state with separately allocated sites.
func TestSlabStateGates(t *testing.T) {
	// A nearly-product state (RXX on |0…0⟩ entangles one bond), so the
	// gates below grow the sites they touch.
	c := circuit.New(8)
	c.MustAppend(circuit.Gate{Name: "RXX", Qubits: []int{3, 4}, Mat: gates.RXX(0.9)})
	st, err := NewSimWorkspace().Simulate(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	before := marshal(t, st)
	more := []circuit.Gate{
		{Name: "RXX", Qubits: []int{0, 1}, Mat: gates.RXX(1.3)},
		{Name: "RXX", Qubits: []int{4, 3}, Mat: gates.RXX(0.7)},
		{Name: "RXX", Qubits: []int{6, 7}, Mat: gates.RXX(2.1)},
		{Name: "H", Qubits: []int{2}, Mat: gates.H()},
	}
	apply := func(m *MPS) {
		for _, g := range more {
			if err := m.ApplyGate(g); err != nil {
				t.Fatal(err)
			}
		}
	}
	clone := st.Clone()
	apply(clone)
	if !bytes.Equal(marshal(t, st), before) {
		t.Fatal("gates on a Clone changed the slab state")
	}
	loose := NewZeroState(c.NumQubits, Config{})
	if err := loose.ApplyCircuit(c); err != nil {
		t.Fatal(err)
	}
	apply(loose)
	apply(st)
	if !bytes.Equal(marshal(t, st), marshal(t, loose)) || !bytes.Equal(marshal(t, clone), marshal(t, loose)) {
		t.Fatal("gates on a slab state differ from the same gates on separately allocated sites")
	}
}
