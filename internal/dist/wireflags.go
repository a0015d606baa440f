package dist

import (
	"flag"
	"fmt"
	"time"
)

// WireFlags is the transport-selection flag bundle shared by every binary
// that drives a distributed computation (cmd/qkernel's one-shot and train
// modes, cmd/runtimescaling), so the flag vocabulary and its validation
// cannot drift between them.
type WireFlags struct {
	// Name is the -transport value (ParseTransport's vocabulary).
	Name string
	// LatencyUS, MBps and JitterUS are the -wire-* cost-model knobs; they
	// apply only to the sim transport.
	LatencyUS int
	MBps      float64
	JitterUS  int
}

// Register installs the flags on fs.
func (w *WireFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&w.Name, "transport", "chan", "shard wire: chan | sim | tcp")
	fs.IntVar(&w.LatencyUS, "wire-latency-us", 0, "sim transport: per-message latency in µs")
	fs.Float64Var(&w.MBps, "wire-mbps", 0, "sim transport: bandwidth in MiB/s (0 = unlimited)")
	fs.IntVar(&w.JitterUS, "wire-jitter-us", 0, "sim transport: max deterministic per-message jitter in µs")
}

// Build parses the configured transport and applies the cost-model knobs,
// rejecting cost flags on transports that have no cost model.
func (w *WireFlags) Build() (Transport, error) {
	tr, err := ParseTransport(w.Name)
	if err != nil {
		return nil, err
	}
	if sim, ok := tr.(*SimTransport); ok {
		sim.Latency = time.Duration(w.LatencyUS) * time.Microsecond
		sim.MBps = w.MBps
		sim.Jitter = time.Duration(w.JitterUS) * time.Microsecond
	} else if w.LatencyUS != 0 || w.MBps != 0 || w.JitterUS != 0 {
		return nil, fmt.Errorf("dist: -wire-latency-us/-wire-mbps/-wire-jitter-us model the simulated wire; use them with -transport sim")
	}
	return tr, nil
}
