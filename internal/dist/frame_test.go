package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"slices"
	"testing"
)

// encodeFrame is writeFrame into a byte slice.
func encodeFrame(tb testing.TB, s Shard) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeFrame(w, s); err != nil {
		tb.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// seedShards returns real shards: states simulated by the kernel and
// serialised exactly as the round-robin exchange sends them.
func seedShards(tb testing.TB) []Shard {
	tb.Helper()
	states, err := testKernel(4).States([][]float64{
		{0.3, 1.1, 0.7, 1.9}, {1.5, 0.2, 0.9, 0.4}, {0.8, 0.8, 1.6, 1.2},
	})
	if err != nil {
		tb.Fatal(err)
	}
	var shards []Shard
	for _, c := range []struct {
		from    int
		indices []int
	}{{0, nil}, {1, []int{4}}, {2, []int{5, 0, 7}}} {
		s, err := marshalShard(c.from, c.indices, states[:len(c.indices)])
		if err != nil {
			tb.Fatal(err)
		}
		shards = append(shards, s)
	}
	return shards
}

func shardsEqual(a, b Shard) bool {
	return a.From == b.From && slices.Equal(a.Indices, b.Indices) &&
		slices.EqualFunc(a.Blobs, b.Blobs, bytes.Equal)
}

// FuzzReadFrame: the TCP shard decoder never panics on arbitrary bytes, a
// frame it accepts re-encodes to exactly the bytes it consumed, and every
// proper prefix of such a frame is rejected.
func FuzzReadFrame(f *testing.F) {
	for _, s := range seedShards(f) {
		enc := encodeFrame(f, s)
		got, err := readFrame(bytes.NewReader(enc))
		if err != nil || !shardsEqual(got, s) {
			f.Fatalf("seed from proc %d does not round-trip: %v", s.From, err)
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		enc := encodeFrame(t, s)
		if int64(len(enc)) != s.WireBytes() {
			t.Fatalf("re-encoded %d bytes, WireBytes says %d", len(enc), s.WireBytes())
		}
		if !bytes.Equal(enc, data[:len(enc)]) {
			t.Fatal("accepted frame does not re-encode to the bytes it was decoded from")
		}
		for m := range len(enc) {
			if _, err := readFrame(bytes.NewReader(enc[:m])); err == nil {
				t.Fatalf("proper prefix of %d/%d bytes decoded", m, len(enc))
			}
		}
	})
}

// TestReadFrameBoundsAllocation: a length prefix alone buys at most a few
// hundred KiB — a 16-byte header announcing 2²⁰ states and a 32-byte frame
// announcing a payload just under 2³¹ bytes both fail having allocated less
// than 1 MiB, instead of the 32 MB and 2 GiB their prefixes claim.
func TestReadFrameBoundsAllocation(t *testing.T) {
	manyStates := make([]byte, shardHeaderBytes)
	binary.LittleEndian.PutUint64(manyStates[8:], maxFrameStates)
	hugePayload := make([]byte, shardHeaderBytes+stateHeaderBytes)
	binary.LittleEndian.PutUint64(hugePayload[8:], 1)
	binary.LittleEndian.PutUint64(hugePayload[24:], maxStatePayload-1)
	for name, frame := range map[string][]byte{"states": manyStates, "payload": hugePayload} {
		// The minimum over a few runs discounts allocations other goroutines
		// make while one is being measured.
		least := uint64(1 << 62)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := readFrame(bytes.NewReader(frame))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%s: truncated frame decoded", name)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least >= 1<<20 {
			t.Fatalf("%s: decoding a %d-byte frame allocated %d bytes", name, len(frame), least)
		}
	}
}

// corruptTransport is the in-process wire with rank 0's outgoing shards
// rewritten to carry index as their first row: a frame that decodes cleanly
// but names a row the receiver must not write.
type corruptTransport struct{ index int }

func (c corruptTransport) Name() string { return "corrupt" }

func (c corruptTransport) Network(k int) (Network, error) {
	n, err := ChanTransport{}.Network(k)
	return corruptNetwork{n, c.index}, err
}

type corruptNetwork struct {
	Network
	index int
}

func (n corruptNetwork) Endpoint(rank int) Endpoint {
	if rank != 0 {
		return n.Network.Endpoint(rank)
	}
	return corruptEndpoint{n.Network.Endpoint(rank), n.index}
}

type corruptEndpoint struct {
	Endpoint
	index int
}

func (e corruptEndpoint) Send(to int, s Shard) (int64, error) {
	s.Indices = append([]int{e.index}, s.Indices[1:]...)
	return e.Endpoint.Send(to, s)
}

// TestCorruptShardIndexIsTypedError: a received row index outside the
// kernel fails the Gram with a *ShardIndexError instead of panicking a rank
// goroutine on an out-of-range write.
func TestCorruptShardIndexIsTypedError(t *testing.T) {
	X := testData(t, 6, 4)
	q := testKernel(4)
	for _, index := range []int{len(X), 1 << 40, -1} {
		opts := Options{Procs: 3, Strategy: RoundRobin, Transport: corruptTransport{index}}
		var ie *ShardIndexError
		if _, err := ComputeGram(q, X, opts); !errors.As(err, &ie) || ie.Index != index {
			t.Fatalf("gram with row %d: err = %v, want *ShardIndexError", index, err)
		}
	}
}
