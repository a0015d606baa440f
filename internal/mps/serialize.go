package mps

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// magic identifies serialised MPS payloads; guards against feeding arbitrary
// bytes into UnmarshalBinary during distributed message passing.
const magic uint32 = 0x4d505331 // "MPS1"

// headerSize is the fixed prefix: magic, n, centre (4 bytes each), truncErr (8).
const headerSize = 4 + 4 + 4 + 8

// MarshalBinary serialises the MPS site tensors (shapes and payloads) for
// transfer between processes in the round-robin distribution strategy
// (section II-D). Configuration and instrumentation are not serialised: the
// receiver supplies its own Config on decode. Everything is little-endian;
// floats are IEEE-754 bit patterns.
func (m *MPS) MarshalBinary() ([]byte, error) {
	le := binary.LittleEndian
	buf := make([]byte, 0, m.MarshaledSize())
	buf = le.AppendUint32(buf, magic)
	buf = le.AppendUint32(buf, uint32(m.N))
	buf = le.AppendUint32(buf, uint32(m.center))
	buf = le.AppendUint64(buf, math.Float64bits(m.TruncationError))
	for _, s := range m.Sites {
		buf = le.AppendUint32(buf, uint32(s.Shape[0]))
		buf = le.AppendUint32(buf, uint32(s.Shape[2]))
		for _, c := range s.Data {
			buf = le.AppendUint64(buf, math.Float64bits(real(c)))
			buf = le.AppendUint64(buf, math.Float64bits(imag(c)))
		}
	}
	return buf, nil
}

// UnmarshalBinary reconstructs an MPS serialised by MarshalBinary, attaching
// the given Config (backend, truncation policy) to the result. data may come
// off the wire: a first pass checks every site header and payload bound
// against the bytes actually present, allocating nothing. Only then is the
// state built, in five allocations however many sites it has: the MPS, its
// Sites slice, one block of tensor headers, one of shapes and one slab of
// complex128 for every payload. Each site's Data is a cap-limited window of
// the slab, so a gate that grows a site reallocates it instead of writing
// into its neighbour.
func UnmarshalBinary(data []byte, cfg Config) (*MPS, error) {
	le := binary.LittleEndian
	if len(data) < headerSize {
		return nil, fmt.Errorf("mps: truncated header: %w", io.ErrUnexpectedEOF)
	}
	if mg := le.Uint32(data); mg != magic {
		return nil, fmt.Errorf("mps: bad magic 0x%08x", mg)
	}
	n, center := int32(le.Uint32(data[4:])), int32(le.Uint32(data[8:]))
	truncErr := math.Float64frombits(le.Uint64(data[12:]))
	if n < 1 || n > 1<<20 {
		return nil, fmt.Errorf("mps: implausible qubit count %d", n)
	}
	if center < 0 || center >= n {
		return nil, fmt.Errorf("mps: centre %d out of range for %d qubits", center, n)
	}
	if math.IsNaN(truncErr) || truncErr < 0 {
		return nil, fmt.Errorf("mps: invalid truncation error %v", truncErr)
	}
	body := data[headerSize:]
	rest := body
	prevR, entries := 1, 0
	for i := 0; i < int(n); i++ {
		if len(rest) < 8 {
			return nil, fmt.Errorf("mps: site %d header: %w", i, io.ErrUnexpectedEOF)
		}
		l, rr := int32(le.Uint32(rest)), int32(le.Uint32(rest[4:]))
		rest = rest[8:]
		if l < 1 || rr < 1 || int(l) != prevR {
			return nil, fmt.Errorf("mps: site %d has inconsistent bonds (%d,%d), expected left=%d", i, l, rr, prevR)
		}
		if i == int(n)-1 && rr != 1 {
			return nil, fmt.Errorf("mps: last site right bond %d != 1", rr)
		}
		// rr is the sender's word: the 32·l·rr payload bytes must be present
		// before anything is allocated for them.
		if int64(l)*int64(rr) > int64(len(rest))/32 {
			return nil, fmt.Errorf("mps: site %d payload: %w", i, io.ErrUnexpectedEOF)
		}
		rest = rest[32*int(l)*int(rr):]
		entries += 2 * int(l) * int(rr)
		prevR = int(rr)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("mps: %d trailing bytes", len(rest))
	}

	m := &MPS{N: int(n), cfg: cfg.withDefaults(), center: int(center), TruncationError: truncErr}
	m.Sites = make([]*Tensor, n)
	sites := make([]Tensor, n)
	shapes := make([]int, 3*n)
	slab := make([]complex128, entries)
	rest = body
	for i := range m.Sites {
		l, rr := int(le.Uint32(rest)), int(le.Uint32(rest[4:]))
		rest = rest[8:]
		size := 2 * l * rr
		site := slab[:size:size]
		slab = slab[size:]
		for j := range site {
			re, im := le.Uint64(rest[16*j:]), le.Uint64(rest[16*j+8:])
			site[j] = complex(math.Float64frombits(re), math.Float64frombits(im))
		}
		rest = rest[16*size:]
		shape := shapes[3*i : 3*i+3 : 3*i+3]
		shape[0], shape[1], shape[2] = l, 2, rr
		sites[i] = Tensor{Shape: shape, Data: site}
		m.Sites[i] = &sites[i]
	}
	return m, nil
}

// MarshaledSize returns the exact byte size MarshalBinary will produce,
// used by the distributed runtime to account communication volume without
// materialising the payload.
func (m *MPS) MarshaledSize() int64 {
	sz := int64(headerSize)
	for _, s := range m.Sites {
		sz += 8 + int64(len(s.Data))*16
	}
	return sz
}
