// Model persistence: a versioned binary codec (fixed header + gob payload)
// for trained models, so a model fitted once — the expensive, distributed
// stage — can be loaded by a separate server process (internal/serve,
// `qkernel serve`) and answer prediction requests online.
//
// The file captures everything inference needs: the framework options (the
// ansatz hyperparameters and runtime knobs), the trained SVM (reusing the
// validated JSON codec of internal/svm), the training rows the model keeps
// (on a score-only model, those with α ≠ 0) and their labels, and —
// when the model retained them — the simulated training states themselves
// (mps.MarshalBinary payloads), so a loaded model predicts communication-free
// without re-simulating a single training row. The kernel's simulation-context
// fingerprint is embedded and re-verified on load: any drift between the
// saving and loading binaries' ansatz/simulator semantics (or an attempt to
// tune sim-relevant options at load time) is rejected instead of silently
// producing wrong kernels.
package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/conformal"
	"repro/internal/dist"
	"repro/internal/mps"
	"repro/internal/svm"
)

// modelMagic identifies serialised model files; modelVersion is bumped on any
// incompatible layout change. Version 2 added the conformal-calibration
// block; gob decodes missing fields to their zero values, so version-1 files
// (score-only by definition) are still read — DecodeModel accepts both.
const (
	modelMagic      uint32 = 0x514b4d31 // "QKM1"
	modelVersion    uint32 = 2
	minModelVersion uint32 = 1
	// maxModelProcs bounds the simulated process count a model file may
	// carry; a loader that wants more sets it through the tune hook.
	maxModelProcs = 1 << 10
)

// ErrCorruptModel is wrapped by every DecodeModel error about the bytes
// themselves: a truncated or foreign header, an undecodable payload, or
// fields that contradict each other.
var ErrCorruptModel = errors.New("core: corrupt model file")

// ErrContextMismatch is wrapped by the DecodeModel error for a well-formed
// file whose simulation-context fingerprint differs from the one the loader
// rebuilds: codec drift between binaries, or tuning that touched a
// sim-relevant option.
var ErrContextMismatch = errors.New("core: simulation context mismatch")

// modelFile is the gob payload of a serialised model. All sim-relevant fields
// are duplicated from Options explicitly (rather than gob-encoding Options
// itself) so adding an Options field can never silently change the on-disk
// layout.
type modelFile struct {
	Features, Layers, Distance int
	Gamma, C                   float64
	Procs                      int
	Strategy                   string
	// Transport is the flag-style wire name (dist.ParseTransport). Like
	// Procs it is a runtime knob, not a sim-relevant option: a loader may
	// re-tune it freely, and cost-model parameters (SimTransport's latency/
	// bandwidth knobs) are deliberately not persisted — set them through the
	// LoadModelTuned hook. Empty in files written before the field existed,
	// which reads as the chan default.
	Transport  string
	CacheBytes int64
	// CalibFrac / Alpha are the conformal-calibration options the model was
	// trained under; zero on score-only models (and in every version-1
	// file, where the fields do not exist and gob-decode to zero).
	CalibFrac, Alpha float64

	// ConformalAlpha / ConformalPos / ConformalNeg persist the calibrated
	// split-conformal predictor: the miscoverage rate and the sorted
	// per-class calibration nonconformity scores. All empty on a score-only
	// model — and since gob omits zero-value fields on encode, an
	// uncalibrated version-2 payload is byte-identical to a version-1 one.
	ConformalAlpha float64
	ConformalPos   []float64
	ConformalNeg   []float64

	// Fingerprint is the kernel simulation-context fingerprint at save time.
	Fingerprint string
	// SVM is the trained solver in its validated JSON form.
	SVM []byte
	// TrainX / TrainY are the kept training rows (see Model; already
	// rescaled into (0,2)) and their ±1 labels.
	TrainX [][]float64
	TrainY []int
	// States holds one mps.MarshalBinary payload per kept row when the
	// model retained its handles; empty when it did not (the loaded model
	// then re-simulates training rows through the state cache on demand).
	States [][]byte
}

// Save writes the model to path atomically (unique temp file in the target
// directory + rename), so a server watching the path can never observe a
// torn write — even with concurrent Save calls racing on the same path.
func (m *Model) Save(path string) error {
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		return err
	}
	dir, base := filepath.Split(path)
	if dir == "" {
		// Keep the temp file on the destination's filesystem: os.CreateTemp
		// with "" means os.TempDir(), and renaming from tmpfs would fail
		// with a cross-device link error.
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("core: saving model: %w", err)
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("core: saving model: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("core: saving model: %w", err)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("core: saving model: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("core: saving model: %w", err)
	}
	return nil
}

// Encode serialises the model: an 8-byte header (magic, version) followed by
// the gob payload. Only models produced by Fit (or a prior LoadModel) carry
// the training context required to round-trip; hand-assembled models are
// rejected.
func (m *Model) Encode(w io.Writer) error {
	if m == nil || m.SVM == nil {
		return fmt.Errorf("core: cannot encode nil model")
	}
	if m.fingerprint == "" {
		return fmt.Errorf("core: model has no training context (not produced by Fit/LoadModel)")
	}
	svmBlob, err := json.Marshal(m.SVM)
	if err != nil {
		return fmt.Errorf("core: encoding svm: %w", err)
	}
	mf := modelFile{
		Features: m.opts.Features, Layers: m.opts.Layers, Distance: m.opts.Distance,
		Gamma: m.opts.Gamma, C: m.opts.C, Procs: m.opts.Procs,
		Strategy:    m.opts.Strategy.String(),
		Transport:   dist.TransportName(m.opts.Transport),
		CacheBytes:  m.opts.CacheBytes,
		CalibFrac:   m.opts.CalibFrac,
		Alpha:       m.opts.Alpha,
		Fingerprint: m.fingerprint,
		SVM:         svmBlob,
		TrainX:      m.TrainX,
		TrainY:      m.TrainY,
	}
	if m.Conformal != nil {
		mf.ConformalAlpha = m.Conformal.Alpha
		mf.ConformalPos = m.Conformal.Pos
		mf.ConformalNeg = m.Conformal.Neg
	}
	if m.States != nil {
		mf.States = make([][]byte, len(m.States))
		for i, st := range m.States {
			blob, err := st.MarshalBinary()
			if err != nil {
				return fmt.Errorf("core: encoding training state %d: %w", i, err)
			}
			mf.States[i] = blob
		}
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], modelMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], modelVersion)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("core: writing model header: %w", err)
	}
	if err := gob.NewEncoder(w).Encode(&mf); err != nil {
		return fmt.Errorf("core: encoding model: %w", err)
	}
	return nil
}

// LoadModel reads a model saved by Save, rebuilding the framework it was
// trained under. See DecodeModel for the integrity guarantees.
func LoadModel(path string) (*Framework, *Model, error) {
	return LoadModelTuned(path, nil)
}

// LoadModelTuned is LoadModel with a hook to adjust runtime options (Procs,
// CacheBytes, C, Strategy, Transport) before the framework is rebuilt — the knobs a
// serving process re-tunes for its own hardware. Changing any option that
// affects the simulation itself (ansatz shape, γ, backend) is detected by the
// fingerprint check and rejected: the stored states and SVM were trained
// under the saved context and would be silently wrong under another.
func LoadModelTuned(path string, tune func(*Options)) (*Framework, *Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("core: loading model: %w", err)
	}
	defer f.Close()
	return DecodeModel(f, tune)
}

// DecodeModel reconstructs a framework/model pair from an Encode stream,
// verifying the header, the simulation-context fingerprint, and the
// structural consistency of the payload (rows ↔ labels ↔ SVM coefficients ↔
// states). tune may be nil.
func DecodeModel(r io.Reader, tune func(*Options)) (*Framework, *Model, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("%w: truncated header: %w", ErrCorruptModel, err)
	}
	if mg := binary.LittleEndian.Uint32(hdr[0:4]); mg != modelMagic {
		return nil, nil, fmt.Errorf("%w: not a model file (magic 0x%08x)", ErrCorruptModel, mg)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v < minModelVersion || v > modelVersion {
		return nil, nil, fmt.Errorf("%w: unsupported version %d (this binary reads %d..%d)", ErrCorruptModel, v, minModelVersion, modelVersion)
	}
	var mf modelFile
	if err := gob.NewDecoder(r).Decode(&mf); err != nil {
		return nil, nil, fmt.Errorf("%w: %w", ErrCorruptModel, err)
	}
	strategy, err := dist.ParseStrategy(mf.Strategy)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %w", ErrCorruptModel, err)
	}
	// The chan wire is Options' nil default (dist.TransportName(nil) ==
	// "chan"), so it decodes back to nil and default options round-trip
	// exactly; "" is a file written before the field existed.
	var transport dist.Transport
	if mf.Transport != "" && mf.Transport != dist.TransportName(nil) {
		if transport, err = dist.ParseTransport(mf.Transport); err != nil {
			return nil, nil, fmt.Errorf("%w: %w", ErrCorruptModel, err)
		}
	}
	// Every computation allocates per simulated process, so the saved count
	// is a length like any other. Zero reads as the default of one.
	if mf.Procs < 0 || mf.Procs > maxModelProcs {
		return nil, nil, fmt.Errorf("%w: %d simulated processes (want 0..%d)", ErrCorruptModel, mf.Procs, maxModelProcs)
	}
	opts := Options{
		Features: mf.Features, Layers: mf.Layers, Distance: mf.Distance,
		Gamma: mf.Gamma, C: mf.C, Procs: mf.Procs, Strategy: strategy, Transport: transport,
		CacheBytes: mf.CacheBytes, CalibFrac: mf.CalibFrac, Alpha: mf.Alpha,
	}
	if tune != nil {
		tune(&opts)
	}
	fw, err := New(opts)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: rebuilding framework: %w", ErrCorruptModel, err)
	}
	if fp := fw.q.Fingerprint(); fp != mf.Fingerprint {
		return nil, nil, fmt.Errorf("%w: model saved under %q, loader built %q (codec drift, or tuning touched a sim-relevant option)", ErrContextMismatch, mf.Fingerprint, fp)
	}

	if len(mf.TrainX) == 0 || len(mf.TrainX) != len(mf.TrainY) {
		return nil, nil, fmt.Errorf("%w: %d training rows for %d labels", ErrCorruptModel, len(mf.TrainX), len(mf.TrainY))
	}
	for i, row := range mf.TrainX {
		if len(row) != fw.opts.Features {
			return nil, nil, fmt.Errorf("%w: training row %d has %d features, model has %d", ErrCorruptModel, i, len(row), fw.opts.Features)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, nil, fmt.Errorf("%w: training row %d feature %d is %v", ErrCorruptModel, i, j, v)
			}
		}
		if y := mf.TrainY[i]; y != 1 && y != -1 {
			return nil, nil, fmt.Errorf("%w: training label %d is %d, not ±1", ErrCorruptModel, i, y)
		}
	}
	sv := new(svm.Model)
	if err := json.Unmarshal(mf.SVM, sv); err != nil {
		return nil, nil, fmt.Errorf("%w: %w", ErrCorruptModel, err)
	}
	if len(sv.Alpha) != len(mf.TrainY) {
		return nil, nil, fmt.Errorf("%w: svm has %d coefficients for %d training rows", ErrCorruptModel, len(sv.Alpha), len(mf.TrainY))
	}
	// Rehydrate the conformal predictor when the file carries one; a
	// score-only file (every version-1 file, or a version-2 save with
	// CalibFrac = 0) leaves it nil and the model serves scores exactly as
	// before calibration existed.
	var pred *conformal.Predictor
	if len(mf.ConformalPos) > 0 || len(mf.ConformalNeg) > 0 {
		pred = &conformal.Predictor{Alpha: mf.ConformalAlpha, Pos: mf.ConformalPos, Neg: mf.ConformalNeg}
		if err := pred.Validate(); err != nil {
			return nil, nil, fmt.Errorf("%w: %w", ErrCorruptModel, err)
		}
	}
	// Rehydrate the training states only within the loader's memory policy:
	// a negative (tuned) budget is the documented memory-for-compute
	// opt-out, and retainStates also drops a set whose payload alone would
	// exceed a positive budget — the same rules Fit applies, to the same
	// rows. A score-only file holding α = 0 rows (saved before Fit pruned)
	// loads without them, and their states are never decoded; a calibrated
	// file loads every row, as Fit keeps them.
	blobs := mf.States
	if fw.cacheBudget < 0 {
		blobs = nil
	}
	if len(blobs) > 0 && len(blobs) != len(mf.TrainX) {
		return nil, nil, fmt.Errorf("%w: %d states for %d training rows", ErrCorruptModel, len(blobs), len(mf.TrainX))
	}
	trainX, trainY := mf.TrainX, mf.TrainY
	if pred == nil {
		trainX, trainY, blobs = pruneRows(sv, trainX, trainY, blobs)
	}
	var states []*mps.MPS
	if len(blobs) > 0 {
		states = make([]*mps.MPS, len(blobs))
		for i, blob := range blobs {
			st, err := mps.UnmarshalBinary(blob, fw.q.Config)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: training state %d: %w", ErrCorruptModel, i, err)
			}
			if st.N != fw.opts.Features {
				return nil, nil, fmt.Errorf("%w: training state %d has %d qubits, model has %d", ErrCorruptModel, i, st.N, fw.opts.Features)
			}
			states[i] = st
		}
		states = fw.retainStates(states)
	}
	m := &Model{
		SVM: sv, TrainX: trainX, TrainY: trainY, States: states,
		Conformal: pred,
		opts:      fw.opts, fingerprint: mf.Fingerprint,
	}
	return fw, m, nil
}
