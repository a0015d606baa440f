package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"path/filepath"
	"runtime"
	"testing"
)

func fitSmallModel(t *testing.T, opts Options) (*Framework, *Model, [][]float64) {
	t.Helper()
	train, test := preparedData(t, opts.Features, 16)
	fw, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := fw.Fit(train.X, train.Y)
	if err != nil {
		t.Fatal(err)
	}
	return fw, model, test.X
}

// TestSaveLoadPredictEquivalence is the persistence acceptance check: a model
// saved to disk and loaded by a fresh framework must score new rows exactly
// as the in-process model does — including the retained training states, so
// the loaded model predicts without re-simulating a single training row.
func TestSaveLoadPredictEquivalence(t *testing.T) {
	fw, model, testX := fitSmallModel(t, Options{Features: 8, C: 1, Procs: 2})
	want, err := fw.Predict(model, testX)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "model.bin")
	if err := model.Save(path); err != nil {
		t.Fatal(err)
	}
	fw2, model2, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(model2.States) != len(model.States) {
		t.Fatalf("loaded model has %d states, want %d", len(model2.States), len(model.States))
	}
	if fw2.Options() != fw.Options() {
		t.Fatalf("options did not round-trip: %+v vs %+v", fw2.Options(), fw.Options())
	}

	before := fw2.CacheStats()
	got, err := fw2.Predict(model2, testX)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d scores, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("score %d differs after round-trip: %v vs %v", i, got[i], want[i])
		}
	}
	// Loaded states serve inference directly: only the test rows simulate.
	after := fw2.CacheStats()
	if sims := after.Misses - before.Misses; sims != int64(len(testX)) {
		t.Fatalf("loaded model simulated %d states, want only the %d test rows", sims, len(testX))
	}

	// A loaded model carries its training context and can be re-saved.
	var buf bytes.Buffer
	if err := model2.Encode(&buf); err != nil {
		t.Fatalf("re-encoding a loaded model: %v", err)
	}
}

// TestSaveLoadWithoutStates: a model that dropped its handles (memory opt-out)
// still round-trips; the loaded model re-simulates training rows on demand and
// scores identically.
func TestSaveLoadWithoutStates(t *testing.T) {
	fw, model, testX := fitSmallModel(t, Options{Features: 6, C: 1, CacheBytes: -1})
	if model.States != nil {
		t.Fatal("opt-out model unexpectedly retained states")
	}
	want, err := fw.Predict(model, testX)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := model.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	fw2, model2, err := DecodeModel(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if model2.States != nil {
		t.Fatalf("stateless model decoded with %d states", len(model2.States))
	}
	got, err := fw2.Predict(model2, testX)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("score %d differs: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestLoadModelTuned: runtime knobs may change at load; sim-relevant options
// are locked by the fingerprint.
func TestLoadModelTuned(t *testing.T) {
	_, model, _ := fitSmallModel(t, Options{Features: 6, C: 1, Procs: 1})
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := model.Save(path); err != nil {
		t.Fatal(err)
	}

	fw, _, err := LoadModelTuned(path, func(o *Options) { o.Procs = 3; o.CacheBytes = 1 << 20 })
	if err != nil {
		t.Fatal(err)
	}
	if got := fw.Options(); got.Procs != 3 || got.CacheBytes != 1<<20 {
		t.Fatalf("tuning not applied: %+v", got)
	}

	if _, _, err := LoadModelTuned(path, func(o *Options) { o.Gamma = 0.9 }); err == nil {
		t.Fatal("tuning γ must be rejected by the fingerprint check")
	}
	if _, _, err := LoadModelTuned(path, func(o *Options) { o.Layers = 5 }); err == nil {
		t.Fatal("tuning the ansatz must be rejected by the fingerprint check")
	}

	// The memory-for-compute opt-out holds at load time too: a negative
	// tuned budget must not pin the saved training states.
	fwOff, mOff, err := LoadModelTuned(path, func(o *Options) { o.CacheBytes = -1 })
	if err != nil {
		t.Fatal(err)
	}
	if mOff.States != nil {
		t.Fatalf("CacheBytes<0 load still pinned %d states", len(mOff.States))
	}
	if _, err := fwOff.Predict(mOff, mOff.TrainX[:2]); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeRejectsHandAssembledModel(t *testing.T) {
	_, model, _ := fitSmallModel(t, Options{Features: 6, C: 1})
	bare := &Model{SVM: model.SVM, TrainX: model.TrainX, TrainY: model.TrainY}
	var buf bytes.Buffer
	if err := bare.Encode(&buf); err == nil {
		t.Fatal("model without training context must not encode")
	}
	var nilModel *Model
	if err := nilModel.Encode(&buf); err == nil {
		t.Fatal("nil model must not encode")
	}
}

// TestSaveLoadCalibrated: the conformal predictor round-trips — a loaded
// model serves identical prediction sets and reports Calibrated.
func TestSaveLoadCalibrated(t *testing.T) {
	train, test := preparedData(t, 8, 40)
	fw, err := New(Options{Features: 8, C: 1, CalibFrac: 0.25, Alpha: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := fw.Fit(train.X, train.Y)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fw.PredictSets(model, test.X)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := model.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	fw2, model2, err := DecodeModel(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !model2.Calibrated() {
		t.Fatal("calibrated model decoded as score-only")
	}
	if got := fw2.Options(); got.CalibFrac != 0.25 || got.Alpha != 0.2 {
		t.Fatalf("calibration options did not round-trip: %+v", got)
	}
	if model2.Conformal.Alpha != model.Conformal.Alpha ||
		len(model2.Conformal.Pos) != len(model.Conformal.Pos) ||
		len(model2.Conformal.Neg) != len(model.Conformal.Neg) {
		t.Fatalf("predictor did not round-trip: %+v vs %+v", model2.Conformal, model.Conformal)
	}
	got, err := fw2.PredictSets(model2, test.X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Confidence != want[i].Confidence || got[i].PPos != want[i].PPos ||
			got[i].PNeg != want[i].PNeg || len(got[i].Set) != len(want[i].Set) {
			t.Fatalf("prediction %d differs after round-trip: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestVersion1BackwardCompat: a pre-conformal (version-1) model file still
// loads and scores bit-identically. The fixture is honest: an uncalibrated
// version-2 payload is byte-identical to a version-1 payload (gob omits
// zero-value fields), so patching the header version to 1 reconstructs
// exactly what the old binary wrote.
func TestVersion1BackwardCompat(t *testing.T) {
	fw, model, testX := fitSmallModel(t, Options{Features: 6, C: 1})
	want, err := fw.Predict(model, testX)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte(nil), buf.Bytes()...)
	binary.LittleEndian.PutUint32(v1[4:8], 1)

	fw2, model2, err := DecodeModel(bytes.NewReader(v1), nil)
	if err != nil {
		t.Fatalf("version-1 file rejected: %v", err)
	}
	if model2.Calibrated() {
		t.Fatal("version-1 model decoded as calibrated")
	}
	if model2.Conformal != nil {
		t.Fatal("version-1 model carries a conformal predictor")
	}
	got, err := fw2.Predict(model2, testX)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("score %d differs on version-1 load: %v vs %v", i, got[i], want[i])
		}
	}
	if _, err := fw2.PredictSets(model2, testX); !errors.Is(err, ErrNotCalibrated) {
		t.Fatalf("PredictSets on version-1 model: got %v, want ErrNotCalibrated", err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	_, model, _ := fitSmallModel(t, Options{Features: 6, C: 1})
	var buf bytes.Buffer
	if err := model.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	if _, _, err := DecodeModel(bytes.NewReader(blob[:5]), nil); !errors.Is(err, ErrCorruptModel) {
		t.Fatalf("truncated header: %v, want ErrCorruptModel", err)
	}
	if _, _, err := DecodeModel(bytes.NewReader(blob[:len(blob)/2]), nil); !errors.Is(err, ErrCorruptModel) {
		t.Fatalf("truncated payload: %v, want ErrCorruptModel", err)
	}
	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xff
	if _, _, err := DecodeModel(bytes.NewReader(bad), nil); !errors.Is(err, ErrCorruptModel) {
		t.Fatalf("bad magic: %v, want ErrCorruptModel", err)
	}
	bad = append([]byte(nil), blob...)
	bad[4] = 99 // version
	if _, _, err := DecodeModel(bytes.NewReader(bad), nil); !errors.Is(err, ErrCorruptModel) {
		t.Fatalf("unknown version: %v, want ErrCorruptModel", err)
	}

	// A 13-byte file whose gob length prefix claims a gigabyte must fail on
	// the missing bytes, not allocate what the prefix asks for.
	huge := append(blob[:8:8], 0xfc, 0x3f, 0xff, 0xff, 0xff)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := DecodeModel(bytes.NewReader(huge), nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorruptModel) {
		t.Fatalf("gigabyte length prefix: %v, want ErrCorruptModel", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("a 13-byte file made the decoder allocate %d MiB", grew>>20)
	}
}

// BenchmarkDecodeModel times DecodeModel on a model of the train_wide shape:
// 64 qubits, d = 1 (bond 2), trained on 256 rows, with the retained states
// of the rows it keeps (reported as rows). Its allocs/op are dominated by the
// per-state decode.
func BenchmarkDecodeModel(b *testing.B) {
	train, _ := preparedData(b, 64, 320)
	fw, err := New(Options{Features: 64, Distance: 1, Gamma: 0.1, C: 1})
	if err != nil {
		b.Fatal(err)
	}
	model, _, err := fw.Fit(train.X[:256], train.Y[:256])
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	blob := buf.Bytes()
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeModel(bytes.NewReader(blob), nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(model.TrainX)), "rows")
}
