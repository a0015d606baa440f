package core

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeModel: model files are read back from disk on every registry
// reload (POST /admin/reload, SIGHUP), so DecodeModel is a decoder of bytes
// nobody vouches for. On any input it must not panic and must not allocate
// from a length it has not checked; a file it rejects is rejected with
// ErrCorruptModel (or the fingerprint check); a file it accepts is a model
// that re-encodes stably and can serve a prediction. The seeds are a
// calibrated model and a score-only one, each checked to decode back to
// exactly the bytes it was encoded from.
func FuzzDecodeModel(f *testing.F) {
	for _, opts := range []Options{
		{Features: 4, C: 1, CalibFrac: 0.25, Alpha: 0.2},
		{Features: 4, C: 1, Procs: 2},
	} {
		train, _ := preparedData(f, opts.Features, 16)
		fw, err := New(opts)
		if err != nil {
			f.Fatal(err)
		}
		model, _, err := fw.Fit(train.X, train.Y)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := model.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		if again := reencode(f, buf.Bytes()); !bytes.Equal(again, buf.Bytes()) {
			f.Fatalf("CalibFrac=%v: decoding does not invert encoding (%d bytes in, %d out)", opts.CalibFrac, buf.Len(), len(again))
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		fw, m, err := DecodeModel(bytes.NewReader(blob), nil)
		if err != nil {
			if !errors.Is(err, ErrCorruptModel) && !errors.Is(err, ErrContextMismatch) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// decode∘encode is the identity from the first re-encoding on.
		once := reencode(t, blob)
		if twice := reencode(t, once); !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is unstable: %d then %d bytes", len(once), len(twice))
		}
		if m.Calibrated() {
			_, err = fw.PredictSets(m, m.TrainX[:1])
		} else {
			_, err = fw.Predict(m, m.TrainX[:1])
		}
		if err != nil {
			t.Fatalf("accepted model cannot serve: %v", err)
		}
	})
}

// reencode decodes blob and encodes the result again.
func reencode(tb testing.TB, blob []byte) []byte {
	tb.Helper()
	_, m, err := DecodeModel(bytes.NewReader(blob), nil)
	if err != nil {
		tb.Fatalf("decoding: %v", err)
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		tb.Fatalf("re-encoding a decoded model: %v", err)
	}
	return buf.Bytes()
}
