package serve

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// trainCalibrated fits a small conformal-calibrated model for serving tests.
func trainCalibrated(t *testing.T, features int) (*core.Framework, *core.Model, [][]float64) {
	t.Helper()
	full := dataset.GenerateElliptic(dataset.EllipticConfig{
		Features: features, NumIllicit: 40, NumLicit: 40, Seed: 1,
	})
	train, test, err := dataset.PrepareSplit(full, 64, features, 1)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.New(core.Options{Features: features, C: 1, Procs: 2, CalibFrac: 0.25, Alpha: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := fw.Fit(train.X, train.Y)
	if err != nil {
		t.Fatal(err)
	}
	if !model.Calibrated() {
		t.Fatal("fit did not calibrate")
	}
	return fw, model, test.X
}

// TestDoFullCalibrated: a calibrated model's batcher answers DoFullCtx with
// predictions identical to feeding its own scores through the model's
// conformal predictor, and the stats counters track abstentions and the
// confidence histogram.
func TestDoFullCalibrated(t *testing.T) {
	fw, model, testX := trainCalibrated(t, 6)
	s, err := New(fw, model, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	scores, preds, err := s.DoFullCtx(context.Background(), testX)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != len(testX) {
		t.Fatalf("%d predictions for %d rows", len(preds), len(testX))
	}
	var abstained int64
	for i, sc := range scores {
		want := model.Conformal.Predict(sc)
		got := preds[i]
		if got.Confidence != want.Confidence || got.PPos != want.PPos || got.PNeg != want.PNeg ||
			len(got.Set) != len(want.Set) || got.Abstain != want.Abstain {
			t.Fatalf("row %d: served prediction %+v != predictor's %+v", i, got, want)
		}
		if got.Abstain {
			abstained++
		}
	}

	st := s.Stats()
	if !st.Calibrated {
		t.Fatal("Stats.Calibrated = false on a calibrated model")
	}
	if st.Abstentions != abstained {
		t.Fatalf("Stats.Abstentions = %d, want %d", st.Abstentions, abstained)
	}
	if st.ConfidenceBuckets.Count != uint64(len(testX)) {
		t.Fatalf("confidence histogram observed %d rows, want %d", st.ConfidenceBuckets.Count, len(testX))
	}
}

// TestDoFullScoreOnly: a score-only model's batcher returns nil predictions
// and untouched conformal counters — the pre-calibration contract.
func TestDoFullScoreOnly(t *testing.T) {
	s, fw, model, testX := newTestBatcher(t, Config{})
	scores, preds, err := s.DoFullCtx(context.Background(), testX[:4])
	if err != nil {
		t.Fatal(err)
	}
	if preds != nil {
		t.Fatalf("score-only model returned %d predictions", len(preds))
	}
	want, err := fw.Predict(model, testX[:4])
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if scores[i] != want[i] {
			t.Fatalf("score %d: %v != in-process %v", i, scores[i], want[i])
		}
	}
	st := s.Stats()
	if st.Calibrated || st.Abstentions != 0 || st.ConfidenceBuckets.Count != 0 {
		t.Fatalf("score-only stats carry conformal state: %+v", st)
	}
}
