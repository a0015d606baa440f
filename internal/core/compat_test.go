package core

import (
	"encoding/json"
	"os"
	"testing"
)

// TestParentModelScores pins model-file compatibility and simulator
// determinism together: testdata/parent_model.bin was written by
// `qkernel train -features 6 -size 40 -d 2` before the reference chain left
// internal/mps, and testdata/parent_model_scores.json holds its decision
// values on eight fixed rows as computed then. The file must still load
// (its kernel fingerprint must still match) and score every row
// bit-identically, which holds only while the gate engine performs exactly
// the same floating-point operations.
func TestParentModelScores(t *testing.T) {
	raw, err := os.ReadFile("testdata/parent_model_scores.json")
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Rows   [][]float64 `json:"rows"`
		Scores []float64   `json:"scores"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	fw, model, err := LoadModel("testdata/parent_model.bin")
	if err != nil {
		t.Fatal(err)
	}
	got, err := fw.Predict(model, want.Rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Scores) {
		t.Fatalf("%d scores for %d rows", len(got), len(want.Scores))
	}
	for i := range got {
		if got[i] != want.Scores[i] {
			t.Errorf("row %d: score %v, saved %v", i, got[i], want.Scores[i])
		}
	}
}
