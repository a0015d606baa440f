package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/dist"
	"repro/internal/mps"
	"repro/internal/svm"
)

// unprunedFit repeats Fit's Gram and SVM solve for a fixed-C framework and
// returns the SVM over every row it was trained on, before pruning, with
// those rows and their states: the oracle pruning is checked against.
func unprunedFit(t *testing.T, fw *Framework, X [][]float64, y []int) (*svm.Model, [][]float64, []int, []*mps.MPS) {
	t.Helper()
	res, err := dist.ComputeGram(fw.q, X, fw.distOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	gram, states := res.Gram, res.States
	if fw.opts.CalibFrac > 0 {
		proper, _ := calibSplit(len(y), fw.opts.CalibFrac)
		gram, X, y, states = submatrix(gram, proper, proper), pick(X, proper), pick(y, proper), pick(states, proper)
	}
	full, err := svm.Train(gram, y, fw.opts.C, 0)
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for _, a := range full.Alpha {
		if a == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		t.Fatalf("no α = 0 among %d rows: the fixture no longer exercises pruning", len(full.Alpha))
	}
	t.Logf("%d of %d rows have α = 0", zeros, len(full.Alpha))
	return full, X, y, states
}

// fullDecisions scores testX with the unpruned SVM on the cross rows against
// every training state.
func fullDecisions(t *testing.T, fw *Framework, full *svm.Model, testX [][]float64, states []*mps.MPS) []float64 {
	t.Helper()
	k, err := fw.q.CrossStates(testX, states, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.DecisionBatch(k)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func assertScores(t *testing.T, what string, fw *Framework, m *Model, testX [][]float64, want []float64) {
	t.Helper()
	got, err := fw.Predict(m, testX)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d scores %v, the unpruned decision is %v", what, i, got[i], want[i])
		}
	}
}

func roundTrip(t *testing.T, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPrunedModelDecidesAsUnpruned: Fit keeps only the α ≠ 0 rows of a
// score-only model and every proper row of a calibrated one, aligned across
// SVM.Alpha, SVM.Y, TrainX, TrainY and States, and its scores are == to the
// unpruned SVM's decision on the cross row against every training state — in
// process, after Save → Load, and when loading a file that still holds the
// α = 0 rows (written with pruning bypassed, and the same bytes read as
// version 1).
func TestPrunedModelDecidesAsUnpruned(t *testing.T) {
	for _, c := range []struct {
		name string
		opts Options
		rows int
	}{
		{"score_only", Options{Features: 6, Gamma: 0.5, C: 4, Procs: 2}, 40},
		{"calibrated", Options{Features: 6, Gamma: 0.5, C: 4, CalibFrac: 0.25, Alpha: 0.2}, 60},
	} {
		t.Run(c.name, func(t *testing.T) {
			train, test := preparedData(t, c.opts.Features, c.rows)
			fw, err := New(c.opts)
			if err != nil {
				t.Fatal(err)
			}
			model, _, err := fw.Fit(train.X, train.Y)
			if err != nil {
				t.Fatal(err)
			}
			full, fullX, fullY, fullStates := unprunedFit(t, fw, train.X, train.Y)
			want := fullDecisions(t, fw, full, test.X, fullStates)

			var keep []int
			for i, a := range full.Alpha {
				if a != 0 || model.Calibrated() {
					keep = append(keep, i)
				}
			}
			if len(model.SVM.Alpha) != len(keep) || len(model.SVM.Y) != len(keep) ||
				len(model.TrainX) != len(keep) || len(model.TrainY) != len(keep) || len(model.States) != len(keep) {
				t.Fatalf("model keeps %d α, %d labels, %d rows, %d row labels, %d states; want %d each",
					len(model.SVM.Alpha), len(model.SVM.Y), len(model.TrainX), len(model.TrainY), len(model.States), len(keep))
			}
			for a, i := range keep {
				if model.SVM.Alpha[a] != full.Alpha[i] || model.SVM.Y[a] != fullY[i] || model.TrainY[a] != fullY[i] ||
					&model.TrainX[a][0] != &fullX[i][0] {
					t.Fatalf("kept row %d is not training row %d", a, i)
				}
			}
			assertScores(t, "in process", fw, model, test.X, want)

			fw2, loaded, err := DecodeModel(bytes.NewReader(roundTrip(t, model)), nil)
			if err != nil {
				t.Fatal(err)
			}
			assertScores(t, "after Save → Load", fw2, loaded, test.X, want)

			unpruned := &Model{
				SVM: full, TrainX: fullX, TrainY: fullY, States: fullStates, Conformal: model.Conformal,
				opts: model.opts, fingerprint: model.fingerprint,
			}
			blob := roundTrip(t, unpruned)
			versions := []uint32{modelVersion}
			if !model.Calibrated() {
				versions = append(versions, 1)
			}
			for _, v := range versions {
				binary.LittleEndian.PutUint32(blob[4:8], v)
				fw3, m3, err := DecodeModel(bytes.NewReader(blob), nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(m3.TrainX) != len(keep) || len(m3.States) != len(keep) {
					t.Fatalf("version %d file with %d rows loads %d rows and %d states, want %d",
						v, len(fullX), len(m3.TrainX), len(m3.States), len(keep))
				}
				assertScores(t, "unpruned file", fw3, m3, test.X, want)
			}
		})
	}
}

// TestHandBuiltAlphaPruning: pruning keeps exactly the rows with α ≠ 0 —
// including an α far below SupportVectors' 1e-9, which still moves the
// decision — and a model whose α are all 0 keeps row 0, since the codecs
// reject an empty row set, and decides B. Scores after Save → Load are == to
// the hand-built model's own.
func TestHandBuiltAlphaPruning(t *testing.T) {
	fw, model, testX := fitSmallModel(t, Options{Features: 6, C: 1})
	const b = 0.375
	rows := len(model.TrainX)
	for _, c := range []struct {
		name string
		row  int // the one row given a nonzero α, or -1
		kept int // the row the loaded model keeps
	}{
		{"all_zero", -1, 0},
		{"tiny_alpha", 3, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			alpha := make([]float64, rows)
			if c.row >= 0 {
				alpha[c.row] = 1e-12
			}
			hand := &Model{
				SVM:    &svm.Model{Alpha: alpha, Y: model.TrainY, B: b, C: 1},
				TrainX: model.TrainX, TrainY: model.TrainY, States: model.States,
				opts: model.opts, fingerprint: model.fingerprint,
			}
			want, err := fw.Predict(hand, testX)
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range want {
				if (w == b) != (c.row < 0) {
					t.Fatalf("row %d: the hand-built model decides %v with B = %v", i, w, b)
				}
			}
			fw2, loaded, err := DecodeModel(bytes.NewReader(roundTrip(t, hand)), nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(loaded.SVM.Alpha) != 1 || len(loaded.TrainX) != 1 || len(loaded.States) != 1 ||
				loaded.TrainX[0][0] != model.TrainX[c.kept][0] {
				t.Fatalf("loads %d α, %d rows, %d states; want training row %d alone",
					len(loaded.SVM.Alpha), len(loaded.TrainX), len(loaded.States), c.kept)
			}
			assertScores(t, "after Save → Load", fw2, loaded, testX, want)
		})
	}
}
