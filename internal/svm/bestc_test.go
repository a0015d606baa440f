package svm

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// trainBestCSerial is the C sweep as a plain loop in grid order — the
// reference the concurrent TrainBestC must reproduce.
func trainBestCSerial(trainK [][]float64, trainY []int, evalK [][]float64, evalY []int, grid []float64) (*Model, Metrics, float64, error) {
	var bestModel *Model
	var bestMetrics Metrics
	bestC := math.NaN()
	for _, c := range grid {
		f := fitC(trainK, trainY, evalK, evalY, c, 0)
		if f.err != nil {
			return nil, Metrics{}, 0, f.err
		}
		if bestModel == nil || f.met.AUC > bestMetrics.AUC {
			bestModel, bestMetrics, bestC = f.model, f.met, c
		}
	}
	return bestModel, bestMetrics, bestC, nil
}

// rbfProblem is an overlapping two-class problem under an RBF kernel, so
// different C values give different models and AUCs.
func rbfProblem(seed int64, nTrain, nEval int) (trainK [][]float64, trainY []int, evalK [][]float64, evalY []int) {
	rng := rand.New(rand.NewSource(seed))
	xtr, ytr := separableData(rng, nTrain, -0.6)
	xev, yev := separableData(rng, nEval, -0.6)
	rbf := func(a, b []float64) float64 {
		d0, d1 := a[0]-b[0], a[1]-b[1]
		return math.Exp(-0.8 * (d0*d0 + d1*d1))
	}
	trainK = make([][]float64, nTrain)
	for i := range trainK {
		trainK[i] = make([]float64, nTrain)
		for j := range trainK[i] {
			trainK[i][j] = rbf(xtr[i], xtr[j])
		}
	}
	evalK = make([][]float64, nEval)
	for i := range evalK {
		evalK[i] = make([]float64, nTrain)
		for j := range evalK[i] {
			evalK[i][j] = rbf(xev[i], xtr[j])
		}
	}
	return trainK, ytr, evalK, yev
}

// TestTrainBestCMatchesSerialSweep: training the grid concurrently changes
// nothing the caller sees — the same C, α, b, Iters and metrics as the
// serial sweep, over several seeded problems.
func TestTrainBestCMatchesSerialSweep(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		trainK, trainY, evalK, evalY := rbfProblem(seed, 80, 40)
		wm, wmet, wc, err := trainBestCSerial(trainK, trainY, evalK, evalY, DefaultCGrid)
		if err != nil {
			t.Fatal(err)
		}
		gm, gmet, gc, err := TrainBestC(trainK, trainY, evalK, evalY, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if gc != wc || gmet != wmet || gm.B != wm.B || gm.Iters != wm.Iters || gm.C != wm.C || !slices.Equal(gm.Alpha, wm.Alpha) {
			t.Fatalf("seed %d: concurrent sweep chose C=%v (AUC %v, %d iters), serial C=%v (AUC %v, %d iters)",
				seed, gc, gmet.AUC, gm.Iters, wc, wmet.AUC, wm.Iters)
		}
	}
}

// TestTrainBestCTieKeepsFirstC: when every grid value reaches the same AUC,
// the first value in grid order — the smallest C of the ascending default
// grid — still wins, however the fits were scheduled.
func TestTrainBestCTieKeepsFirstC(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	xtr, ytr := separableData(rng, 40, 3)
	xev, yev := separableData(rng, 20, 3)
	trainK, evalK := linearKernel(xtr), crossLinear(xev, xtr)
	for _, c := range DefaultCGrid {
		if f := fitC(trainK, ytr, evalK, yev, c, 0); f.err != nil || f.met.AUC != 1 {
			t.Fatalf("precondition: C=%v gives AUC %v (err %v), want an exact tie at 1", c, f.met.AUC, f.err)
		}
	}
	for run := 0; run < 8; run++ {
		if _, _, c, err := TrainBestC(trainK, ytr, evalK, yev, nil, 0); err != nil || c != DefaultCGrid[0] {
			t.Fatalf("run %d: tie resolved to C=%v (err %v), want %v", run, c, err, DefaultCGrid[0])
		}
	}
}

// TestTrainBestCFirstErrorInGridOrder: with several failing grid values,
// the error is the one the serial sweep meets first, whichever failed first
// in time.
func TestTrainBestCFirstErrorInGridOrder(t *testing.T) {
	trainK, trainY, evalK, evalY := rbfProblem(5, 30, 10)
	grid := []float64{0.5, -1, 4, -3, 1}
	_, _, _, want := trainBestCSerial(trainK, trainY, evalK, evalY, grid)
	if want == nil {
		t.Fatal("precondition: the serial sweep must fail")
	}
	for run := 0; run < 8; run++ {
		m, _, _, err := TrainBestC(trainK, trainY, evalK, evalY, grid, 0)
		if err == nil || err.Error() != want.Error() || m != nil {
			t.Fatalf("run %d: error %v, want %v", run, err, want)
		}
	}
}
