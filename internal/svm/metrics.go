package svm

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrSingleClass is returned by AUC (and therefore Evaluate) when the labels
// contain only one class — ranking quality is undefined with nothing to rank
// against, and a typed error beats a silent NaN: callers can errors.Is it and
// fall back to the threshold metrics.
var ErrSingleClass = errors.New("svm: AUC undefined with a single class")

// Metrics bundles the classification scores the paper reports in Tables II,
// III and Figs. 9–10: accuracy, recall, precision and Area Under the ROC
// Curve. The positive class is +1 (illicit).
type Metrics struct {
	Accuracy  float64
	Precision float64
	Recall    float64
	AUC       float64
}

// Evaluate computes all metrics from decision scores and true labels.
// Predicted labels are sign(score) with the deterministic boundary
// convention pred(0) = +1: a score of exactly zero — the decision boundary,
// and the score every model emits on degenerate input — always predicts the
// positive (illicit) class, so repeated evaluations of tied scores are
// reproducible. Returns ErrSingleClass when y contains only one class (AUC
// would be undefined).
func Evaluate(scores []float64, y []int) (Metrics, error) {
	if len(scores) != len(y) {
		return Metrics{}, fmt.Errorf("svm: %d scores for %d labels", len(scores), len(y))
	}
	if len(y) == 0 {
		return Metrics{}, fmt.Errorf("svm: empty evaluation set")
	}
	var tp, tn, fp, fn int
	for i, s := range scores {
		pred := -1
		if s >= 0 {
			pred = +1
		}
		switch {
		case pred == +1 && y[i] == +1:
			tp++
		case pred == +1 && y[i] == -1:
			fp++
		case pred == -1 && y[i] == -1:
			tn++
		default:
			fn++
		}
	}
	m := Metrics{
		Accuracy: float64(tp+tn) / float64(len(y)),
	}
	if tp+fp > 0 {
		m.Precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		m.Recall = float64(tp) / float64(tp+fn)
	}
	auc, err := AUC(scores, y)
	if err != nil {
		return Metrics{}, err
	}
	m.AUC = auc
	return m, nil
}

// AUC computes the Area Under the ROC Curve via the Mann–Whitney rank
// statistic with midrank tie handling: the probability that a random
// positive scores above a random negative, where a positive tied with a
// negative counts exactly half. Midranks make the result deterministic
// under any input permutation (no order-dependent tie breaking): all-equal
// scores give exactly 0.5, and the value always agrees with the trapezoid
// integral of ROCCurve (which walks tied scores as a single threshold
// step). Returns ErrSingleClass when y contains only one class — a typed
// error rather than NaN.
func AUC(scores []float64, y []int) (float64, error) {
	if len(scores) != len(y) {
		return 0, fmt.Errorf("svm: %d scores for %d labels", len(scores), len(y))
	}
	nPos, nNeg := 0, 0
	for _, v := range y {
		switch v {
		case +1:
			nPos++
		case -1:
			nNeg++
		default:
			return 0, fmt.Errorf("svm: labels must be ±1, got %d", v)
		}
	}
	if nPos == 0 || nNeg == 0 {
		return 0, fmt.Errorf("%w (%d pos, %d neg)", ErrSingleClass, nPos, nNeg)
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	// Midranks.
	ranks := make([]float64, len(scores))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && scores[idx[j+1]] == scores[idx[i]] {
			j++
		}
		mid := (float64(i+1) + float64(j+1)) / 2
		for k := i; k <= j; k++ {
			ranks[idx[k]] = mid
		}
		i = j + 1
	}
	var rPos float64
	for i, v := range y {
		if v == +1 {
			rPos += ranks[i]
		}
	}
	u := rPos - float64(nPos)*float64(nPos+1)/2
	return u / (float64(nPos) * float64(nNeg)), nil
}

// ROCPoint is one (false positive rate, true positive rate) pair.
type ROCPoint struct {
	FPR, TPR float64
}

// ROCCurve returns the ROC curve points sweeping the decision threshold from
// +∞ to −∞, starting at (0,0) and ending at (1,1).
func ROCCurve(scores []float64, y []int) ([]ROCPoint, error) {
	nPos, nNeg := 0, 0
	for _, v := range y {
		if v == +1 {
			nPos++
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 || len(scores) != len(y) {
		return nil, fmt.Errorf("svm: ROC needs both classes and matching lengths")
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	pts := []ROCPoint{{0, 0}}
	tp, fp := 0, 0
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && scores[idx[j+1]] == scores[idx[i]] {
			j++
		}
		for k := i; k <= j; k++ {
			if y[idx[k]] == +1 {
				tp++
			} else {
				fp++
			}
		}
		pts = append(pts, ROCPoint{FPR: float64(fp) / float64(nNeg), TPR: float64(tp) / float64(nPos)})
		i = j + 1
	}
	return pts, nil
}

// AUCFromROC integrates a ROC curve with the trapezoid rule — a second AUC
// implementation used to cross-check the rank-based one in tests.
func AUCFromROC(pts []ROCPoint) float64 {
	var area float64
	for i := 1; i < len(pts); i++ {
		dx := pts[i].FPR - pts[i-1].FPR
		area += dx * (pts[i].TPR + pts[i-1].TPR) / 2
	}
	return area
}

// TrainBestC sweeps the C grid, trains one model per value, and returns the
// model and metrics with the highest AUC on the evaluation kernel/labels —
// the paper's per-regularisation model selection. evalK is the eval×train
// kernel.
//
// The grid values are independent fits, so they train concurrently on up to
// GOMAXPROCS goroutines, the largest C claimed first (SMO runs longest at
// large C, so the longest fits start earliest). Selection then walks the grid
// in order exactly as a serial sweep would: the first value with the highest
// AUC wins ties, and the first failing value in grid order decides the
// error.
func TrainBestC(trainK [][]float64, trainY []int, evalK [][]float64, evalY []int, grid []float64, tol float64) (*Model, Metrics, float64, error) {
	if len(grid) == 0 {
		grid = DefaultCGrid
	}
	fits := make([]gridFit, len(grid))
	order := make([]int, len(grid))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return grid[order[a]] > grid[order[b]] })
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := min(runtime.GOMAXPROCS(0), len(grid)); g > 0; g-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(order) {
					return
				}
				i := order[k]
				fits[i] = fitC(trainK, trainY, evalK, evalY, grid[i], tol)
			}
		}()
	}
	wg.Wait()

	var bestModel *Model
	var bestMetrics Metrics
	bestC := math.NaN()
	for i, f := range fits {
		if f.err != nil {
			return nil, Metrics{}, 0, f.err
		}
		if bestModel == nil || f.met.AUC > bestMetrics.AUC {
			bestModel, bestMetrics, bestC = f.model, f.met, grid[i]
		}
	}
	return bestModel, bestMetrics, bestC, nil
}

// gridFit is one grid value's trained model and its evaluation.
type gridFit struct {
	model *Model
	met   Metrics
	err   error
}

// fitC trains at one C and evaluates the model on the eval kernel.
func fitC(trainK [][]float64, trainY []int, evalK [][]float64, evalY []int, c, tol float64) gridFit {
	model, err := Train(trainK, trainY, c, tol)
	if err != nil {
		return gridFit{err: fmt.Errorf("svm: C=%v: %w", c, err)}
	}
	scores, err := model.DecisionBatch(evalK)
	if err != nil {
		return gridFit{err: err}
	}
	met, err := Evaluate(scores, evalY)
	if err != nil {
		return gridFit{err: err}
	}
	return gridFit{model: model, met: met}
}
