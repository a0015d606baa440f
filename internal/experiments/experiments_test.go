package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/svm"
)

// TestZeroParamsAreLaptopScale pins what each runner runs at when given
// zero-value Params (`qkernel repro <artifact>` without -paper).
func TestZeroParamsAreLaptopScale(t *testing.T) {
	cases := []struct{ got, want any }{
		{Fig5Params{}.withDefaults(), Fig5Params{Qubits: 32, Layers: 2, Gamma: 1, Distances: []int{1, 2, 3, 4, 5, 6}, Circuits: 8, Seed: 1}},
		{Fig6Params{}.withDefaults(), Fig6Params{Qubits: 24, Layers: 2, Gamma: 1, Distances: []int{2, 4}, Samples: 8, Seed: 1}},
		{Fig7Params{}.withDefaults(), Fig7Params{QubitGrid: []int{15, 40, 65, 90, 115, 140, 165}, Layers: 2, Distance: 4, Gammas: []float64{0.1, 0.5, 1}, Samples: 4, Seed: 1}},
		{Fig8Params{}.withDefaults(), Fig8Params{Qubits: 165, Layers: 2, Distance: 1, Gamma: 0.1, Steps: []Fig8Step{{64, 2}, {128, 4}, {256, 8}, {512, 16}}, Seed: 1}},
		{QMLParams{}.withDefaults(), QMLParams{SampleSizes: []int{100, 300, 800}, FeatureGrid: []int{15, 50, 100, 165}, Layers: 2, Distance: 1, Gamma: 0.1, Seed: 1, CGrid: svm.DefaultCGrid}},
		{TableIIParams{}.withDefaults(), TableIIParams{Features: 50, DataSize: 240, Layers: 2, Distances: []int{1, 2, 4, 6}, Gammas: []float64{0.1, 0.5, 1}, Runs: 3, Seed: 1, CGrid: svm.DefaultCGrid}},
		{TableIIIParams{}.withDefaults(), TableIIIParams{Features: 50, DataSize: 240, Distance: 1, Gamma: 1, Depths: []int{2, 4, 8, 12, 16, 20}, Runs: 3, Seed: 1, CGrid: svm.DefaultCGrid}},
		{NoiseParams{}.withDefaults(), NoiseParams{Features: 16, DataSize: 80, Layers: 2, Distance: 3, Gamma: 0.8, Budgets: []float64{1e-16, 1e-12, 1e-8, 1e-6, 1e-4, 1e-2}, Seed: 1}},
	}
	for _, c := range cases {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%T defaults = %+v, want %+v", c.got, c.got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{3, 1, 2})
	if s.Median != 2 || s.Count != 3 {
		t.Fatalf("median %v count %d", s.Median, s.Count)
	}
	if s.Q1 != 1.5 || s.Q3 != 2.5 {
		t.Fatalf("quartiles %v %v", s.Q1, s.Q3)
	}
	if z := Summarize(nil); z.Count != 0 || z.Median != 0 {
		t.Fatalf("empty summarize %+v", z)
	}
	one := Summarize([]float64{7})
	if one.Median != 7 || one.Q1 != 7 || one.Q3 != 7 {
		t.Fatalf("singleton summarize %+v", one)
	}
}

func TestSeconds(t *testing.T) {
	if Seconds(1500*time.Millisecond) != 1.5 {
		t.Fatal("Seconds conversion wrong")
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tb := &Table{Header: []string{"a", "long-header"}}
	tb.AddRow("1", "x")
	tb.AddRow("22", `has,"comma`)
	r := tb.Render()
	if !strings.Contains(r, "long-header") || !strings.Contains(r, "22") {
		t.Fatalf("render missing content:\n%s", r)
	}
	csv := tb.CSV()
	if !strings.Contains(csv, `"has,""comma"`) {
		t.Fatalf("csv escaping wrong:\n%s", csv)
	}
	if lines := strings.Count(csv, "\n"); lines != 3 {
		t.Fatalf("csv should have 3 lines, got %d", lines)
	}
}

func TestFig5SmallRun(t *testing.T) {
	res, err := RunFig5TableI(Fig5Params{
		Qubits:    10,
		Layers:    1,
		Gamma:     1.0,
		Distances: []int{1, 2},
		Circuits:  3,
		Workers:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Serial) != 2 || len(res.Parallel) != 2 {
		t.Fatalf("point counts %d/%d", len(res.Serial), len(res.Parallel))
	}
	for i := range res.Serial {
		s, p := res.Serial[i], res.Parallel[i]
		if s.SimTime.Median <= 0 || p.SimTime.Median <= 0 {
			t.Fatal("missing timing data")
		}
		// Both backends run the same algorithm — χ must agree (Table I).
		if math.Abs(s.AvgLargestChi-p.AvgLargestChi) > 1e-9 {
			t.Fatalf("χ disagrees at d=%d: %v vs %v", s.Distance, s.AvgLargestChi, p.AvgLargestChi)
		}
		if s.MemPerMPSMiB <= 0 {
			t.Fatal("memory column missing")
		}
	}
	// Bond dimension must grow with interaction distance.
	if res.Serial[1].AvgLargestChi <= res.Serial[0].AvgLargestChi {
		t.Fatalf("χ should grow with d: %v then %v", res.Serial[0].AvgLargestChi, res.Serial[1].AvgLargestChi)
	}
	if got := res.TableI().Render(); !strings.Contains(got, "interaction distance") {
		t.Fatal("Table I render broken")
	}
	if got := res.Fig5Table().Render(); !strings.Contains(got, "sim serial med") {
		t.Fatal("Fig 5 table render broken")
	}
}

func TestFig5RejectsBadDistance(t *testing.T) {
	_, err := RunFig5TableI(Fig5Params{Qubits: 4, Distances: []int{5}, Circuits: 2})
	if err == nil {
		t.Fatal("distance ≥ qubits must error")
	}
}

func TestFig6SmallRun(t *testing.T) {
	res, err := RunFig6(Fig6Params{
		Qubits:    12,
		Layers:    1,
		Gamma:     1.0,
		Distances: []int{2, 3},
		Samples:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series count %d", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.ProgressPct) != 101 {
			t.Fatalf("grid length %d", len(s.ProgressPct))
		}
		if s.PeakMiB <= 0 {
			t.Fatal("no peak memory recorded")
		}
		for g := range s.MeanMiB {
			if s.MinMiB[g] > s.MeanMiB[g]+1e-12 || s.MeanMiB[g] > s.MaxMiB[g]+1e-12 {
				t.Fatalf("envelope violated at %d: %v %v %v", g, s.MinMiB[g], s.MeanMiB[g], s.MaxMiB[g])
			}
		}
		// Memory grows: end-of-run mean must exceed the start.
		if s.MeanMiB[100] <= s.MeanMiB[0] {
			t.Fatal("memory did not grow over the simulation")
		}
	}
	// Larger d ⇒ larger peak (the paper's d=6 vs d=12 gap).
	if res.Series[1].PeakMiB <= res.Series[0].PeakMiB {
		t.Fatalf("peak memory should grow with d: %v then %v", res.Series[0].PeakMiB, res.Series[1].PeakMiB)
	}
	if got := res.Table().Render(); !strings.Contains(got, "progress %") {
		t.Fatal("Fig 6 table render broken")
	}
}

func TestFig7SmallRun(t *testing.T) {
	res, err := RunFig7(Fig7Params{
		QubitGrid: []int{8, 14},
		Layers:    1,
		Distance:  2,
		Gammas:    []float64{0.1, 0.5},
		Samples:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("point count %d", len(res.Points))
	}
	for _, pt := range res.Points {
		if pt.AvgSimSecs <= 0 || pt.AvgMaxChi < 1 {
			t.Fatalf("bad point %+v", pt)
		}
	}
	if got := res.Table().Render(); !strings.Contains(got, "qubits") {
		t.Fatal("Fig 7 table render broken")
	}
	if g := res.SlowestGamma(); g != 0.1 && g != 0.5 {
		t.Fatalf("slowest γ %v not in sweep", g)
	}
}

func TestFig8SmallRun(t *testing.T) {
	res, err := RunFig8(Fig8Params{
		Qubits: 12,
		Steps:  []Fig8Step{{8, 2}, {16, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bars) != 2 {
		t.Fatalf("bar count %d", len(res.Bars))
	}
	for _, b := range res.Bars {
		if b.SimWall <= 0 || b.InnerWall <= 0 || b.TotalWall <= 0 {
			t.Fatalf("missing phase data: %+v", b)
		}
		if b.BytesSent == 0 {
			t.Fatal("round-robin must communicate")
		}
		want := b.DataSize * (b.DataSize + 1) / 2
		if b.InnerProducts != want {
			t.Fatalf("inner products %d, want %d", b.InnerProducts, want)
		}
	}
	if ext := res.Extrapolate(1000, 10); ext <= 0 {
		t.Fatal("extrapolation must be positive")
	}
	if got := res.Table().Render(); !strings.Contains(got, "data size") {
		t.Fatal("Fig 8 table render broken")
	}
}

func TestQMLSmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment sweep (full QML grid with SVM training)")
	}
	res, err := RunFig9Fig10(QMLParams{
		SampleSizes: []int{40},
		FeatureGrid: []int{6, 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("point count %d", len(res.Points))
	}
	for _, pt := range res.Points {
		if pt.TrainAUC < 0 || pt.TrainAUC > 1 || pt.TestAUC < 0 || pt.TestAUC > 1 {
			t.Fatalf("AUC out of range: %+v", pt)
		}
		if pt.BestC == 0 {
			t.Fatal("no regularisation selected")
		}
	}
	if res.TestAUCAt(40, 6) < 0 || res.TestAUCAt(1, 1) != -1 {
		t.Fatal("TestAUCAt lookup broken")
	}
	if got := res.Table().Render(); !strings.Contains(got, "features") {
		t.Fatal("QML table render broken")
	}
}

func TestTableIISmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment sweep (kernel grid with SVM training)")
	}
	res, err := RunTableII(TableIIParams{
		Features:  8,
		DataSize:  40,
		Distances: []int{1, 2},
		Gammas:    []float64{0.5},
		Runs:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1 Gaussian + 2 quantum rows.
	if len(res.Rows) != 3 {
		t.Fatalf("row count %d", len(res.Rows))
	}
	if res.Rows[0].Kernel != "Gaussian" {
		t.Fatal("first row must be the Gaussian baseline")
	}
	for _, row := range res.Rows {
		if row.Metrics.AUC < 0 || row.Metrics.AUC > 1 {
			t.Fatalf("AUC out of range: %+v", row)
		}
	}
	if res.BestRow < 0 || res.BestRow >= len(res.Rows) {
		t.Fatalf("best row index %d", res.BestRow)
	}
	if got := res.Table().Render(); !strings.Contains(got, "Gaussian") {
		t.Fatal("Table II render broken")
	}
}

func TestTableIIISmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment sweep (depth ablation with SVM training)")
	}
	res, err := RunTableIII(TableIIIParams{
		Features: 8,
		DataSize: 40,
		Depths:   []int{1, 8},
		Runs:     1,
		Gamma:    0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("row count %d", len(res.Rows))
	}
	// Kernel concentration: the deep kernel's off-diagonal mean must drop.
	if res.Rows[1].Concentration.Mean >= res.Rows[0].Concentration.Mean {
		t.Fatalf("expected concentration at depth: shallow mean %v, deep mean %v",
			res.Rows[0].Concentration.Mean, res.Rows[1].Concentration.Mean)
	}
	if got := res.Table().Render(); !strings.Contains(got, "depth") {
		t.Fatal("Table III render broken")
	}
}
