package main

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"

	"repro/internal/obs"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantiles(t *testing.T) {
	ten := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got := median(ten); !near(got, 5.5) {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); !near(got, 2) {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := quantile(ten, 0.99); !near(got, 9.91) {
		t.Errorf("p99 = %v, want 9.91", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(ten)
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread(ten); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 4.0]: three rounds give
	// the extremes, so a three-round suite's spread is its full range.
	q1, q3 = quartiles([]float64{4, 1, 2})
	if !near(q1, 1) || !near(q3, 4) {
		t.Errorf("3-sample quartiles = %v, %v, want 1, 4", q1, q3)
	}
	if median(nil) != 0 || spread(nil) != 0 {
		t.Error("empty sample must summarise to 0")
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5000, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.90}, {100, 0.90}, {99, 0},
	} {
		if p := tailPercentile(tc.n); p != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, p, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []obs.SpanJSON{
		{ID: 1, Name: "root", StartUS: 0, DurUS: 100_000},
		// Two ranks side by side: [10,50) and [30,70) cover [10,70) once.
		{ID: 2, Parent: 1, Name: "rank", StartUS: 10_000, DurUS: 40_000},
		{ID: 3, Parent: 1, Name: "rank", StartUS: 30_000, DurUS: 40_000},
		// A child that outlives its parent counts only up to the parent's end.
		{ID: 4, Parent: 1, Name: "late", StartUS: 90_000, DurUS: 30_000},
		// A grandchild nested wholly inside the first rank.
		{ID: 5, Parent: 2, Name: "row", StartUS: 20_000, DurUS: 10_000},
	}
	got := selfTimes(spans)
	want := map[string]float64{
		"root": 0.100 - 0.060 - 0.010, // minus the ranks' union, minus late's clipped part
		"rank": (0.040 - 0.010) + 0.040,
		"late": 0.030,
		"row":  0.010,
	}
	for name, w := range want {
		if !near(got[name], w) {
			t.Errorf("self[%s] = %v, want %v", name, got[name], w)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c * 1.005} }
	noisy := []float64{60, 100, 140, 80, 120}
	for _, tc := range []struct {
		name       string
		base, cand []float64
		higher     bool
		bound      float64
		want       string
	}{
		{"within bound", steady(100), steady(105), false, 0.10, "same"},
		{"slower", steady(100), steady(115), false, 0.10, "worse"},
		{"faster", steady(100), steady(85), false, 0.10, "better"},
		{"throughput fell", steady(100), steady(85), true, 0.10, "worse"},
		{"throughput rose", steady(100), steady(115), true, 0.10, "better"},
		{"baseline too noisy", noisy, steady(150), false, 0.10, "unresolved"},
		{"candidate too noisy", steady(100), noisy, false, 0.10, "unresolved"},
		{"exact counts", []float64{4.7, 4.7, 4.7}, []float64{4.7, 4.7, 4.7}, false, 0.05, "same"},
		{"missing side", nil, steady(100), false, 0.10, "unresolved"},
	} {
		if got := verdict(tc.base, tc.cand, tc.higher, tc.bound); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestSmokeEmitsDeclaredNames runs every workload, shrunk, through both run
// kinds and holds the names it emits to BENCHMARK.json: a metric the
// benchmark measures but does not declare (or the reverse) would be dropped
// or rejected by whoever reads the file.
func TestSmokeEmitsDeclaredNames(t *testing.T) {
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	legal := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	declared := func(ms []metricSpec) []string {
		var names []string
		for _, m := range ms {
			if !legal.MatchString(m.Name) {
				t.Errorf("illegal metric name %q", m.Name)
			}
			names = append(names, m.Name)
		}
		sort.Strings(names)
		return names
	}
	endToEnd, perLayer := declared(sp.EndToEnd), declared(sp.PerLayer)
	units := map[string]string{}
	for _, m := range append(append([]metricSpec{}, sp.EndToEnd...), sp.PerLayer...) {
		units[m.Name] = m.Unit
	}

	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the suite has %d", len(sp.Workloads), len(workloads))
	}
	for i, declaredW := range sp.Workloads {
		w := workloads[i]
		if declaredW.Name != w.name || !legal.MatchString(w.name) {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q in the suite", i, declaredW.Name, w.name)
		}
		run := runConfig{root: t.TempDir(), dir: t.TempDir(), seed: 1, seconds: 0.4, smoke: true}
		for kind, want := range map[string][]string{"end-to-end": endToEnd, "per-layer": perLayer} {
			var res *result
			if kind == "end-to-end" {
				res, err = runEndToEnd(w.smoke(), run)
			} else {
				res, err = runTraced(w.smoke(), run)
			}
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, kind, err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s %s: %d of %d operations failed: %v", w.name, kind, res.Failed, res.Attempted, res.problems)
			}
			got := sortedKeys(res.Metrics)
			if len(got) != len(want) {
				t.Errorf("%s %s: emitted %d metrics, BENCHMARK.json declares %d", w.name, kind, len(got), len(want))
			}
			for _, name := range got {
				if i := sort.SearchStrings(want, name); i == len(want) || want[i] != name {
					t.Errorf("%s %s: emits undeclared metric %q", w.name, kind, name)
				} else if res.Metrics[name].Unit != units[name] {
					t.Errorf("%s %s: %s has unit %q, declared %q", w.name, kind, name, res.Metrics[name].Unit, units[name])
				}
				if v := res.Metrics[name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s %s: %s = %v", w.name, kind, name, v)
				}
			}
		}
		if fi, err := os.Stat(filepath.Join(run.root, "bench", "out", w.name+".trace.json")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: traced run left no trace file: %v", w.name, err)
		}
	}
}
