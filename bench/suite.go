package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// spec mirrors BENCHMARK.json, the one place names, units, directions and
// bounds are declared.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*spec, error) {
	blob, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// identity is what must match before two result documents may be compared:
// timings from different machine classes differ for reasons no change made.
type identity struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func machineIdentity() identity {
	id := identity{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				id.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return id
}

// series is one end-to-end metric on one workload over the suite's rounds.
type series struct {
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Spread  float64   `json:"spread"` // (q3−q1)/median
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
}

func summarize(unit string, xs []float64) series {
	q1, q3 := quartiles(xs)
	return series{
		Unit: unit, Samples: xs, Median: median(xs), Q1: q1, Q3: q3, Spread: spread(xs),
		Min: quantile(xs, 0), Max: quantile(xs, 1), N: len(xs),
	}
}

type workloadDoc struct {
	Why       string            `json:"why"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]series `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
}

// document is the suite's machine-readable result: what -compare reads.
type document struct {
	Identity  identity                `json:"identity"`
	Commit    string                  `json:"commit"`
	Seed      int64                   `json:"seed"`
	Rounds    int                     `json:"rounds"`
	Seconds   float64                 `json:"seconds"`
	Loop      string                  `json:"loop"`
	Claim     *string                 `json:"claim"` // this benchmark claims no gain
	Workloads map[string]*workloadDoc `json:"workloads"`
}

// runChild re-executes this binary for one run, so every run starts from a
// fresh heap and peak_rss_mb is the workload's own.
func runChild(run runConfig, name string, seed int64, trace int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"--root", run.root, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(run.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
	}
	if run.smoke {
		args = append(args, "--smoke")
	}
	if run.writeRef && trace == 0 && seed == run.seed {
		args = append(args, "--write-ref")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d trace %d printed no result (%v): %w", name, seed, trace, runErr, err)
	}
	return &res, nil
}

// runSuite runs rounds untraced rounds — every workload once per round, in
// the fixed order, so slow machine drift hits all workloads alike — then one
// traced round for the per-layer numbers, and prints every metric by name.
func runSuite(sp *spec, run runConfig, rounds int, out string) (int, error) {
	doc := document{
		Identity: machineIdentity(), Commit: gitCommit(run.root), Seed: run.seed, Rounds: rounds,
		Seconds: run.seconds, Loop: fmt.Sprintf("closed clients=%d", runtime.GOMAXPROCS(0)),
		Workloads: map[string]*workloadDoc{},
	}
	samples := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, w := range sp.Workloads {
		doc.Workloads[w.Name] = &workloadDoc{Why: w.Why, EndToEnd: map[string]series{}}
		samples[w.Name] = map[string][]float64{}
	}
	for r := 0; r <= rounds; r++ {
		trace, seed := 0, run.seed+int64(r)
		if r == rounds {
			trace, seed = 1, run.seed
		}
		for _, w := range sp.Workloads {
			fmt.Fprintf(os.Stderr, "bench: round %d/%d %s seed=%d trace=%d\n", r+1, rounds+1, w.Name, seed, trace)
			res, err := runChild(run, w.Name, seed, trace)
			if err != nil {
				return 0, err
			}
			wd := doc.Workloads[w.Name]
			wd.Attempted += res.Attempted
			wd.Failed += res.Failed
			if trace == 1 {
				wd.PerLayer = res.Metrics
				continue
			}
			for name, m := range res.Metrics {
				samples[w.Name][name] = append(samples[w.Name][name], m.Value)
				units[name] = m.Unit
			}
		}
	}

	failed := 0
	for _, w := range sp.Workloads {
		wd := doc.Workloads[w.Name]
		failed += wd.Failed
		fmt.Printf("\n%s — %s\n", w.Name, w.Why)
		fmt.Printf("  %-34s %12s %12s %12s %8s %3s  %s\n", "end-to-end", "median", "min", "max", "spread", "n", "unit")
		for _, m := range sp.EndToEnd {
			s := summarize(units[m.Name], samples[w.Name][m.Name])
			wd.EndToEnd[m.Name] = s
			fmt.Printf("  %-34s %12.6g %12.6g %12.6g %7.1f%% %3d  %s\n", m.Name, s.Median, s.Min, s.Max, 100*s.Spread, s.N, s.Unit)
		}
		fmt.Printf("  %-34s %d/%d\n", "failed_share", wd.Failed, wd.Attempted)
		fmt.Printf("  %-34s %12s\n", "per-layer (traced run)", "value")
		for _, m := range sp.PerLayer {
			fmt.Printf("  %-34s %12.6g %s\n", m.Name, wd.PerLayer[m.Name].Value, wd.PerLayer[m.Name].Unit)
		}
	}
	blob, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return 0, err
	}
	if out != "" {
		if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
			return 0, err
		}
	}
	fmt.Printf("\n%s\n", blob)
	if failed > 0 {
		return 1, nil
	}
	return 0, nil
}

// gitCommit names the measured commit when the checkout is a git repository.
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// compareDocs prints one verdict per (workload, end-to-end metric) for
// candidate b against baseline a, under BENCHMARK.json's directions and
// bounds. It refuses documents from different machine classes or run shapes.
func compareDocs(sp *spec, pathA, pathB string) (int, error) {
	var a, b document
	for _, in := range []struct {
		path string
		doc  *document
	}{{pathA, &a}, {pathB, &b}} {
		blob, err := os.ReadFile(in.path)
		if err != nil {
			return 0, err
		}
		if err := json.Unmarshal(blob, in.doc); err != nil {
			return 0, fmt.Errorf("%s: %w", in.path, err)
		}
	}
	if a.Identity != b.Identity {
		return 0, fmt.Errorf("refusing to compare across machines: %+v vs %+v", a.Identity, b.Identity)
	}
	if a.Seed != b.Seed || a.Rounds != b.Rounds || a.Seconds != b.Seconds {
		return 0, fmt.Errorf("refusing to compare different run shapes: seed/rounds/seconds %d/%d/%g vs %d/%d/%g",
			a.Seed, a.Rounds, a.Seconds, b.Seed, b.Rounds, b.Seconds)
	}
	fmt.Printf("baseline %s (%s)\ncandidate %s (%s)\n", pathA, a.Commit, pathB, b.Commit)
	fmt.Printf("%-12s %-14s %12s %12s %8s %7s  %s\n", "workload", "metric", "baseline", "candidate", "change", "bound", "verdict")
	worse := 0
	for _, w := range sp.Workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			return 0, fmt.Errorf("workload %s missing from a document", w.Name)
		}
		for _, m := range sp.EndToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			v := verdict(sa.Samples, sb.Samples, m.Better == "higher", m.Bound)
			if v == "worse" {
				worse++
			}
			change := 0.0
			if sa.Median != 0 {
				change = 100 * (sb.Median - sa.Median) / sa.Median
			}
			fmt.Printf("%-12s %-14s %12.6g %12.6g %+7.1f%% %6.0f%%  %s\n", w.Name, m.Name, sa.Median, sb.Median, change, 100*m.Bound, v)
		}
		if wb.Failed > wa.Failed {
			worse++
			fmt.Printf("%-12s %-14s %12d %12d %8s %7s  worse\n", w.Name, "failed", wa.Failed, wb.Failed, "", "any")
		}
	}
	if worse > 0 {
		return 1, nil
	}
	return 0, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
