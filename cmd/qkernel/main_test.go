package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestNoSubcommandPrintsUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"-size", "40"}, {"bogus"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Fatalf("run(%q) = %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), "train | serve | repro") {
			t.Fatalf("run(%q) usage does not name the subcommands:\n%s", args, stderr.String())
		}
	}
}

func TestReproUnknownArtifact(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := runRepro([]string{"fig11"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	for _, name := range []string{"fig5", "fig6", "fig7", "fig8", "fig9-10", "table2", "table3", "truncnoise"} {
		if !strings.Contains(stderr.String(), name) {
			t.Fatalf("error does not name %s:\n%s", name, stderr.String())
		}
	}
	if stdout.Len() != 0 {
		t.Fatalf("unknown artifact printed results:\n%s", stdout.String())
	}
}

func TestReproTruncnoiseRejectsPaper(t *testing.T) {
	for _, args := range [][]string{{"truncnoise", "-paper"}, {"-paper", "truncnoise"}} {
		var stdout, stderr bytes.Buffer
		if code := runRepro(args, &stdout, &stderr); code != 2 {
			t.Fatalf("runRepro(%q) = %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), "no paper scale") {
			t.Fatalf("runRepro(%q) stderr:\n%s", args, stderr.String())
		}
	}
}

func TestReproUsageErrors(t *testing.T) {
	for _, args := range [][]string{nil, {"fig5", "fig6"}, {"fig5", "-nope"}} {
		var stdout, stderr bytes.Buffer
		if code := runRepro(args, &stdout, &stderr); code != 2 {
			t.Fatalf("runRepro(%q) = %d, want 2", args, code)
		}
	}
}

// TestReproPresets pins the Params each artifact runs at. Laptop runs pass
// the zero value, which each runner's defaults turn into the laptop scale
// (pinned by experiments' TestZeroParamsAreLaptopScale); -paper runs pass
// the paper's scale.
func TestReproPresets(t *testing.T) {
	var fig8 []experiments.Fig8Step
	for _, s := range [][2]int{{400, 2}, {800, 4}, {1600, 8}, {3200, 16}, {6400, 32}} {
		fig8 = append(fig8, experiments.Fig8Step{DataSize: s[0], Procs: s[1]})
	}
	cases := []struct {
		name          string
		laptop, paper any
	}{
		{"fig5", experiments.Fig5Params{}, experiments.Fig5Params{Qubits: 100, Distances: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}}},
		{"fig6", experiments.Fig6Params{}, experiments.Fig6Params{Qubits: 100, Distances: []int{6, 12}}},
		{"fig7", experiments.Fig7Params{}, experiments.Fig7Params{Distance: 6, Samples: 8}},
		{"fig8", experiments.Fig8Params{}, experiments.Fig8Params{Steps: fig8}},
		{"fig9-10", experiments.QMLParams{}, experiments.QMLParams{SampleSizes: []int{300, 1500, 6400}}},
		{"table2", experiments.TableIIParams{}, experiments.TableIIParams{DataSize: 400, Runs: 6}},
		{"table3", experiments.TableIIIParams{}, experiments.TableIIIParams{DataSize: 400, Runs: 6}},
		{"truncnoise", experiments.NoiseParams{}, nil},
	}
	for _, c := range cases {
		laptop, run, err := reproPlan(c.name, false)
		if err != nil || run == nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(laptop, c.laptop) {
			t.Errorf("%s laptop Params = %+v, want %+v", c.name, laptop, c.laptop)
		}
		paper, _, err := reproPlan(c.name, true)
		if c.paper == nil {
			if err == nil {
				t.Errorf("%s -paper accepted", c.name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s -paper: %v", c.name, err)
		}
		if !reflect.DeepEqual(paper, c.paper) {
			t.Errorf("%s paper Params = %+v, want %+v", c.name, paper, c.paper)
		}
	}
}
