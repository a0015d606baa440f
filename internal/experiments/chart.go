package experiments

import (
	"fmt"
	"math"
	"strings"
)

// Chart renders simple ASCII line/bar charts so `qkernel repro` can show
// the paper's figures directly in the terminal (the paper's artifacts pop up
// pyplot windows; a terminal chart is the dependency-free equivalent).
type Chart struct {
	Title  string
	Width  int // plot columns (default 60)
	Height int // plot rows (default 16)
	LogY   bool
	series []chartSeries
}

type chartSeries struct {
	name   string
	xs, ys []float64
	marker byte
}

// markers cycles through per-series glyphs.
var markers = []byte{'*', 'o', '+', 'x', '#', '@'}

// AddSeries appends a named series; xs and ys must have equal length.
func (c *Chart) AddSeries(name string, xs, ys []float64) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("experiments: series %q has %d xs and %d ys", name, len(xs), len(ys))
	}
	if len(xs) == 0 {
		return fmt.Errorf("experiments: series %q is empty", name)
	}
	c.series = append(c.series, chartSeries{
		name: name, xs: xs, ys: ys,
		marker: markers[len(c.series)%len(markers)],
	})
	return nil
}

// Render draws the chart.
func (c *Chart) Render() string {
	if len(c.series) == 0 {
		return "(empty chart)\n"
	}
	w, h := c.Width, c.Height
	if w <= 0 {
		w = 60
	}
	if h <= 0 {
		h = 16
	}
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	tr := func(y float64) float64 {
		if c.LogY {
			if y <= 0 {
				return math.Inf(-1)
			}
			return math.Log10(y)
		}
		return y
	}
	for _, s := range c.series {
		for i := range s.xs {
			x, y := s.xs[i], tr(s.ys[i])
			if math.IsInf(y, -1) || math.IsNaN(y) || math.IsNaN(x) {
				continue
			}
			xmin, xmax = math.Min(xmin, x), math.Max(xmax, x)
			ymin, ymax = math.Min(ymin, y), math.Max(ymax, y)
		}
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	for _, s := range c.series {
		for i := range s.xs {
			y := tr(s.ys[i])
			if math.IsInf(y, -1) || math.IsNaN(y) {
				continue
			}
			col := int(math.Round((s.xs[i] - xmin) / (xmax - xmin) * float64(w-1)))
			row := h - 1 - int(math.Round((y-ymin)/(ymax-ymin)*float64(h-1)))
			if col >= 0 && col < w && row >= 0 && row < h {
				grid[row][col] = s.marker
			}
		}
	}
	var b strings.Builder
	if c.Title != "" {
		b.WriteString(c.Title)
		b.WriteByte('\n')
	}
	yLabel := func(v float64) string {
		if c.LogY {
			return fmt.Sprintf("%9.3g", math.Pow(10, v))
		}
		return fmt.Sprintf("%9.3g", v)
	}
	for r := 0; r < h; r++ {
		switch r {
		case 0:
			b.WriteString(yLabel(ymax))
		case h - 1:
			b.WriteString(yLabel(ymin))
		default:
			b.WriteString(strings.Repeat(" ", 9))
		}
		b.WriteString(" |")
		b.Write(grid[r])
		b.WriteByte('\n')
	}
	b.WriteString(strings.Repeat(" ", 10) + "+" + strings.Repeat("-", w) + "\n")
	b.WriteString(fmt.Sprintf("%10s %-12.4g%*s\n", "", xmin, w-11, fmt.Sprintf("%.4g", xmax)))
	for _, s := range c.series {
		b.WriteString(fmt.Sprintf("%10s %c = %s\n", "", s.marker, s.name))
	}
	return b.String()
}
