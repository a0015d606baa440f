package main

import (
	"math"
	"sort"

	"repro/internal/obs"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 on an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method the
// acceptance rule is stated in): position p·(n+1) in the 1-based order
// statistics, interpolated between the two neighbours, which are clamped to
// the sample (so tiny samples extrapolate, as Python does).
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := min(max(int(math.Floor(pos)), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// spread is the interquartile distance as a share of the median — the
// steadiness measure every bound is compared against.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// tailPercentile picks the highest of p99, p95, p90 that still has at least
// ten samples beyond it, so a reported tail is never one or two outliers;
// 0 when the sample supports none of them (fewer than 100).
func tailPercentile(n int) float64 {
	for _, pct := range []int{99, 95, 90} {
		if n*(100-pct) >= 10*100 {
			return float64(pct) / 100
		}
	}
	return 0
}

// selfTimes folds a span tree into self time per span name: a span's
// duration minus the part of its interval that its children cover. Children
// may overlap each other (ranks run side by side) and may outlive the parent
// (a span ended late); the covered part is the union of their intervals
// clipped to the parent's.
func selfTimes(spans []obs.SpanJSON) map[string]float64 {
	type iv struct{ lo, hi int64 }
	children := map[int64][]iv{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], iv{sp.StartUS, sp.StartUS + sp.DurUS})
		}
	}
	out := map[string]float64{}
	for _, sp := range spans {
		lo, hi := sp.StartUS, sp.StartUS+sp.DurUS
		kids := children[sp.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
		var covered, edge int64 = 0, lo
		for _, k := range kids {
			a, b := max(k.lo, edge), min(k.hi, hi)
			if b > a {
				covered += b - a
				edge = b
			}
		}
		out[sp.Name] += float64(sp.DurUS-covered) / 1e6
	}
	return out
}

// verdict compares a candidate's samples with a baseline's under one
// metric's direction and relative bound: "unresolved" when either side's own
// spread exceeds the bound (noise that wide cannot show a change that small),
// otherwise "worse"/"better" when the medians differ by more than the bound
// in that direction, else "same".
func verdict(base, cand []float64, higherIsBetter bool, bound float64) string {
	if len(base) == 0 || len(cand) == 0 {
		return "unresolved"
	}
	if spread(base) > bound || spread(cand) > bound {
		return "unresolved"
	}
	mb, mc := median(base), median(cand)
	if mb == 0 {
		if mc == 0 {
			return "same"
		}
		return "unresolved"
	}
	rel := (mc - mb) / math.Abs(mb)
	if higherIsBetter {
		rel = -rel
	}
	switch {
	case rel > bound:
		return "worse"
	case rel < -bound:
		return "better"
	}
	return "same"
}
