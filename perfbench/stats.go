package main

import (
	"fmt"
	"math"
	"sort"
)

// timing summarises one timed quantity the way the benchmark reports every
// timing: the median, plus the highest percentile that still has at least
// ten samples beyond it, with the sample count stated.
type timing struct {
	N      int
	Median float64
	// TailP is the tail percentile (e.g. 99), or 0 when fewer than eleven
	// samples exist and no percentile has ten samples beyond it.
	TailP float64
	Tail  float64
}

// tailPercentiles are the candidates for a timing's tail, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// beyond is the number of samples strictly above the p-th percentile of n.
func beyond(n int, p float64) int {
	return int(math.Floor(float64(n)*(1-p/100) + 1e-9))
}

// summarize computes a timing from raw samples; it does not modify xs.
func summarize(xs []float64) timing {
	t := timing{N: len(xs)}
	if len(xs) == 0 {
		return t
	}
	s := sorted(xs)
	t.Median = quantile(s, 0.5)
	for _, p := range tailPercentiles {
		if beyond(len(s), p) >= minBeyond {
			t.TailP, t.Tail = p, quantile(s, p/100)
			break
		}
	}
	return t
}

// percentile returns the p-th percentile of xs and whether at least ten
// samples lie beyond it, which is the condition for reporting it.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	return quantile(sorted(xs), p/100), beyond(len(xs), p) >= minBeyond
}

func (t timing) String() string {
	if t.N == 0 {
		return "no samples"
	}
	if t.TailP == 0 {
		return fmt.Sprintf("median %.4g (n=%d; no percentile has %d samples beyond it)", t.Median, t.N, minBeyond)
	}
	return fmt.Sprintf("median %.4g, p%g %.4g (n=%d)", t.Median, t.TailP, t.Tail, t.N)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between the closest ranks of sorted s.
func quantile(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(sorted(xs), 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
