// Package histogram builds the equal-mass interval structure of the SS/SSE
// splitting methods: the range of each numeric attribute is divided into q
// intervals such that each interval contains approximately the same number
// of points of a pre-drawn random sample. Gini indices are evaluated at the
// interval boundaries, and the SSE method later descends into "alive"
// intervals only.
package histogram

import (
	"fmt"
	"math"
	"sort"
)

// Intervals is the interval structure of one numeric attribute. Cuts holds
// the strictly increasing internal boundary values; the structure represents
// len(Cuts)+1 intervals. Interval i covers:
//
//	i = 0:             (-inf, Cuts[0]]
//	0 < i < len(Cuts): (Cuts[i-1], Cuts[i]]
//	i = len(Cuts):     (Cuts[len(Cuts)-1], +inf)
//
// A record with value v falls into the split's left partition for boundary i
// iff v <= Cuts[i]; this makes boundary i the candidate splitter "attr <=
// Cuts[i]".
//
// The constructors (FromSample, Merge) also build the guide table that
// makes Locate constant-time, for structures of guideMinCuts cuts or more.
// A structure assembled by hand from a Cuts literal has no guide; Locate
// is still exact on it, but scans every cut.
type Intervals struct {
	Cuts []float64
	g    guide
}

// NumIntervals returns the number of intervals (len(Cuts)+1); an empty
// structure has one interval covering the whole line.
func (iv *Intervals) NumIntervals() int { return len(iv.Cuts) + 1 }

// NumBounds returns the number of candidate boundary split points.
func (iv *Intervals) NumBounds() int { return len(iv.Cuts) }

// Locate returns the interval index that value v falls into: the index of
// the first cut >= v (records at a cut belong to the interval left of it),
// exactly what sort.SearchFloat64s(Cuts, v) returns. NaN is mapped to the
// last interval explicitly: every comparison against a cut is false for
// NaN, so a NaN record never satisfies "v <= Cuts[i]" and always falls on
// the right of every candidate splitter — the same unseen-value policy as
// tree.Splitter.GoesLeft (NaN goes right). ±Inf need no special case:
// -Inf lands in the first interval, +Inf in the last.
//
// Values at or below the first cut and above the last one (NaN included)
// are answered by two comparisons. Every other value picks its guide
// bucket and scans forward from the first cut of that bucket; the scan
// stops at the latest at the last cut, which is >= v.
func (iv *Intervals) Locate(v float64) int {
	c := iv.Cuts
	n := len(c)
	if n == 0 || v <= c[0] {
		return 0
	}
	if !(v <= c[n-1]) {
		return n
	}
	i := iv.g.start(v)
	for c[i] < v {
		i++
	}
	return i
}

// Validate checks that cuts are strictly increasing and finite-comparable:
// a NaN cut can never be strictly ordered, so it is rejected even when it is
// the only cut.
func (iv *Intervals) Validate() error {
	for i, c := range iv.Cuts {
		if math.IsNaN(c) {
			return fmt.Errorf("histogram: NaN cut at %d", i)
		}
		if i > 0 && !(iv.Cuts[i-1] < c) {
			return fmt.Errorf("histogram: cuts not strictly increasing at %d: %g >= %g", i, iv.Cuts[i-1], c)
		}
	}
	return nil
}

// FromSample builds at most q equal-mass intervals from sample values. The
// sample is copied and sorted; cut points are sample quantiles. Duplicate
// quantile values are merged, so the result may have fewer than q intervals
// (e.g. for heavily repeated values). A sample smaller than q yields one
// interval per distinct adjacent pair. NaN sample values are dropped before
// the quantiles are taken: sort.Float64s orders NaN ahead of every number,
// so a NaN quantile would both violate the strictly-increasing invariant
// itself and — because c > NaN is false for every c — suppress all later
// cuts. NaN records are instead routed by Locate's explicit last-interval
// rule.
func FromSample(sample []float64, q int) *Intervals {
	if q < 1 {
		q = 1
	}
	s := make([]float64, 0, len(sample))
	for _, v := range sample {
		if !math.IsNaN(v) {
			s = append(s, v)
		}
	}
	if len(s) == 0 || q == 1 {
		return &Intervals{}
	}
	sort.Float64s(s)
	cuts := make([]float64, 0, q-1)
	for k := 1; k < q; k++ {
		idx := k*len(s)/q - 1
		if idx < 0 {
			idx = 0
		}
		// The strict > (not >=) against the previous cut is the dedupe that
		// keeps heavily tied samples from emitting equal, invariant-breaking
		// cuts and the empty intervals they imply.
		c := s[idx]
		if len(cuts) == 0 || c > cuts[len(cuts)-1] {
			cuts = append(cuts, c)
		}
	}
	// Drop a final cut equal to the sample maximum: it would create an empty
	// top interval and a degenerate "everything left" candidate split.
	if len(cuts) > 0 && cuts[len(cuts)-1] >= s[len(s)-1] {
		cuts = cuts[:len(cuts)-1]
	}
	return newIntervals(cuts)
}

// Sub builds a refined interval structure covering only interval idx of iv,
// using the subset of the (sorted or unsorted) sample values that fall into
// that interval, with at most q sub-intervals. Used when a node's interval
// count shrinks with node size.
func (iv *Intervals) Sub(sample []float64, idx, q int) *Intervals {
	var inside []float64
	for _, v := range sample {
		if iv.Locate(v) == idx {
			inside = append(inside, v)
		}
	}
	return FromSample(inside, q)
}
