package histogram

import "math"

// guidePerCut is the guide table's bucket count per cut. With 8, almost
// every bucket holds at most one cut, so Locate's forward scan almost
// always stops at its first comparison and the branch predicts well; at 2
// the scan length varies from value to value, and Locate on the quantile
// cuts of Agrawal f4 records took 16 ns instead of 8 (4 bytes per bucket:
// 32 bytes per cut, next to the cut's own 8).
const guidePerCut = 8

// guideMinCuts is the smallest structure that gets a guide table. Below it
// the forward scan from the first cut is short (at most guideMinCuts-1
// comparisons), while the table's 32 bytes per cut are twice what a
// two-class structure counts per interval: the streaming frontier keeps a
// HistBins-sized structure for every leaf and attribute, and their tables
// raised its peak heap by a tenth.
const guideMinCuts = 32

// guide is the lookup table that makes Locate constant-time: a uniform grid
// of guidePerCut buckets per cut over [lo, hi], the span of the finite
// cuts. first[k] counts the cuts whose own bucket is below k.
//
// The invariant Locate relies on: bucket is non-decreasing in v, because
// subtracting lo, multiplying by a positive scale, truncating and clamping
// are each monotone under IEEE-754 rounding. So every cut before
// first[bucket(v)] has a smaller bucket than v and is therefore < v, and
// the first cut >= v is at or after first[bucket(v)]. A cut in a later
// bucket is > v, so the forward scan ends inside v's bucket or on the first
// cut of the next one. Nothing depends on the grid edges being exact, which
// is why the answer equals a binary search bit for bit. ±Inf cuts (and
// values beyond the span) clamp into the end buckets.
//
// A structure with fewer than guideMinCuts cuts or fewer than two finite
// ones, or whose span gives no finite positive scale (a span beyond the
// float64 range, or a subnormal one), gets no table: Locate then scans
// from the first cut.
type guide struct {
	lo, scale float64
	first     []int32
}

func newIntervals(cuts []float64) *Intervals {
	return &Intervals{Cuts: cuts, g: newGuide(cuts)}
}

func newGuide(cuts []float64) guide {
	a, b := 0, len(cuts)-1
	for a <= b && math.IsInf(cuts[a], 0) {
		a++
	}
	for b > a && math.IsInf(cuts[b], 0) {
		b--
	}
	if len(cuts) < guideMinCuts || b-a < 1 {
		return guide{}
	}
	nb := guidePerCut * len(cuts)
	scale := float64(nb) / (cuts[b] - cuts[a])
	if !(scale > 0) || math.IsInf(scale, 0) {
		return guide{}
	}
	g := guide{lo: cuts[a], scale: scale, first: make([]int32, nb)}
	i := 0
	for k := range g.first {
		for i < len(cuts) && g.bucket(cuts[i]) < k {
			i++
		}
		g.first[k] = int32(i)
	}
	return g
}

// bucket maps v to its grid bucket, clamped to [0, len(first)-1]. v is
// never NaN here: Locate answers NaN before consulting the table, and cuts
// are never NaN.
func (g *guide) bucket(v float64) int {
	f := (v - g.lo) * g.scale
	if !(f > 0) {
		return 0
	}
	last := len(g.first) - 1
	if f < float64(last) {
		return int(f)
	}
	return last
}

// start returns the index Locate's scan begins at.
func (g *guide) start(v float64) int {
	if len(g.first) == 0 {
		return 0
	}
	return int(g.first[g.bucket(v)])
}
