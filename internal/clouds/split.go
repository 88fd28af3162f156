package clouds

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"pclouds/internal/gini"
	"pclouds/internal/tree"
)

// Candidate is a candidate splitter with its weighted gini. Candidates are
// compared with a total order (Better) so that sequential and parallel
// builds select identical splitters: smaller gini wins, ties break toward
// the smaller attribute position, then the smaller numeric threshold.
type Candidate struct {
	Valid     bool
	Gini      float64
	Attr      int
	Kind      tree.SplitKind
	Threshold float64
	InLeft    []bool
	// LeftN and LeftCounts record how many records (and of which classes)
	// the split sends left, measured on the statistics that produced the
	// candidate (global counts in the parallel pipeline). They let the
	// partition pass know the children's sizes and class counts up front,
	// enabling the paper's fused partitioning — child statistics are
	// accumulated during the partition pass, avoiding a separate pass.
	LeftN      int64
	LeftCounts []int64
}

// Better reports whether c should be preferred over o under the repo-wide
// deterministic total order.
func (c Candidate) Better(o Candidate) bool {
	if !c.Valid {
		return false
	}
	if !o.Valid {
		return true
	}
	if c.Gini != o.Gini {
		return c.Gini < o.Gini
	}
	if c.Attr != o.Attr {
		return c.Attr < o.Attr
	}
	if c.Kind == tree.NumericSplit && o.Kind == tree.NumericSplit {
		return c.Threshold < o.Threshold
	}
	return false
}

// Splitter converts the candidate into a tree splitter.
func (c Candidate) Splitter() *tree.Splitter {
	if !c.Valid {
		return nil
	}
	return &tree.Splitter{
		Kind:      c.Kind,
		Attr:      c.Attr,
		Threshold: c.Threshold,
		InLeft:    append([]bool(nil), c.InLeft...),
		Gini:      c.Gini,
	}
}

// Encode packs a candidate for transport (MinLoc payloads).
func (c Candidate) Encode() []byte {
	out := make([]byte, 0, 44+len(c.InLeft)+8*len(c.LeftCounts))
	if c.Valid {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	if c.Kind == tree.NumericSplit {
		out = append(out, 0)
	} else {
		out = append(out, 1)
	}
	var b8 [8]byte
	binary.LittleEndian.PutUint32(b8[:4], uint32(c.Attr))
	out = append(out, b8[:4]...)
	binary.LittleEndian.PutUint64(b8[:], math.Float64bits(c.Gini))
	out = append(out, b8[:]...)
	binary.LittleEndian.PutUint64(b8[:], math.Float64bits(c.Threshold))
	out = append(out, b8[:]...)
	binary.LittleEndian.PutUint32(b8[:4], uint32(len(c.InLeft)))
	out = append(out, b8[:4]...)
	for _, in := range c.InLeft {
		if in {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	}
	binary.LittleEndian.PutUint64(b8[:], uint64(c.LeftN))
	out = append(out, b8[:]...)
	binary.LittleEndian.PutUint32(b8[:4], uint32(len(c.LeftCounts)))
	out = append(out, b8[:4]...)
	for _, v := range c.LeftCounts {
		binary.LittleEndian.PutUint64(b8[:], uint64(v))
		out = append(out, b8[:]...)
	}
	return out
}

// DecodeCandidate reverses Candidate.Encode.
func DecodeCandidate(src []byte) (Candidate, error) {
	if len(src) < 26 {
		return Candidate{}, fmt.Errorf("clouds: candidate payload too short (%d bytes)", len(src))
	}
	c := Candidate{Valid: src[0] != 0}
	if src[1] == 0 {
		c.Kind = tree.NumericSplit
	} else {
		c.Kind = tree.CategoricalSplit
	}
	c.Attr = int(binary.LittleEndian.Uint32(src[2:]))
	c.Gini = math.Float64frombits(binary.LittleEndian.Uint64(src[6:]))
	c.Threshold = math.Float64frombits(binary.LittleEndian.Uint64(src[14:]))
	n := int(binary.LittleEndian.Uint32(src[22:]))
	off := 26
	if len(src) < off+n+12 {
		return Candidate{}, fmt.Errorf("clouds: candidate payload length %d too short", len(src))
	}
	if n > 0 {
		c.InLeft = make([]bool, n)
		for i := range c.InLeft {
			c.InLeft[i] = src[off+i] != 0
		}
	}
	off += n
	c.LeftN = int64(binary.LittleEndian.Uint64(src[off:]))
	off += 8
	lc := int(binary.LittleEndian.Uint32(src[off:]))
	off += 4
	if len(src) != off+8*lc {
		return Candidate{}, fmt.Errorf("clouds: candidate payload length %d, want %d", len(src), off+8*lc)
	}
	if lc > 0 {
		c.LeftCounts = make([]int64, lc)
		for i := range c.LeftCounts {
			c.LeftCounts[i] = int64(binary.LittleEndian.Uint64(src[off+8*i:]))
		}
	}
	return c, nil
}

// bestNumericBoundary evaluates one numeric attribute's interval boundaries
// (prefix sums over the frequency rows, gini at each cut) against the node
// totals and returns the attribute's best candidate. Records with value
// exactly equal to a cut are counted in the interval left of it (Locate's
// "records at a cut belong left" rule), so every boundary candidate is the
// splitter "attr <= cut".
func bestNumericBoundary(nst *NumericStats, total []int64, nTotal int64) Candidate {
	best := Candidate{Valid: false, Gini: math.Inf(1)}
	left := make([]int64, len(total))
	right := make([]int64, len(total))
	var nLeft int64
	for b := 0; b < nst.Intervals.NumBounds(); b++ {
		gini.Add(left, nst.Freq[b])
		nLeft += gini.Sum(nst.Freq[b])
		if nLeft == 0 || nLeft == nTotal {
			continue
		}
		for i := range right {
			right[i] = total[i] - left[i]
		}
		cand := Candidate{
			Valid:     true,
			Gini:      gini.SplitIndex(left, right),
			Attr:      nst.Attr,
			Kind:      tree.NumericSplit,
			Threshold: nst.Intervals.Cuts[b],
			LeftN:     nLeft,
		}
		if cand.Better(best) {
			cand.LeftCounts = gini.Clone(left)
			best = cand
		}
	}
	return best
}

// bestCategorical evaluates one categorical attribute's subset split.
func bestCategorical(cm *gini.CountMatrix, attr int, total []int64, nTotal int64) Candidate {
	ss := cm.BestSubsetSplit()
	var nLeft int64
	for v, in := range ss.InLeft {
		if in {
			nLeft += gini.Sum(cm.Counts[v])
		}
	}
	if nLeft == 0 || nLeft == nTotal {
		return Candidate{Valid: false, Gini: math.Inf(1)}
	}
	cand := Candidate{
		Valid:  true,
		Gini:   ss.Gini,
		Attr:   attr,
		Kind:   tree.CategoricalSplit,
		InLeft: ss.InLeft,
		LeftN:  nLeft,
	}
	left := make([]int64, len(total))
	for v, in := range ss.InLeft {
		if in {
			gini.Add(left, cm.Counts[v])
		}
	}
	cand.LeftCounts = left
	return cand
}

// BestBoundarySplit evaluates every candidate the single statistics pass
// yields: the gini at every numeric interval boundary and the best
// categorical subset split per categorical attribute. It returns the best
// candidate under the deterministic order (gini_min of the SS method).
// Because Better is a total order with a unique maximum, folding the
// per-attribute bests selects exactly the candidate the flat scan would.
func BestBoundarySplit(ns *NodeStats) Candidate {
	best := Candidate{Valid: false, Gini: math.Inf(1)}
	nTotal := gini.Sum(ns.Class)
	for _, nst := range ns.Numeric {
		if cand := bestNumericBoundary(nst, ns.Class, nTotal); cand.Better(best) {
			best = cand
		}
	}
	for j, cm := range ns.Cat {
		if cand := bestCategorical(cm, ns.Schema.CategoricalIndices()[j], ns.Class, nTotal); cand.Better(best) {
			best = cand
		}
	}
	return best
}

// AttributeBest evaluates every attribute independently and returns each
// attribute's best boundary candidate, indexed by schema attribute
// position. Attributes with no valid split (constant value, empty side)
// hold an invalid candidate. The vote protocol nominates from this vector;
// folding it with BestOfAttrs over all attributes equals BestBoundarySplit.
func AttributeBest(ns *NodeStats) []Candidate {
	out := make([]Candidate, len(ns.Schema.Attrs))
	for i := range out {
		out[i] = Candidate{Valid: false, Gini: math.Inf(1)}
	}
	nTotal := gini.Sum(ns.Class)
	for _, nst := range ns.Numeric {
		out[nst.Attr] = bestNumericBoundary(nst, ns.Class, nTotal)
	}
	for j, cm := range ns.Cat {
		attr := ns.Schema.CategoricalIndices()[j]
		out[attr] = bestCategorical(cm, attr, ns.Class, nTotal)
	}
	return out
}

// TopKAttrs returns the attribute ids of the (at most) k best valid
// candidates in cands (a vector indexed by attribute id, as AttributeBest
// returns), ordered best-first under the deterministic total order. These
// are one rank's nominations in the vote protocol.
func TopKAttrs(cands []Candidate, k int) []int {
	attrs := make([]int, 0, len(cands))
	for a, c := range cands {
		if c.Valid {
			attrs = append(attrs, a)
		}
	}
	sort.Slice(attrs, func(i, j int) bool { return cands[attrs[i]].Better(cands[attrs[j]]) })
	if len(attrs) > k {
		attrs = attrs[:k]
	}
	return attrs
}

// BestOfAttrs folds the candidates of the given attribute ids under the
// deterministic order.
func BestOfAttrs(cands []Candidate, attrs []int) Candidate {
	best := Candidate{Valid: false, Gini: math.Inf(1)}
	for _, a := range attrs {
		if cands[a].Better(best) {
			best = cands[a]
		}
	}
	return best
}

// AliveSet flags, for each numeric attribute (in schema numeric order), the
// intervals whose gini lower bound beats gini_min and which therefore must
// be searched exactly (the SSE method's alive intervals).
type AliveSet struct {
	// Alive[j][i] marks interval i of numeric attribute j.
	Alive [][]bool
	// Points counts the records falling in alive intervals (for the
	// survival ratio diagnostic).
	Points int64
}

// NumAlive returns the number of alive intervals across attributes.
func (a *AliveSet) NumAlive() int {
	n := 0
	for _, flags := range a.Alive {
		for _, f := range flags {
			if f {
				n++
			}
		}
	}
	return n
}

// DetermineAlive computes the SSE method's alive intervals: interval i of a
// numeric attribute is alive iff its gini lower bound (gini.LowerBound on
// the interval's boundary statistics) is strictly below giniMin and the
// interval holds at least one point. Boundary-only intervals cannot improve
// on the already-evaluated boundary gini, so single-point intervals whose
// value equals the upper cut are still searched (cheap) for simplicity.
func DetermineAlive(ns *NodeStats, giniMin float64) *AliveSet {
	as := &AliveSet{Alive: make([][]bool, len(ns.Numeric))}
	total := ns.Class
	for j, nst := range ns.Numeric {
		flags := make([]bool, nst.Intervals.NumIntervals())
		left := make([]int64, len(total))
		for i := range flags {
			cnt := gini.Sum(nst.Freq[i])
			if cnt > 0 {
				if est := gini.LowerBound(left, nst.Freq[i], total); est < giniMin {
					flags[i] = true
					as.Points += cnt
				}
			}
			gini.Add(left, nst.Freq[i])
		}
		as.Alive[j] = flags
	}
	return as
}

// EvaluateInterval performs the exact search inside one alive interval:
// given the class counts of everything below the interval (leftBefore), the
// node totals, and the interval's points, it evaluates the gini at every
// distinct point value and returns the best candidate for splitting at
// "attr <= v". pts are sorted canonically first; the result is independent
// of input order.
func EvaluateInterval(attr int, leftBefore, total []int64, pts []Point) Candidate {
	best := Candidate{Valid: false, Gini: math.Inf(1)}
	if len(pts) == 0 {
		return best
	}
	SortPoints(pts)
	nTotal := gini.Sum(total)
	left := gini.Clone(leftBefore)
	right := make([]int64, len(total))
	var nLeft int64 = gini.Sum(leftBefore)
	for i := 0; i < len(pts); i++ {
		if math.IsNaN(pts[i].V) {
			break // NaN sorts last and is never a threshold
		}
		left[pts[i].Class]++
		nLeft++
		// Only evaluate at the last occurrence of each distinct value.
		if i+1 < len(pts) && pts[i+1].V == pts[i].V {
			continue
		}
		if nLeft == 0 || nLeft == nTotal {
			continue
		}
		for k := range right {
			right[k] = total[k] - left[k]
		}
		cand := Candidate{
			Valid:     true,
			Gini:      gini.SplitIndex(left, right),
			Attr:      attr,
			Kind:      tree.NumericSplit,
			Threshold: pts[i].V,
			LeftN:     nLeft,
		}
		if cand.Better(best) {
			cand.LeftCounts = gini.Clone(left)
			best = cand
		}
	}
	return best
}

// LeftBefore returns the cumulative class counts of all intervals preceding
// interval idx for one numeric attribute's statistics.
func LeftBefore(nst *NumericStats, idx int, classes int) []int64 {
	left := make([]int64, classes)
	for i := 0; i < idx; i++ {
		gini.Add(left, nst.Freq[i])
	}
	return left
}
