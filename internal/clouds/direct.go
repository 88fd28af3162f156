package clouds

import (
	"math"
	"sync"

	"pclouds/internal/gini"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// The direct method solves small nodes exactly in memory: the gini at
// every distinct value of every numeric attribute, and the best subset of
// every categorical one. IsSmall is monotone in the node size, so every
// descendant of a small node is small too. A builder therefore sorts each
// numeric attribute once, at the first small node of a subtree, and keeps
// that order below it through stable partitions: SLIQ's and SPRINT's
// attribute lists, scoped to one in-memory subtree. No node below the
// first small one sorts or reads a sample (DESIGN.md §19).

// DirectSplit finds the exact best split of an in-memory record set: it
// sorts the points along every numeric attribute and computes the gini
// index at every distinct value (the paper's direct method, used for small
// nodes), and evaluates the best categorical subset per categorical
// attribute. The returned candidate obeys the deterministic total order.
func DirectSplit(schema *record.Schema, recs []record.Record) Candidate {
	if len(recs) == 0 {
		return Candidate{Valid: false, Gini: math.Inf(1)}
	}
	ps := presort(schema, recs)
	defer ps.release()
	return ps.bestSplit(0, len(recs), countClasses(schema, recs))
}

// countClasses returns the class-frequency vector of recs.
func countClasses(schema *record.Schema, recs []record.Record) []int64 {
	counts := make([]int64, schema.NumClasses)
	for i := range recs {
		counts[recs[i].Class]++
	}
	return counts
}

// presorted holds one small subtree's attribute lists. lists[j] has one
// Point per record for numeric attribute j, its Idx the record's position
// in recs, sorted once by SortPoints; ids lists the same positions in
// record order. Every node of the subtree owns the same range [lo, hi) of
// every list and of ids, and a stable partition of each range hands the
// children their sub-ranges still sorted. Instances are pooled, so the
// buffers grow to the largest task a process solves and are reused by
// every later one: (numeric+1)·16 B plus 5 B per record.
type presorted struct {
	schema *record.Schema
	recs   []record.Record
	lists  [][]Point
	ids    []int32
	// goLeft[i] is where the node being partitioned routes record i.
	goLeft []bool
	// spill holds the right-hand side of one range while it is
	// partitioned; ids spill through its Idx fields.
	spill []Point
	// flat backs every list.
	flat        []Point
	left, right []int64
	// cms holds one count matrix per categorical attribute, reset at
	// every node.
	cms []gini.CountMatrix
}

var presortPool = sync.Pool{New: func() any { return new(presorted) }}

// resize returns s with length n, reallocating only when its capacity is
// short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// presort builds the attribute lists of recs from the pool: every numeric
// attribute is sorted once, through SortPoints' radix path from 128
// records on. Call release when the subtree is built.
func presort(schema *record.Schema, recs []record.Record) *presorted {
	ps := presortPool.Get().(*presorted)
	ps.schema, ps.recs = schema, recs
	n, m := len(recs), schema.NumNumeric()
	ps.flat = resize(ps.flat, n*m)
	ps.lists = resize(ps.lists, m)
	for j := range ps.lists {
		l := ps.flat[j*n : (j+1)*n : (j+1)*n]
		for i := range recs {
			l[i] = Point{V: recs[i].Num[j], Class: recs[i].Class, Idx: int32(i)}
		}
		SortPoints(l)
		ps.lists[j] = l
	}
	ps.ids = resize(ps.ids, n)
	for i := range ps.ids {
		ps.ids[i] = int32(i)
	}
	ps.goLeft = resize(ps.goLeft, n)
	ps.spill = resize(ps.spill, n)
	ps.left = resize(ps.left, schema.NumClasses)
	ps.right = resize(ps.right, schema.NumClasses)
	ps.cms = resize(ps.cms, schema.NumCategorical())
	return ps
}

// release returns ps to the pool, dropping its references to the task.
func (ps *presorted) release() {
	ps.schema, ps.recs = nil, nil
	presortPool.Put(ps)
}

// bestSplit is the direct method at the node owning [lo, hi), whose class
// counts are total: every numeric list is scanned in its presorted order,
// and every categorical attribute's subsets are searched over counts
// gathered in one pass of ids.
func (ps *presorted) bestSplit(lo, hi int, total []int64) Candidate {
	best := Candidate{Valid: false, Gini: math.Inf(1)}
	nTotal := int64(hi - lo)
	for j, attr := range ps.schema.NumericIndices() {
		clear(ps.left)
		scanSorted(attr, ps.lists[j][lo:hi], ps.left, ps.right, total, 0, nTotal, &best, nil)
	}
	cat := ps.schema.CategoricalIndices()
	if len(cat) == 0 {
		return best
	}
	for k, attr := range cat {
		ps.cms[k].Reset(ps.schema.Attrs[attr].Cardinality, ps.schema.NumClasses)
	}
	for _, id := range ps.ids[lo:hi] {
		r := &ps.recs[id]
		for k := range ps.cms {
			ps.cms[k].Add(r.Cat[k], r.Class)
		}
	}
	for k, attr := range cat {
		if cand := subsetCandidate(&ps.cms[k], attr, nTotal); cand.Better(best) {
			best = cand
		}
	}
	return best
}

// scanSorted is the package's one exact-scan kernel, behind DirectSplit,
// EvaluateInterval and the presorted builder. pts are sorted points of
// numeric attribute attr; on entry left holds the class counts of the
// nLeft records below them, and it is advanced through pts. The gini is
// evaluated at the last point of every tie run (-0 and +0 are one run; the
// threshold is the run's last value), and the scan stops at the first NaN,
// which is never a threshold. A candidate that beats *best replaces it,
// with its left class counts copied into leftCounts when that is non-nil.
// The gini is compared before a Candidate is built, so only improvements
// and exact ties pay for one.
func scanSorted(attr int, pts []Point, left, right, total []int64, nLeft, nTotal int64, best *Candidate, leftCounts []int64) {
	for i := range pts {
		v := pts[i].V
		if v != v {
			break
		}
		left[pts[i].Class]++
		nLeft++
		if i+1 < len(pts) && pts[i+1].V == v {
			continue
		}
		if nLeft == nTotal {
			continue
		}
		for k := range right {
			right[k] = total[k] - left[k]
		}
		g := gini.SplitIndexN(left, right, nLeft, nTotal-nLeft)
		if best.Valid && g > best.Gini {
			continue
		}
		cand := Candidate{Valid: true, Gini: g, Attr: attr, Kind: tree.NumericSplit, Threshold: v, LeftN: nLeft}
		if !cand.Better(*best) {
			continue
		}
		if leftCounts != nil {
			copy(leftCounts, left)
			cand.LeftCounts = leftCounts
		}
		*best = cand
	}
}

// route sends every record of [lo, hi) through sp into goLeft, adds the
// left-going records' classes to leftCounts, and returns how many go left.
func (ps *presorted) route(lo, hi int, sp *tree.Splitter, leftCounts []int64) int {
	nl := 0
	for _, id := range ps.ids[lo:hi] {
		r := &ps.recs[id]
		left := sp.GoesLeft(ps.schema, *r)
		ps.goLeft[id] = left
		if left {
			nl++
			leftCounts[r.Class]++
		}
	}
	return nl
}

// partition stably moves the records goLeft routes left to the front of
// [lo, hi) of every list and of ids, so [lo, mid) and [mid, hi) become the
// children's ranges, each list still sorted. A list range is written only
// for the children that keep splitting: with one side kept, its points are
// compacted in place without the spill buffer, and a side that stops is
// left unordered, since no node reads it again. Callers skip the call
// when both children stop.
func (ps *presorted) partition(lo, mid, hi int, keepLeft, keepRight bool) {
	for _, l := range ps.lists {
		partitionPoints(l[lo:hi], mid-lo, ps.goLeft, ps.spill, keepLeft, keepRight)
	}
	ids := ps.ids[lo:hi]
	nl, nr := 0, 0
	for _, id := range ids {
		if ps.goLeft[id] {
			ids[nl] = id
			nl++
		} else {
			ps.spill[nr].Idx = id
			nr++
		}
	}
	for i := range nr {
		ids[nl+i] = ps.spill[i].Idx
	}
}

// partitionPoints is partition for one list's range pts, of which the
// first nl go left.
func partitionPoints(pts []Point, nl int, goLeft []bool, spill []Point, keepLeft, keepRight bool) {
	switch {
	case keepLeft && keepRight:
		l, r := 0, 0
		for _, p := range pts {
			if goLeft[p.Idx] {
				pts[l] = p
				l++
			} else {
				spill[r] = p
				r++
			}
		}
		copy(pts[nl:], spill[:r])
	case keepLeft:
		l := 0
		for _, p := range pts {
			if goLeft[p.Idx] {
				pts[l] = p
				l++
				if l == nl {
					return
				}
			}
		}
	case keepRight:
		w := len(pts)
		for i := len(pts) - 1; i >= 0; i-- {
			if p := pts[i]; !goLeft[p.Idx] {
				w--
				pts[w] = p
				if w == nl {
					return
				}
			}
		}
	}
}

// buildSorted builds the subtree of the small node owning [lo, hi) of ps,
// whose class counts are classCounts: the direct method over its ranges,
// then routing, and a partition of the ranges its children will read. The
// record-read accounting is the per-node direct method's: one pass to
// evaluate, one to partition.
func (b *builder) buildSorted(ps *presorted, lo, hi int, classCounts []int64, depth int) *tree.Node {
	b.noteDepth(depth)
	n := int64(hi - lo)
	if b.shouldStop(classCounts, n, depth) {
		return b.leaf(classCounts, n)
	}
	b.stats.SmallNodes++
	b.stats.RecordReads += n
	cand := ps.bestSplit(lo, hi, classCounts)
	if !cand.Valid {
		return b.leaf(classCounts, n)
	}
	sp := cand.Splitter()
	c := len(classCounts)
	childCounts := make([]int64, 2*c)
	leftCounts, rightCounts := childCounts[:c:c], childCounts[c:]
	nl := ps.route(lo, hi, sp, leftCounts)
	b.stats.RecordReads += n
	if nl == 0 || nl == hi-lo {
		return b.leaf(classCounts, n)
	}
	for k := range rightCounts {
		rightCounts[k] = classCounts[k] - leftCounts[k]
	}
	mid := lo + nl
	keepLeft := !b.shouldStop(leftCounts, int64(nl), depth+1)
	keepRight := !b.shouldStop(rightCounts, int64(hi-mid), depth+1)
	if keepLeft || keepRight {
		ps.partition(lo, mid, hi, keepLeft, keepRight)
	}
	nd := &tree.Node{Splitter: sp, ClassCounts: classCounts, N: n}
	nd.Class = nd.Majority()
	b.stats.Nodes++
	nd.Left = b.buildSorted(ps, lo, mid, leftCounts, depth+1)
	nd.Right = b.buildSorted(ps, mid, hi, rightCounts, depth+1)
	return nd
}
