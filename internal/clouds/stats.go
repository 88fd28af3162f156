// Package clouds implements the CLOUDS decision tree classifier (AlSabti,
// Ranka, Singh — KDD 1998), the sequential substrate of pCLOUDS. It
// provides the SS method (sample the splitting points), the SSE method
// (sampling with estimation: alive intervals via a gini lower bound), the
// direct method (full sort, exact gini at every point), and both in-core
// and out-of-core sequential drivers. The statistics and split-evaluation
// machinery here is shared with package pclouds, whose parallel phases
// combine the same per-rank aggregates with all-reduce operations.
package clouds

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"pclouds/internal/gini"
	"pclouds/internal/histogram"
	"pclouds/internal/record"
)

// NumericStats holds the interval structure and per-interval class
// frequencies of one numeric attribute at one node.
type NumericStats struct {
	// Attr is the attribute position in the schema.
	Attr int
	// Intervals is the equal-mass interval structure from the node sample.
	Intervals *histogram.Intervals
	// Freq[i] is the class-frequency vector of interval i; len(Freq) ==
	// Intervals.NumIntervals().
	Freq [][]int64
}

// NodeStats aggregates everything one pass over a node's records produces:
// per-interval class frequencies for every numeric attribute, count
// matrices for every categorical attribute, and the node's class counts.
type NodeStats struct {
	Schema  *record.Schema
	Numeric []*NumericStats
	Cat     []*gini.CountMatrix
	Class   []int64
	N       int64
}

// NewNodeStats allocates zeroed statistics. intervals must hold one
// interval structure per numeric attribute, in schema numeric order.
func NewNodeStats(schema *record.Schema, intervals []*histogram.Intervals) *NodeStats {
	if len(intervals) != schema.NumNumeric() {
		panic(fmt.Sprintf("clouds: %d interval structures for %d numeric attributes", len(intervals), schema.NumNumeric()))
	}
	ns := &NodeStats{
		Schema: schema,
		Class:  make([]int64, schema.NumClasses),
	}
	for j, attr := range schema.NumericIndices() {
		iv := intervals[j]
		freq := make([][]int64, iv.NumIntervals())
		flat := make([]int64, iv.NumIntervals()*schema.NumClasses)
		for i := range freq {
			freq[i], flat = flat[:schema.NumClasses], flat[schema.NumClasses:]
		}
		ns.Numeric = append(ns.Numeric, &NumericStats{Attr: attr, Intervals: iv, Freq: freq})
	}
	for _, attr := range schema.CategoricalIndices() {
		ns.Cat = append(ns.Cat, gini.NewCountMatrix(schema.Attrs[attr].Cardinality, schema.NumClasses))
	}
	return ns
}

// Add accumulates one record into the statistics.
func (ns *NodeStats) Add(rec record.Record) {
	ns.N++
	ns.Class[rec.Class]++
	for j, nst := range ns.Numeric {
		nst.Freq[nst.Intervals.Locate(rec.Num[j])][rec.Class]++
	}
	for j, cm := range ns.Cat {
		cm.Add(rec.Cat[j], rec.Class)
	}
}

// Merge adds another NodeStats of identical shape into ns.
func (ns *NodeStats) Merge(o *NodeStats) error {
	if len(ns.Numeric) != len(o.Numeric) || len(ns.Cat) != len(o.Cat) || len(ns.Class) != len(o.Class) {
		return fmt.Errorf("clouds: merging mismatched NodeStats")
	}
	ns.N += o.N
	gini.Add(ns.Class, o.Class)
	for j := range ns.Numeric {
		if len(ns.Numeric[j].Freq) != len(o.Numeric[j].Freq) {
			return fmt.Errorf("clouds: merging mismatched interval counts on attribute %d", ns.Numeric[j].Attr)
		}
		for i := range ns.Numeric[j].Freq {
			gini.Add(ns.Numeric[j].Freq[i], o.Numeric[j].Freq[i])
		}
	}
	for j := range ns.Cat {
		ns.Cat[j].AddMatrix(o.Cat[j])
	}
	return nil
}

// FlatLen returns the length of the Flatten vector.
func (ns *NodeStats) FlatLen() int {
	n := 1 + len(ns.Class)
	for _, nst := range ns.Numeric {
		n += len(nst.Freq) * len(ns.Class)
	}
	for _, cm := range ns.Cat {
		n += cm.Cardinality() * cm.Classes()
	}
	return n
}

// Flatten packs all counters into one int64 vector (for all-reduce). Layout:
// N, class counts, per-numeric-attribute interval frequencies (row-major),
// per-categorical-attribute count matrices (row-major).
func (ns *NodeStats) Flatten() []int64 {
	out := make([]int64, 0, ns.FlatLen())
	out = append(out, ns.N)
	out = append(out, ns.Class...)
	for _, nst := range ns.Numeric {
		for _, f := range nst.Freq {
			out = append(out, f...)
		}
	}
	for _, cm := range ns.Cat {
		out = append(out, cm.Flatten()...)
	}
	return out
}

// Unflatten replaces ns's counters with the contents of a Flatten vector of
// matching shape.
func (ns *NodeStats) Unflatten(flat []int64) error {
	if len(flat) != ns.FlatLen() {
		return fmt.Errorf("clouds: unflatten length %d, want %d", len(flat), ns.FlatLen())
	}
	ns.N = flat[0]
	flat = flat[1:]
	copy(ns.Class, flat[:len(ns.Class)])
	flat = flat[len(ns.Class):]
	c := len(ns.Class)
	for _, nst := range ns.Numeric {
		for i := range nst.Freq {
			copy(nst.Freq[i], flat[:c])
			flat = flat[c:]
		}
	}
	for _, cm := range ns.Cat {
		for v := 0; v < cm.Cardinality(); v++ {
			copy(cm.Counts[v], flat[:c])
			flat = flat[c:]
		}
	}
	return nil
}

// attrCounters resolves a schema attribute id to its counters: the interval
// frequency rows of a numeric attribute, or the count matrix of a
// categorical one. Both are nil for an unknown id.
func (ns *NodeStats) attrCounters(attr int) ([][]int64, *gini.CountMatrix) {
	for _, nst := range ns.Numeric {
		if nst.Attr == attr {
			return nst.Freq, nil
		}
	}
	for j, a := range ns.Schema.CategoricalIndices() {
		if a == attr {
			return nil, ns.Cat[j]
		}
	}
	return nil, nil
}

// AttrFlatLen returns the length of a FlattenAttrs vector for the given
// schema attribute ids.
func (ns *NodeStats) AttrFlatLen(attrs []int) int {
	n := 0
	for _, a := range attrs {
		if rows, cm := ns.attrCounters(a); rows != nil {
			n += len(rows) * len(ns.Class)
		} else if cm != nil {
			n += cm.Cardinality() * cm.Classes()
		}
	}
	return n
}

// FlattenAttrs packs only the given attributes' counters into one int64
// vector — the vote protocol's elected-set exchange. attrs must be sorted
// ascending and duplicate-free so every rank produces the same layout;
// interval/cardinality shapes are assumed identical across ranks, as
// elsewhere in the replication scheme.
func (ns *NodeStats) FlattenAttrs(attrs []int) ([]int64, error) {
	out := make([]int64, 0, ns.AttrFlatLen(attrs))
	for _, a := range attrs {
		rows, cm := ns.attrCounters(a)
		switch {
		case rows != nil:
			for _, f := range rows {
				out = append(out, f...)
			}
		case cm != nil:
			out = append(out, cm.Flatten()...)
		default:
			return nil, fmt.Errorf("clouds: flatten of unknown attribute %d", a)
		}
	}
	return out, nil
}

// UnflattenAttrs scatters a FlattenAttrs vector back into ns, leaving the
// counters of attributes outside attrs untouched.
func (ns *NodeStats) UnflattenAttrs(attrs []int, flat []int64) error {
	if len(flat) != ns.AttrFlatLen(attrs) {
		return fmt.Errorf("clouds: unflatten-attrs length %d, want %d", len(flat), ns.AttrFlatLen(attrs))
	}
	c := len(ns.Class)
	for _, a := range attrs {
		rows, cm := ns.attrCounters(a)
		switch {
		case rows != nil:
			for i := range rows {
				copy(rows[i], flat[:c])
				flat = flat[c:]
			}
		case cm != nil:
			for v := 0; v < cm.Cardinality(); v++ {
				copy(cm.Counts[v], flat[:c])
				flat = flat[c:]
			}
		default:
			return fmt.Errorf("clouds: unflatten of unknown attribute %d", a)
		}
	}
	return nil
}

// BuildIntervals constructs the per-numeric-attribute interval structures
// for a node from its sample records, with q intervals per attribute. The
// same sample and q on every rank yields identical structures everywhere,
// which pCLOUDS's replication method relies on.
func BuildIntervals(schema *record.Schema, sample []record.Record, q int) []*histogram.Intervals {
	out := make([]*histogram.Intervals, schema.NumNumeric())
	vals := make([]float64, len(sample))
	for j := range out {
		for i, rec := range sample {
			vals[i] = rec.Num[j]
		}
		out[j] = histogram.FromSample(vals, q)
	}
	return out
}

// Point is one (value, class) observation inside an alive interval.
type Point struct {
	V     float64
	Class int32
}

// SortPoints orders points canonically, so in-interval evaluation is
// deterministic regardless of collection order. The order is strict and
// total over every point that can differ: by value, with -0 before +0
// (equal under ==, so without the rule the threshold a tie picks would
// depend on arrival order) and NaN after every number (NaN goes right of
// every splitter), then by class.
//
// Inputs of radixMin points or more take radixSortPoints, smaller ones
// slices.SortFunc; the two orders agree on every point that can differ
// (NaN payloads aside). The radix sort's scratch buffers are recycled
// through a pool, so repeated sorts allocate nothing.
func SortPoints(pts []Point) {
	if len(pts) < radixMin {
		slices.SortFunc(pts, comparePoints)
		return
	}
	buf := radixScratch.Get().(*[]Point)
	if cap(*buf) < len(pts) {
		*buf = make([]Point, len(pts))
	}
	radixSortPoints(pts, (*buf)[:len(pts)])
	radixScratch.Put(buf)
}

// radixMin is the point count from which SortPoints radix-sorts. On
// perfbench build-noisy (20 s, 2 cores, 5 seeds) a cut-over at 128 ran
// 1.2x the rows/s of the comparison sort alone and beat a cut-over at 1024
// on every seed: the points of deep nodes share their high key bytes, so
// the radix sort skips most passes. BenchmarkSortPointsPaths times both
// paths.
const radixMin = 128

var radixScratch = sync.Pool{New: func() any { return new([]Point) }}

// radixSortPoints sorts pts canonically with an LSD radix sort on the key
// (pointKey(V), Class), using scratch (len(pts)) as the second buffer: one
// pass builds all nine digit histograms, and a digit every point shares is
// skipped, so values of a narrow range sort in a few passes. Classes
// beyond one byte fall back to the comparison sort.
func radixSortPoints(pts, scratch []Point) {
	n := len(pts)
	if n == 0 {
		return
	}
	// hist[0] counts classes, hist[1+d] byte d of the value key.
	var hist [9][256]int
	for _, p := range pts {
		if uint32(p.Class) > 255 {
			slices.SortFunc(pts, comparePoints)
			return
		}
		hist[0][p.Class]++
		k := pointKey(p.V)
		for d := 1; d < 9; d++ {
			hist[d][byte(k)]++
			k >>= 8
		}
	}
	src, dst := pts, scratch
	for d := range hist {
		h := &hist[d]
		if h[pointDigit(src[0], d)] == n {
			continue
		}
		sum := 0
		for i, c := range h {
			h[i] = sum
			sum += c
		}
		for _, p := range src {
			x := pointDigit(p, d)
			dst[h[x]] = p
			h[x]++
		}
		src, dst = dst, src
	}
	if &src[0] != &pts[0] {
		copy(pts, src)
	}
}

// pointKey maps a value to an unsigned key in the canonical order: the
// IEEE-754 bits with negatives inverted and positives' sign bit set, so
// -0 keys just below +0, and every NaN to the top key.
func pointKey(v float64) uint64 {
	if v != v {
		return math.MaxUint64
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// pointDigit is radix digit d of p: the class for d == 0, else byte d-1
// of the value key.
func pointDigit(p Point, d int) byte {
	if d == 0 {
		return byte(p.Class)
	}
	return byte(pointKey(p.V) >> (8 * (d - 1)))
}

func comparePoints(a, b Point) int {
	switch {
	case a.V < b.V:
		return -1
	case a.V > b.V:
		return 1
	case a.V == b.V:
		if sa, sb := math.Signbit(a.V), math.Signbit(b.V); sa != sb {
			if sa {
				return -1
			}
			return 1
		}
	default: // at least one NaN
		if an, bn := math.IsNaN(a.V), math.IsNaN(b.V); an != bn {
			if an {
				return 1
			}
			return -1
		}
	}
	return cmp.Compare(a.Class, b.Class)
}
