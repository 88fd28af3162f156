package clouds

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pclouds/internal/datagen"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

var negZero = math.Copysign(0, -1)

// permutations calls fn with every ordering of pts.
func permutations(pts []Point, fn func([]Point)) {
	var rec func(k int)
	rec = func(k int) {
		if k == len(pts) {
			fn(append([]Point(nil), pts...))
			return
		}
		for i := k; i < len(pts); i++ {
			pts[k], pts[i] = pts[i], pts[k]
			rec(k + 1)
			pts[k], pts[i] = pts[i], pts[k]
		}
	}
	rec(0)
}

func sameCandidate(a, b Candidate) bool {
	return a.Valid == b.Valid && a.Attr == b.Attr && a.LeftN == b.LeftN &&
		math.Float64bits(a.Gini) == math.Float64bits(b.Gini) &&
		math.Float64bits(a.Threshold) == math.Float64bits(b.Threshold)
}

// TestEvaluateIntervalSignedZeroPermutations: -0 and +0 compare equal, so
// a sort that ties them would let arrival order pick the threshold's sign
// bit. Every permutation must yield the same candidate, bit for bit, and
// the threshold is +0 (the last of the zeros in the canonical order).
func TestEvaluateIntervalSignedZeroPermutations(t *testing.T) {
	pts := []Point{{V: -1, Class: 0}, {V: negZero, Class: 0}, {V: 0, Class: 0}, {V: 1, Class: 1}, {V: 2, Class: 1}}
	total := []int64{3, 2}
	var first Candidate
	seen := false
	permutations(pts, func(p []Point) {
		c := EvaluateInterval(0, []int64{0, 0}, total, p)
		if !seen {
			first, seen = c, true
		}
		if !sameCandidate(c, first) {
			t.Fatalf("order %v: candidate %+v, first order gave %+v", p, c, first)
		}
	})
	if first.Threshold != 0 || math.Signbit(first.Threshold) {
		t.Fatalf("threshold %v (signbit %v), want +0", first.Threshold, math.Signbit(first.Threshold))
	}
}

// TestDirectSplitSignedZeroPermutations is the direct method's half of the
// same property.
func TestDirectSplitSignedZeroPermutations(t *testing.T) {
	schema := record.MustSchema([]record.Attribute{{Name: "x", Kind: record.Numeric}}, 2)
	pts := []Point{{V: -1, Class: 0}, {V: negZero, Class: 0}, {V: 0, Class: 0}, {V: 1, Class: 1}, {V: 2, Class: 1}}
	var first Candidate
	seen := false
	permutations(pts, func(p []Point) {
		recs := make([]record.Record, len(p))
		for i, pt := range p {
			recs[i] = record.Record{Num: []float64{pt.V}, Class: pt.Class}
		}
		c := DirectSplit(schema, recs)
		if !seen {
			first, seen = c, true
		}
		if !sameCandidate(c, first) {
			t.Fatalf("order %v: candidate %+v, first order gave %+v", p, c, first)
		}
	})
	if !first.Valid || math.Signbit(first.Threshold) {
		t.Fatalf("candidate %+v, want a valid split at +0", first)
	}
}

// TestSortPointsRadixMatchesComparison checks the radix path against the
// comparison order on inputs around the switch-over size, with ties,
// signed zeros, infinities and NaN, and with classes past one byte.
func TestSortPointsRadixMatchesComparison(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	specials := []float64{negZero, 0, math.Inf(-1), math.Inf(1), math.NaN(), -1e-300, 5e-324}
	for _, n := range []int{0, 1, radixMin - 1, radixMin, 1000, 5000} {
		for _, maxClass := range []int32{2, 7, 300} {
			pts := make([]Point, n)
			for i := range pts {
				v := float64(rng.Intn(50)) - 25
				switch rng.Intn(4) {
				case 0:
					v = specials[rng.Intn(len(specials))]
				case 1:
					v = rng.NormFloat64() * 1e6
				}
				pts[i] = Point{V: v, Class: rng.Int31n(maxClass)}
			}
			want := append([]Point(nil), pts...)
			slices.SortFunc(want, comparePoints)
			got := append([]Point(nil), pts...)
			SortPoints(got)
			for i := range want {
				if math.Float64bits(got[i].V) != math.Float64bits(want[i].V) || got[i].Class != want[i].Class {
					t.Fatalf("n=%d classes=%d: position %d is %+v, comparison order has %+v", n, maxClass, i, got[i], want[i])
				}
			}
		}
	}
}

// BenchmarkSortPointsPaths times the two paths of SortPoints, the radix
// sort and the comparison sort, on sizes either side of radixMin. The
// points are those of real tree nodes, as the direct method sorts them:
// for each target size, the node of an in-core tree over noisy Agrawal f2
// records whose size is nearest, sorted along every numeric attribute.
func BenchmarkSortPointsPaths(b *testing.B) {
	g, err := datagen.New(datagen.Config{Function: 2, Seed: 7, Noise: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	data := g.Generate(40000)
	cfg := Defaults()
	tr, _, err := BuildInCore(cfg, data, cfg.SampleFor(data))
	if err != nil {
		b.Fatal(err)
	}
	for _, target := range []int{32, 64, 128, 256, 1024, 4096} {
		nd := nearestNode(tr.Root, int64(target))
		var recs []record.Record
		for _, r := range data.Records {
			if reaches(data.Schema, tr.Root, nd, r) {
				recs = append(recs, r)
			}
		}
		srcs := make([][]Point, len(data.Schema.NumericIndices()))
		for j := range srcs {
			for _, r := range recs {
				srcs[j] = append(srcs[j], Point{V: r.Num[j], Class: r.Class})
			}
		}
		pts := make([]Point, len(recs))
		scratch := make([]Point, len(recs))
		for _, path := range []struct {
			name string
			sort func([]Point)
		}{
			{"radix", func(p []Point) { radixSortPoints(p, scratch) }},
			{"sortfunc", func(p []Point) { slices.SortFunc(p, comparePoints) }},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", len(recs), path.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, src := range srcs {
						copy(pts, src)
						path.sort(pts)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(srcs)*len(recs)), "ns/point")
			})
		}
	}
}

// nearestNode returns the node of the subtree at n whose size is nearest
// to size.
func nearestNode(n *tree.Node, size int64) *tree.Node {
	best := n
	if !n.IsLeaf() {
		for _, c := range []*tree.Node{n.Left, n.Right} {
			if m := nearestNode(c, size); abs64(m.N-size) < abs64(best.N-size) {
				best = m
			}
		}
	}
	return best
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// reaches reports whether r's path from root passes through nd.
func reaches(schema *record.Schema, root, nd *tree.Node, r record.Record) bool {
	for n := root; ; {
		if n == nd {
			return true
		}
		if n.IsLeaf() {
			return false
		}
		if n.Splitter.GoesLeft(schema, r) {
			n = n.Left
		} else {
			n = n.Right
		}
	}
}
