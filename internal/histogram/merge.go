package histogram

import "fmt"

// Merge unions the cut sets of two interval structures into one structure
// whose cuts are the sorted, deduplicated union — the coarsest structure
// refining both inputs. Merging is commutative and associative, and
// duplicate cuts collapse, so folding any permutation of any sharding of a
// cut collection yields the same structure. The streaming frontier uses it
// to combine a leaf's local quantile cuts with the global attribute grid so
// that sparsely-populated leaves still have candidate boundaries.
func Merge(a, b *Intervals) *Intervals {
	if a == nil {
		a = &Intervals{}
	}
	if b == nil {
		b = &Intervals{}
	}
	cuts := make([]float64, 0, len(a.Cuts)+len(b.Cuts))
	i, j := 0, 0
	for i < len(a.Cuts) && j < len(b.Cuts) {
		av, bv := a.Cuts[i], b.Cuts[j]
		switch {
		case av < bv:
			cuts = append(cuts, av)
			i++
		case bv < av:
			cuts = append(cuts, bv)
			j++
		default: // equal: keep one
			cuts = append(cuts, av)
			i, j = i+1, j+1
		}
	}
	cuts = append(cuts, a.Cuts[i:]...)
	cuts = append(cuts, b.Cuts[j:]...)
	if len(cuts) == 0 {
		return &Intervals{}
	}
	return newIntervals(cuts)
}

// MergeCounts sums two per-interval count vectors of identical shape — the
// associative combine of fixed-bin histogram shards. It is the merge the
// hist/vote split protocols apply element-wise inside their single
// all-reduce; exported so other layers (the streaming frontier sketches)
// reuse the exact same operation.
func MergeCounts(a, b []int64) ([]int64, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("histogram: merging count vectors of length %d and %d", len(a), len(b))
	}
	out := make([]int64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out, nil
}

// MergeCount is the scalar histogram-count combine, shaped for
// comm.AllReduceInt64's element-wise op: plain addition, the reason
// histogram shards merge order-independently.
func MergeCount(a, b int64) int64 { return a + b }
