package pclouds

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/gini"
	"pclouds/internal/record"
)

// sortAlive orders alive intervals canonically by (attribute, interval) so
// the assignment is deterministic on every rank.
func sortAlive(list []aliveInterval) {
	sort.Slice(list, func(i, j int) bool {
		if list[i].attrJ != list[j].attrJ {
			return list[i].attrJ < list[j].attrJ
		}
		return list[i].interval < list[j].interval
	})
}

// assignIntervals maps each alive interval to one processor under the
// single-assignment approach, balancing the sorting cost n·log n with
// longest-processing-time-first. Deterministic: ties break toward the lower
// rank and the earlier interval.
func assignIntervals(alive []aliveInterval, p int) []int {
	idx := make([]int, len(alive))
	for i := range idx {
		idx[i] = i
	}
	cost := func(i int) float64 {
		n := float64(alive[i].count)
		if n < 2 {
			return n
		}
		return n * math.Log2(n)
	}
	sort.SliceStable(idx, func(a, b int) bool { return cost(idx[a]) > cost(idx[b]) })
	load := make([]float64, p)
	owner := make([]int, len(alive))
	for _, i := range idx {
		best := 0
		for r := 1; r < p; r++ {
			if load[r] < load[best] {
				best = r
			}
		}
		owner[i] = best
		load[best] += cost(i)
	}
	return owner
}

// evaluateAlive runs the single-assignment exact search: every alive
// interval is assigned to one processor; each rank streams its local node
// data once, shipping the points of every alive interval to the interval's
// assignee in one all-to-all; assignees sort and evaluate their intervals
// and a final min-combine yields the node's best split overall.
func (b *pbuilder) evaluateAlive(t *nodeTask, local *clouds.NodeStats, boundaryBest clouds.Candidate, alive []aliveInterval) (clouds.Candidate, error) {
	p := b.c.Size()
	rank := b.c.Rank()
	owner := assignIntervals(alive, p)
	// The dense alive index: aliveIdx[j][i] is the position in alive of
	// interval i of numeric attribute j, or -1 when it is not alive.
	aliveIdx := make([][]int32, len(local.Numeric))
	for j, nst := range local.Numeric {
		idx := make([]int32, nst.Intervals.NumIntervals())
		for i := range idx {
			idx[i] = -1
		}
		aliveIdx[j] = idx
	}
	for i, ai := range alive {
		aliveIdx[ai.attrJ][ai.interval] = int32(i)
	}

	// Local collection pass: bucket points by alive index. This rank's own
	// statistics count exactly the points its scan meets in each interval,
	// so every bucket is a capacity-capped window of one slab.
	buckets := pointBuckets(len(alive), func(i int) int64 {
		return gini.Sum(local.Numeric[alive[i].attrJ].Freq[alive[i].interval])
	})
	var localN int64
	if err := b.scanFrontier(t.file, func(r *record.Record) error {
		localN++
		for j, nst := range local.Numeric {
			v := r.Num[j]
			if i := aliveIdx[j][nst.Intervals.Locate(v)]; i >= 0 {
				buckets[i] = append(buckets[i], clouds.Point{V: v, Class: r.Class})
			}
		}
		return nil
	}); err != nil {
		return clouds.Candidate{}, err
	}
	b.stats.Build.RecordReads += localN
	b.chargeCPU(localN)

	// One all-to-all ships every point to its interval's assignee.
	perDest := make([][][]clouds.Point, p)
	for d := range perDest {
		perDest[d] = make([][]clouds.Point, len(alive))
	}
	for i, pts := range buckets {
		perDest[owner[i]][i] = pts
		if owner[i] != rank {
			b.stats.RecordsShipped += int64(len(pts))
		}
	}
	parts := make([][]byte, p)
	for d := 0; d < p; d++ {
		parts[d] = encodePointBuckets(perDest[d])
	}
	recv, err := comm.AllToAll(b.c, parts)
	if err != nil {
		return clouds.Candidate{}, err
	}

	// Assemble the points of the intervals this rank owns; the global
	// counts size them exactly.
	mine := pointBuckets(len(alive), func(i int) int64 {
		if owner[i] != rank {
			return 0
		}
		return alive[i].count
	})
	for _, raw := range recv {
		if err := decodePointBuckets(raw, mine); err != nil {
			return clouds.Candidate{}, err
		}
	}

	// Exact evaluation of owned intervals; EvaluateInterval sorts
	// canonically, so merge order does not matter.
	myBest := clouds.Candidate{Valid: false}
	numIdx := b.schema.NumericIndices()
	for i, ai := range alive {
		if owner[i] != rank {
			continue
		}
		// Sorting and scanning the interval costs ~2 touches per point.
		b.chargeCPU(2 * int64(len(mine[i])))
		cand := clouds.EvaluateInterval(numIdx[ai.attrJ], ai.leftBefore, t.classCounts, mine[i])
		if cand.Better(myBest) {
			myBest = cand
		}
	}
	best, err := combineCandidates(b.c, myBest)
	if err != nil {
		return clouds.Candidate{}, err
	}
	if boundaryBest.Better(best) {
		return boundaryBest, nil
	}
	return best, nil
}

// pointBuckets returns n empty buckets whose capacities, size(i), are
// consecutive windows of one slab: appends up to the planned size never
// reallocate, and one past it cannot spill into the next bucket.
func pointBuckets(n int, size func(i int) int64) [][]clouds.Point {
	caps := make([]int, n)
	total := 0
	for i := range caps {
		caps[i] = int(size(i))
		total += caps[i]
	}
	slab := make([]clouds.Point, total)
	out := make([][]clouds.Point, n)
	off := 0
	for i, c := range caps {
		out[i] = slab[off : off : off+c]
		off += c
	}
	return out
}

// encodePointBuckets frames non-empty buckets as
// [u32 aliveIdx][u32 n][n × (f64 value, u32 class)], into a buffer sized
// up front.
func encodePointBuckets(buckets [][]clouds.Point) []byte {
	size := 0
	for _, pts := range buckets {
		if len(pts) > 0 {
			size += 8 + 12*len(pts)
		}
	}
	out := make([]byte, size)
	off := 0
	for i, pts := range buckets {
		if len(pts) == 0 {
			continue
		}
		binary.LittleEndian.PutUint32(out[off:], uint32(i))
		binary.LittleEndian.PutUint32(out[off+4:], uint32(len(pts)))
		off += 8
		for _, pt := range pts {
			binary.LittleEndian.PutUint64(out[off:], math.Float64bits(pt.V))
			binary.LittleEndian.PutUint32(out[off+8:], uint32(pt.Class))
			off += 12
		}
	}
	return out
}

// decodePointBuckets appends the points of every frame in src to their
// buckets, growing each bucket once per frame.
func decodePointBuckets(src []byte, into [][]clouds.Point) error {
	for len(src) > 0 {
		if len(src) < 8 {
			return fmt.Errorf("pclouds: truncated point bucket header")
		}
		idx := int(binary.LittleEndian.Uint32(src))
		n := int(binary.LittleEndian.Uint32(src[4:]))
		src = src[8:]
		if idx < 0 || idx >= len(into) {
			return fmt.Errorf("pclouds: point bucket index %d out of range", idx)
		}
		if n < 0 || len(src)/12 < n {
			return fmt.Errorf("pclouds: truncated point bucket body")
		}
		pts := slices.Grow(into[idx], n)
		for k := 0; k < n; k++ {
			v := math.Float64frombits(binary.LittleEndian.Uint64(src))
			cls := int32(binary.LittleEndian.Uint32(src[8:]))
			pts = append(pts, clouds.Point{V: v, Class: cls})
			src = src[12:]
		}
		into[idx] = pts
	}
	return nil
}
