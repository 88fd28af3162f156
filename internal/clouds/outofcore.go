package clouds

import (
	"fmt"

	"pclouds/internal/gini"
	"pclouds/internal/ooc"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// BuildOutOfCore constructs a CLOUDS tree over a disk-resident dataset: the
// records live in store under rootName and are streamed, never fully
// loaded, until a node's data fits within mem. Node data is physically
// partitioned into per-child files at every split (reading and writing a
// number of records equal to the node size, as the paper accounts), and the
// parent file is deleted afterwards.
//
// sample is the pre-drawn random sample (kept in memory and partitioned
// logically alongside the data). mem bounds the record bytes loaded for
// in-memory processing; nil or a non-positive limit means unlimited.
func BuildOutOfCore(cfg Config, store *ooc.Store, rootName string, sample []record.Record, mem *ooc.MemLimit) (*tree.Tree, *BuildStats, error) {
	cfg = cfg.withDefaults()
	n, err := store.Count(rootName)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, nil, fmt.Errorf("clouds: empty training file %q", rootName)
	}
	schema := store.Schema()
	// One counting pass for the root's class frequencies; every later node
	// inherits its counts from the parent's partition pass.
	rootCounts := make([]int64, schema.NumClasses)
	if err := scan(store, rootName, func(r *record.Record) error {
		rootCounts[r.Class]++
		return nil
	}); err != nil {
		return nil, nil, err
	}

	b := &oocBuilder{
		builder: builder{cfg: cfg, schema: schema, nRoot: n},
		store:   store,
		mem:     mem,
	}
	b.stats.RecordReads += n
	root, err := b.build(rootName, sample, 0, rootCounts, n, nil)
	if err != nil {
		return nil, nil, err
	}
	st := b.stats
	return &tree.Tree{Schema: schema, Root: root}, &st, nil
}

type oocBuilder struct {
	builder
	store  *ooc.Store
	mem    *ooc.MemLimit
	nextID int
}

// scan streams every record of a file through fn.
func scan(store *ooc.Store, name string, fn func(*record.Record) error) error {
	r, err := store.OpenReader(name)
	if err != nil {
		return err
	}
	defer r.Close()
	var rec record.Record
	for {
		ok, err := r.Next(&rec)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := fn(&rec); err != nil {
			return err
		}
	}
}

// build constructs the subtree rooted at the node whose records live in
// file name. fusedStats, when non-nil, holds the node's statistics
// accumulated by the parent's partition pass (the paper's fused
// partitioning), saving this node's statistics scan.
func (b *oocBuilder) build(name string, sample []record.Record, depth int, classCounts []int64, n int64, fusedStats *NodeStats) (*tree.Node, error) {
	if depth > b.stats.MaxDepth {
		b.stats.MaxDepth = depth
	}
	if b.shouldStop(classCounts, n, depth) {
		b.store.Remove(name)
		return b.leaf(classCounts, n), nil
	}

	// In-memory processing when the node fits the memory budget. Small
	// nodes (the interval-count criterion) are always brought in-core and
	// solved with the direct method, as the paper prescribes — the memory
	// limit governs large-node processing only.
	bytes := n * int64(b.schema.RecordBytes())
	if small := b.cfg.IsSmall(n, b.nRoot); small || b.mem.Fits(bytes) {
		charge := bytes
		if small && !b.mem.Fits(bytes) {
			charge = 0 // forced in-core; the paper assumes small nodes fit
		}
		if err := b.mem.Acquire(charge); err != nil {
			return nil, err
		}
		recs, err := b.store.ReadAll(name)
		if err != nil {
			b.mem.Release(charge)
			return nil, err
		}
		b.store.Remove(name)
		nd := b.builder.build(recs, sample, depth)
		b.mem.Release(charge)
		return nd, nil
	}

	// Large out-of-core node: stream the statistics pass (unless the
	// parent's fused partition already produced the statistics).
	cand, err := b.streamSplit(name, sample, n, fusedStats)
	if err != nil {
		return nil, err
	}
	if !cand.Valid {
		b.store.Remove(name)
		return b.leaf(classCounts, n), nil
	}
	sp := cand.Splitter()

	// Children's sizes and class counts are known from the winning
	// candidate, so the child interval structures can be built now and the
	// child statistics accumulated during the partition pass — the paper's
	// fused partitioning ("avoids a separate additional pass").
	nl := cand.LeftN
	nr := n - nl
	leftCounts := gini.Clone(cand.LeftCounts)
	rightCounts := make([]int64, b.schema.NumClasses)
	for i := range rightCounts {
		rightCounts[i] = classCounts[i] - leftCounts[i]
	}
	if nl <= 0 || nr <= 0 {
		b.store.Remove(name)
		return b.leaf(classCounts, n), nil
	}
	leftSample, rightSample := PartitionRecords(b.schema, sample, sp)
	var leftStats, rightStats *NodeStats
	if b.oocLargeChild(leftCounts, nl, depth+1) {
		q := b.cfg.QForNode(nl, b.nRoot)
		leftStats = NewNodeStats(b.schema, BuildIntervals(b.schema, leftSample, q))
	}
	if b.oocLargeChild(rightCounts, nr, depth+1) {
		q := b.cfg.QForNode(nr, b.nRoot)
		rightStats = NewNodeStats(b.schema, BuildIntervals(b.schema, rightSample, q))
	}

	b.nextID++
	leftName := fmt.Sprintf("%s.%dL", name, b.nextID)
	rightName := fmt.Sprintf("%s.%dR", name, b.nextID)
	lw, err := b.store.CreateWriter(leftName)
	if err != nil {
		return nil, err
	}
	rw, err := b.store.CreateWriter(rightName)
	if err != nil {
		lw.Close()
		return nil, err
	}
	err = scan(b.store, name, func(r *record.Record) error {
		if sp.GoesLeft(b.schema, *r) {
			if leftStats != nil {
				leftStats.Add(*r)
			}
			return lw.Write(*r)
		}
		if rightStats != nil {
			rightStats.Add(*r)
		}
		return rw.Write(*r)
	})
	b.stats.RecordReads += n
	if err2 := lw.Close(); err == nil {
		err = err2
	}
	if err2 := rw.Close(); err == nil {
		err = err2
	}
	if err != nil {
		return nil, err
	}
	b.store.Remove(name)

	nd := &tree.Node{Splitter: sp, ClassCounts: gini.Clone(classCounts), N: n}
	nd.Class = nd.Majority()
	b.stats.Nodes++
	if nd.Left, err = b.build(leftName, leftSample, depth+1, leftCounts, nl, leftStats); err != nil {
		return nil, err
	}
	if nd.Right, err = b.build(rightName, rightSample, depth+1, rightCounts, nr, rightStats); err != nil {
		return nil, err
	}
	return nd, nil
}

// oocLargeChild reports whether a child node will take the streaming
// large-node path (neither a leaf, nor small, nor in-core), i.e. whether
// fused statistics would be used.
func (b *oocBuilder) oocLargeChild(counts []int64, n int64, depth int) bool {
	if b.shouldStop(counts, n, depth) {
		return false
	}
	if b.cfg.IsSmall(n, b.nRoot) {
		return false
	}
	bytes := n * int64(b.schema.RecordBytes())
	return !b.mem.Fits(bytes)
}

// streamSplit derives the splitting point of a disk-resident node with the
// SS or SSE method, streaming the file for each required pass. fusedStats,
// when non-nil, replaces the statistics scan.
func (b *oocBuilder) streamSplit(name string, sample []record.Record, n int64, fusedStats *NodeStats) (Candidate, error) {
	b.stats.LargeNodes++
	ns := fusedStats
	if ns == nil {
		q := b.cfg.QForNode(n, b.nRoot)
		intervals := BuildIntervals(b.schema, sample, q)
		ns = NewNodeStats(b.schema, intervals)
		if err := scan(b.store, name, func(r *record.Record) error {
			ns.Add(*r)
			return nil
		}); err != nil {
			return Candidate{}, err
		}
		b.stats.RecordReads += n
	}

	best := BestBoundarySplit(ns)
	if b.cfg.Method == SS {
		return best, nil
	}
	giniMin := best.Gini
	if !best.Valid {
		giniMin = gini.Index(ns.Class)
	}
	alive := DetermineAlive(ns, giniMin)
	b.stats.BoundaryEvaluated += n
	b.stats.AlivePoints += alive.Points
	b.stats.AliveIntervals += alive.NumAlive()
	if alive.Points > b.stats.MaxAlivePoints {
		b.stats.MaxAlivePoints = alive.Points
	}
	if alive.NumAlive() == 0 {
		return best, nil
	}

	// Second streaming pass: collect alive-interval points (the paper
	// assumes each alive interval fits in main memory).
	pts := make([][][]Point, len(ns.Numeric))
	for j, nst := range ns.Numeric {
		pts[j] = make([][]Point, nst.Intervals.NumIntervals())
	}
	if err := scan(b.store, name, func(r *record.Record) error {
		for j, nst := range ns.Numeric {
			v := r.Num[j]
			i := nst.Intervals.Locate(v)
			if alive.Alive[j][i] {
				pts[j][i] = append(pts[j][i], Point{V: v, Class: r.Class})
			}
		}
		return nil
	}); err != nil {
		return Candidate{}, err
	}
	b.stats.RecordReads += n

	for j, nst := range ns.Numeric {
		for i, flag := range alive.Alive[j] {
			if !flag {
				continue
			}
			leftBefore := LeftBefore(nst, i, b.schema.NumClasses)
			cand := EvaluateInterval(nst.Attr, leftBefore, ns.Class, pts[j][i])
			if cand.Better(best) {
				best = cand
			}
		}
	}
	return best, nil
}
