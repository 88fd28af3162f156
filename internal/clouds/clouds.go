package clouds

import (
	"fmt"
	"math/rand"
	"slices"

	"pclouds/internal/gini"
	"pclouds/internal/obs"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// Method selects how splitting points of numeric attributes are derived at
// large nodes.
type Method int

const (
	// SS samples the splitting points: gini is evaluated only at interval
	// boundaries (one pass over the node data).
	SS Method = iota
	// SSE adds estimation: a gini lower bound prunes intervals, and only
	// the surviving "alive" intervals are searched exactly (at most one
	// extra pass). SSE is the method pCLOUDS builds on.
	SSE
)

func (m Method) String() string {
	switch m {
	case SS:
		return "SS"
	case SSE:
		return "SSE"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// SplitMethod selects the split-finding protocol for large nodes: how much
// statistics volume crosses the wire (in pCLOUDS) before a splitting point
// is chosen. It is orthogonal to Method, which only applies to SplitSSE.
type SplitMethod int

const (
	// SplitSSE is the paper's exact protocol: SS/SSE interval statistics,
	// boundary evaluation under the configured replication scheme, and the
	// alive-interval exact search with point shipping.
	SplitSSE SplitMethod = iota
	// SplitHist replaces the SSE refinement rounds with fixed-bin quantized
	// feature histograms: per frontier node, each rank accumulates class
	// frequencies over HistBins quantile bins (built once per node from the
	// node's shared sample), the histograms merge associatively in a single
	// all-reduce, and every rank evaluates the merged boundaries
	// identically. No alive search, no point shipping; the split threshold
	// is quantized to a bin edge.
	SplitHist
	// SplitVote is PV-Tree-style two-round top-k attribute voting over the
	// same fixed-bin histograms: each rank nominates its VoteTopK locally
	// best attributes (one tiny all-gather), a deterministic majority
	// election picks up to 2*VoteTopK global candidates, and full interval
	// statistics are exchanged only for the elected attributes. The split
	// is exact over the elected set; attributes that look poor on every
	// rank are never shipped.
	SplitVote
)

func (m SplitMethod) String() string {
	switch m {
	case SplitSSE:
		return "sse"
	case SplitHist:
		return "hist"
	case SplitVote:
		return "vote"
	default:
		return fmt.Sprintf("SplitMethod(%d)", int(m))
	}
}

// ParseSplitMethod maps the -split-method flag values to SplitMethod.
func ParseSplitMethod(s string) (SplitMethod, error) {
	switch s {
	case "sse":
		return SplitSSE, nil
	case "hist":
		return SplitHist, nil
	case "vote":
		return SplitVote, nil
	default:
		return SplitSSE, fmt.Errorf("clouds: unknown split method %q (want sse, hist, or vote)", s)
	}
}

// Config parameterises tree construction. The zero value is not usable; see
// Defaults.
type Config struct {
	// Method is the large-node splitting method (SS or SSE). It applies
	// only when Split is SplitSSE.
	Method Method
	// Split selects the split-finding protocol (exact SSE, fixed-bin
	// histograms, or attribute voting). The zero value is SplitSSE.
	Split SplitMethod
	// HistBins is the per-attribute bin count of the SplitHist and
	// SplitVote histograms. It is fixed — unlike QForNode it does not grow
	// with node size — so the mergeable payload stays constant per node.
	// 0 means 16.
	HistBins int
	// VoteTopK is the number of attributes each rank nominates per node
	// under SplitVote; up to 2*VoteTopK attributes win the election.
	// 0 means 2.
	VoteTopK int
	// QRoot is the number of intervals per numeric attribute at the root
	// (the paper uses 10,000 for 3.6–7.2M records).
	QRoot int
	// QMin floors the interval count of large nodes.
	QMin int
	// SmallNodeQ is the mixed-parallelism switch threshold, expressed — as
	// in the paper — in intervals: a node whose interval count would fall
	// below this is a "small node", solved in-memory with the direct
	// method (and, in pCLOUDS, shipped to a single processor).
	SmallNodeQ int
	// SampleSize is the size of the pre-drawn random sample used to build
	// intervals. 0 derives it as 10×QRoot capped at the dataset size.
	SampleSize int
	// MinNodeSize makes any node with fewer records a leaf (default 2).
	MinNodeSize int64
	// MaxDepth caps tree depth; 0 means unlimited.
	MaxDepth int
	// Seed drives sample drawing when the caller does not pre-draw one.
	Seed int64
	// Trace, when non-nil, records coarse spans for this builder's work
	// (whole in-core builds, shipped small-node subtrees). pCLOUDS threads
	// its per-rank recorder through here so direct-method work appears
	// nested under the small-node phase. Nil costs one comparison per
	// build.
	Trace *obs.Recorder
}

// Defaults returns a configuration suitable for datasets of ~10^4..10^6
// records.
func Defaults() Config {
	return Config{
		Method:      SSE,
		QRoot:       200,
		QMin:        25,
		SmallNodeQ:  10,
		MinNodeSize: 2,
		Seed:        1,
	}
}

// WithDefaults returns c with unset fields filled from Defaults. Drivers in
// other packages (pCLOUDS) call it so that all builders resolve parameters
// identically.
func (c Config) WithDefaults() Config { return c.withDefaults() }

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	d := Defaults()
	if c.QRoot <= 0 {
		c.QRoot = d.QRoot
	}
	if c.QMin <= 0 {
		c.QMin = d.QMin
	}
	if c.SmallNodeQ <= 0 {
		c.SmallNodeQ = d.SmallNodeQ
	}
	if c.MinNodeSize <= 0 {
		c.MinNodeSize = d.MinNodeSize
	}
	if c.HistBins <= 0 {
		c.HistBins = 16
	}
	if c.VoteTopK <= 0 {
		c.VoteTopK = 2
	}
	return c
}

// QForNode returns the node's interval count: proportional to node size (as
// in CLOUDS, q decreases with the node) floored at QMin.
func (c Config) QForNode(nNode, nRoot int64) int {
	if nRoot <= 0 {
		return c.QMin
	}
	q := int(int64(c.QRoot) * nNode / nRoot)
	if q < c.QMin {
		q = c.QMin
	}
	return q
}

// IsSmall reports whether a node of nNode records (out of nRoot at the
// root) is a small node under the paper's interval-count criterion.
func (c Config) IsSmall(nNode, nRoot int64) bool {
	if nRoot <= 0 {
		return true
	}
	return int64(c.QRoot)*nNode/nRoot < int64(c.SmallNodeQ)
}

// SampleFor draws the pre-drawn random sample the interval structures are
// built from. Callers that need p-independent parallel builds draw the
// sample once from the full dataset and share it.
func (c Config) SampleFor(data *record.Dataset) []record.Record {
	k := c.SampleSize
	if k <= 0 {
		k = 10 * c.QRoot
		if k <= 0 {
			k = 2000
		}
	}
	rng := rand.New(rand.NewSource(c.Seed))
	return data.Sample(k, rng)
}

// BuildStats aggregates diagnostics of one tree construction.
type BuildStats struct {
	// Nodes and Leaves count the finished tree.
	Nodes, Leaves int
	// LargeNodes were processed with SS/SSE; SmallNodes with the direct
	// in-memory method.
	LargeNodes, SmallNodes int
	// RecordReads counts every record touched by a statistics, alive-
	// collection, or partition pass — the "amount of I/O" proxy.
	RecordReads int64
	// AlivePoints and BoundaryEvaluated drive the survival ratio
	// (AlivePoints / BoundaryEvaluated) of the SSE method.
	AlivePoints, BoundaryEvaluated int64
	// AliveIntervals counts intervals searched exactly.
	AliveIntervals int
	// MaxAlivePoints is the largest number of alive points any single node
	// produced — the peak in-memory footprint of the SSE exact search.
	MaxAlivePoints int64
	// MaxDepth is the deepest node built.
	MaxDepth int
}

// SurvivalRatio returns AlivePoints/BoundaryEvaluated (0 when nothing was
// evaluated).
func (s *BuildStats) SurvivalRatio() float64 {
	if s.BoundaryEvaluated == 0 {
		return 0
	}
	return float64(s.AlivePoints) / float64(s.BoundaryEvaluated)
}

type builder struct {
	cfg    Config
	schema *record.Schema
	nRoot  int64
	stats  BuildStats
	// pts is the direct method's point buffer, spill the right-hand
	// records of an in-place partition; both are sized by the largest node
	// and reused by every smaller one.
	pts   []Point
	spill []record.Record
}

// BuildInCore constructs a CLOUDS decision tree over an in-memory dataset.
// sample is the pre-drawn random sample used to build interval structures;
// pass nil to let the builder draw one from cfg.Seed.
func BuildInCore(cfg Config, data *record.Dataset, sample []record.Record) (*tree.Tree, *BuildStats, error) {
	cfg = cfg.withDefaults()
	if data.Len() == 0 {
		return nil, nil, fmt.Errorf("clouds: empty training set")
	}
	if sample == nil {
		sample = cfg.SampleFor(data)
	}
	b := &builder{cfg: cfg, schema: data.Schema, nRoot: int64(data.Len())}
	span := cfg.Trace.Start("incore-build")
	// The build partitions its records in place: work on a copy so the
	// caller's dataset keeps its order.
	root := b.build(slices.Clone(data.Records), sample, 0)
	span.End()
	t := &tree.Tree{Schema: data.Schema, Root: root}
	st := b.stats
	return t, &st, nil
}

// BuildSubtree builds a subtree over in-memory records starting at the
// given depth, with nRoot the *global* root size so that interval counts
// and small-node decisions match a full build. pCLOUDS uses it to solve
// shipped small nodes on their assigned processor. recs is reordered in
// place.
func BuildSubtree(cfg Config, schema *record.Schema, recs, sample []record.Record, depth int, nRoot int64) (*tree.Node, *BuildStats) {
	cfg = cfg.withDefaults()
	b := &builder{cfg: cfg, schema: schema, nRoot: nRoot}
	span := cfg.Trace.Start("small-subtree")
	nd := b.build(recs, sample, depth)
	span.End()
	st := b.stats
	return nd, &st
}

func (b *builder) leaf(classCounts []int64, n int64) *tree.Node {
	nd := &tree.Node{ClassCounts: gini.Clone(classCounts), N: n}
	nd.Class = nd.Majority()
	b.stats.Nodes++
	b.stats.Leaves++
	return nd
}

// ShouldStop applies the stopping criteria shared by every driver
// (sequential in-core, sequential out-of-core, and pCLOUDS): too few
// records, the depth cap, or a pure node.
func (c Config) ShouldStop(classCounts []int64, n int64, depth int) bool {
	if n < c.MinNodeSize {
		return true
	}
	if c.MaxDepth > 0 && depth >= c.MaxDepth {
		return true
	}
	nonzero := 0
	for _, cnt := range classCounts {
		if cnt > 0 {
			nonzero++
		}
	}
	return nonzero <= 1
}

func (b *builder) shouldStop(classCounts []int64, n int64, depth int) bool {
	return b.cfg.ShouldStop(classCounts, n, depth)
}

func (b *builder) build(recs []record.Record, sample []record.Record, depth int) *tree.Node {
	if depth > b.stats.MaxDepth {
		b.stats.MaxDepth = depth
	}
	n := int64(len(recs))
	classCounts := make([]int64, b.schema.NumClasses)
	for _, r := range recs {
		classCounts[r.Class]++
	}
	if b.shouldStop(classCounts, n, depth) {
		return b.leaf(classCounts, n)
	}

	var cand Candidate
	if b.cfg.IsSmall(n, b.nRoot) {
		b.stats.SmallNodes++
		b.stats.RecordReads += n
		if cap(b.pts) < len(recs) {
			b.pts = make([]Point, len(recs))
		}
		cand = directSplit(b.schema, recs, b.pts[:len(recs)])
	} else {
		b.stats.LargeNodes++
		cand = b.largeNodeSplit(recs, sample, n)
	}
	if !cand.Valid {
		return b.leaf(classCounts, n)
	}
	sp := cand.Splitter()

	nl := b.partition(recs, sp)
	leftRecs, rightRecs := recs[:nl:nl], recs[nl:]
	b.stats.RecordReads += n
	if len(leftRecs) == 0 || len(rightRecs) == 0 {
		return b.leaf(classCounts, n)
	}
	leftSample, rightSample := PartitionRecords(b.schema, sample, sp)

	nd := &tree.Node{Splitter: sp, ClassCounts: classCounts, N: n}
	nd.Class = nd.Majority()
	b.stats.Nodes++
	nd.Left = b.build(leftRecs, leftSample, depth+1)
	nd.Right = b.build(rightRecs, rightSample, depth+1)
	return nd
}

// fixedBinStats accumulates the node's records over the fixed-bin quantized
// histograms of the hist/vote split methods: HistBins quantile bins per
// numeric attribute, built from the node's sample regardless of node size.
func (b *builder) fixedBinStats(recs, sample []record.Record, n int64) *NodeStats {
	ns := NewNodeStats(b.schema, BuildIntervals(b.schema, sample, b.cfg.HistBins))
	for _, r := range recs {
		ns.Add(r)
	}
	b.stats.RecordReads += n
	return ns
}

// largeNodeSplit runs the configured split-finding protocol over in-memory
// records: the SS/SSE method (default), or the fixed-bin hist/vote
// evaluation the parallel communication-efficient modes are built on.
func (b *builder) largeNodeSplit(recs, sample []record.Record, n int64) Candidate {
	switch b.cfg.Split {
	case SplitHist:
		return BestBoundarySplit(b.fixedBinStats(recs, sample, n))
	case SplitVote:
		// One in-memory builder is a single-rank vote: it nominates its
		// top-k attributes, all of them win the election, and the best
		// elected candidate — the global best attribute's — is chosen.
		cands := AttributeBest(b.fixedBinStats(recs, sample, n))
		return BestOfAttrs(cands, TopKAttrs(cands, b.cfg.VoteTopK))
	}
	// An empty sample partition degenerates to a single interval per
	// attribute; the SSE alive search then covers the whole range. The
	// parallel build behaves identically, keeping the two deterministic.
	q := b.cfg.QForNode(n, b.nRoot)
	intervals := BuildIntervals(b.schema, sample, q)
	ns := NewNodeStats(b.schema, intervals)
	for _, r := range recs {
		ns.Add(r)
	}
	b.stats.RecordReads += n

	best := BestBoundarySplit(ns)
	if b.cfg.Method == SS {
		return best
	}

	// SSE: prune with the lower bound, then search alive intervals exactly.
	giniMin := best.Gini
	if !best.Valid {
		giniMin = gini.Index(ns.Class) // any improvement counts
	}
	alive := DetermineAlive(ns, giniMin)
	b.stats.BoundaryEvaluated += n
	b.stats.AlivePoints += alive.Points
	b.stats.AliveIntervals += alive.NumAlive()
	if alive.Points > b.stats.MaxAlivePoints {
		b.stats.MaxAlivePoints = alive.Points
	}
	if alive.NumAlive() == 0 {
		return best
	}

	// Collect points of alive intervals (second pass).
	pts := collectAlivePoints(ns, alive, recs)
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
	return best
}

// collectAlivePoints gathers, for every alive interval of every numeric
// attribute, the (value, class) points that fall inside it.
func collectAlivePoints(ns *NodeStats, alive *AliveSet, recs []record.Record) [][][]Point {
	pts := make([][][]Point, len(ns.Numeric))
	for j, nst := range ns.Numeric {
		pts[j] = make([][]Point, nst.Intervals.NumIntervals())
		for i, on := range alive.Alive[j] {
			if on {
				pts[j][i] = make([]Point, 0, gini.Sum(nst.Freq[i]))
			}
		}
	}
	for _, r := range recs {
		for j, nst := range ns.Numeric {
			v := r.Num[j]
			i := nst.Intervals.Locate(v)
			if alive.Alive[j][i] {
				pts[j][i] = append(pts[j][i], Point{V: v, Class: r.Class})
			}
		}
	}
	return pts
}

// partition reorders recs in place so the records going left come first,
// keeping the order within each side, and returns how many go left. The
// right-hand records wait in the builder's spill buffer meanwhile, so a
// whole build partitions without allocating past its first (largest) node.
func (b *builder) partition(recs []record.Record, sp *tree.Splitter) int {
	if cap(b.spill) < len(recs) {
		b.spill = make([]record.Record, 0, len(recs))
	}
	spill := b.spill[:0]
	nl := 0
	for _, r := range recs {
		if sp.GoesLeft(b.schema, r) {
			recs[nl] = r
			nl++
		} else {
			spill = append(spill, r)
		}
	}
	copy(recs[nl:], spill)
	return nl
}

// PartitionRecords splits a copy of recs by the splitter; order within
// each side is preserved and an empty side is nil. Both sides share one
// allocation sized by a counting pass. The builders use it for node
// samples, which other nodes and ranks may still be reading.
func PartitionRecords(schema *record.Schema, recs []record.Record, sp *tree.Splitter) (left, right []record.Record) {
	nl := 0
	for _, r := range recs {
		if sp.GoesLeft(schema, r) {
			nl++
		}
	}
	out := make([]record.Record, len(recs))
	l, r := 0, nl
	for _, rec := range recs {
		if sp.GoesLeft(schema, rec) {
			out[l] = rec
			l++
		} else {
			out[r] = rec
			r++
		}
	}
	if nl > 0 {
		left = out[:nl:nl]
	}
	if nl < len(recs) {
		right = out[nl:]
	}
	return left, right
}
