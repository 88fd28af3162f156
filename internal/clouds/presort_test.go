package clouds

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pclouds/internal/datagen"
	"pclouds/internal/gini"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// refBuildInCore is the in-core builder as it was before presorting: every
// small node collects and sorts its own points (refDirectSplit), and every
// split partitions the node sample. Large nodes run the real SS/SSE code,
// so the two builders differ only in how small nodes are solved.
func refBuildInCore(cfg Config, data *record.Dataset, sample []record.Record) (*tree.Tree, *BuildStats) {
	cfg = cfg.withDefaults()
	b := &builder{cfg: cfg, schema: data.Schema, nRoot: int64(data.Len())}
	root := refBuild(b, slices.Clone(data.Records), sample, 0)
	return &tree.Tree{Schema: data.Schema, Root: root}, &b.stats
}

// refBuild is the per-node-sort reference of builder.build; it reorders
// recs in place.
func refBuild(b *builder, recs, sample []record.Record, depth int) *tree.Node {
	b.noteDepth(depth)
	n := int64(len(recs))
	classCounts := countClasses(b.schema, recs)
	if b.shouldStop(classCounts, n, depth) {
		return b.leaf(classCounts, n)
	}
	var cand Candidate
	if b.cfg.IsSmall(n, b.nRoot) {
		b.stats.SmallNodes++
		b.stats.RecordReads += n
		cand = refDirectSplit(b.schema, recs)
	} else {
		b.stats.LargeNodes++
		cand = b.largeNodeSplit(recs, sample, n)
	}
	if !cand.Valid {
		return b.leaf(classCounts, n)
	}
	sp := cand.Splitter()
	nl := b.partition(recs, sp)
	b.stats.RecordReads += n
	if nl == 0 || nl == len(recs) {
		return b.leaf(classCounts, n)
	}
	leftSample, rightSample := PartitionRecords(b.schema, sample, sp)
	nd := &tree.Node{Splitter: sp, ClassCounts: classCounts, N: n}
	nd.Class = nd.Majority()
	b.stats.Nodes++
	nd.Left = refBuild(b, recs[:nl:nl], leftSample, depth+1)
	nd.Right = refBuild(b, recs[nl:], rightSample, depth+1)
	return nd
}

// refDirectSplit is the direct method with a full sort per attribute and
// node, and a scan loop of its own.
func refDirectSplit(schema *record.Schema, recs []record.Record) Candidate {
	best := Candidate{Valid: false, Gini: math.Inf(1)}
	if len(recs) == 0 {
		return best
	}
	total := countClasses(schema, recs)
	nTotal := int64(len(recs))
	pts := make([]Point, len(recs))
	left := make([]int64, schema.NumClasses)
	right := make([]int64, schema.NumClasses)
	for j, attr := range schema.NumericIndices() {
		for i, r := range recs {
			pts[i] = Point{V: r.Num[j], Class: r.Class}
		}
		SortPoints(pts)
		clear(left)
		var nLeft int64
		for i := range pts {
			if math.IsNaN(pts[i].V) {
				break
			}
			left[pts[i].Class]++
			nLeft++
			if i+1 < len(pts) && pts[i+1].V == pts[i].V {
				continue
			}
			if nLeft == nTotal {
				continue
			}
			for k := range right {
				right[k] = total[k] - left[k]
			}
			cand := Candidate{Valid: true, Gini: gini.SplitIndex(left, right), Attr: attr, Kind: tree.NumericSplit, Threshold: pts[i].V}
			if cand.Better(best) {
				best = cand
			}
		}
	}
	for j, attr := range schema.CategoricalIndices() {
		cm := gini.NewCountMatrix(schema.Attrs[attr].Cardinality, schema.NumClasses)
		for _, r := range recs {
			cm.Add(r.Cat[j], r.Class)
		}
		ss := cm.BestSubsetSplit()
		var nLeft int64
		for v, in := range ss.InLeft {
			if in {
				nLeft += gini.Sum(cm.Counts[v])
			}
		}
		if nLeft == 0 || nLeft == nTotal {
			continue
		}
		cand := Candidate{Valid: true, Gini: ss.Gini, Attr: attr, Kind: tree.CategoricalSplit, InLeft: ss.InLeft}
		if cand.Better(best) {
			best = cand
		}
	}
	return best
}

// Value shapes of the random presort data.
const (
	shapeContinuous = iota
	shapeHeavyTies  // a handful of distinct values, ±0 among them
	shapeIntegers   // integer-valued, as age or loan is after rounding
	shapeSpecial    // ties plus NaN, ±0 and ±Inf
	numShapes
)

// randomPresortData draws n records over a random schema of numeric and
// categorical attributes in random positions. Classes follow the first
// attribute with label noise, so trees grow deep.
func randomPresortData(rng *rand.Rand, n, numeric, categorical, classes, shape int) *record.Dataset {
	attrs := make([]record.Attribute, 0, numeric+categorical)
	for j := 0; j < numeric; j++ {
		attrs = append(attrs, record.Attribute{Name: fmt.Sprintf("x%d", j), Kind: record.Numeric})
	}
	// Up to 15 values reach the exhaustive (<= 12) and greedy subset
	// searches; with many classes both cost 2^card or card² class
	// vectors per node, so those schemas keep to a few values.
	maxCard := 15
	if classes > 5 {
		maxCard = 6
	}
	for j := 0; j < categorical; j++ {
		attrs = append(attrs, record.Attribute{Name: fmt.Sprintf("c%d", j), Kind: record.Categorical, Cardinality: 2 + rng.Intn(maxCard-1)})
	}
	rng.Shuffle(len(attrs), func(i, j int) { attrs[i], attrs[j] = attrs[j], attrs[i] })
	schema := record.MustSchema(attrs, classes)
	special := []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1), 1, -1, 2.5}
	value := func() float64 {
		switch shape {
		case shapeHeavyTies:
			return special[rng.Intn(2)] + float64(rng.Intn(4))
		case shapeIntegers:
			return float64(rng.Intn(60) - 10)
		case shapeSpecial:
			if rng.Intn(3) == 0 {
				return special[rng.Intn(len(special))]
			}
			return float64(rng.Intn(8))
		}
		return rng.NormFloat64()
	}
	recs := make([]record.Record, n)
	for i := range recs {
		r := record.Record{Num: make([]float64, numeric), Cat: make([]int32, categorical)}
		for j := range r.Num {
			r.Num[j] = value()
		}
		for j, attr := range schema.CategoricalIndices() {
			r.Cat[j] = int32(rng.Intn(schema.Attrs[attr].Cardinality))
		}
		key := 0.0
		switch {
		case attrs[0].Kind == record.Numeric && !math.IsNaN(r.Num[0]):
			key = r.Num[0]
		case attrs[0].Kind == record.Categorical:
			key = float64(r.Cat[0])
		}
		cls := int(math.Abs(math.Floor(key))) % classes
		if math.IsInf(key, 0) || rng.Intn(5) == 0 {
			cls = rng.Intn(classes)
		}
		r.Class = int32(cls)
		recs[i] = r
	}
	return &record.Dataset{Schema: schema, Records: recs}
}

// checkPresortedMatches builds data with BuildInCore and with the
// per-node-sort reference and fails unless the encoded trees and every
// BuildStats field agree bit for bit. It also solves the root through
// BuildSubtree and checks the records are left as they were.
func checkPresortedMatches(t *testing.T, cfg Config, data *record.Dataset) {
	t.Helper()
	sample := cfg.SampleFor(data)
	got, gotSt, err := BuildInCore(cfg, data, sample)
	if err != nil {
		t.Fatal(err)
	}
	want, wantSt := refBuildInCore(cfg, data, sample)
	if !bytes.Equal(tree.Encode(got), tree.Encode(want)) {
		t.Fatalf("presorted tree differs from the per-node-sort reference (%d vs %d nodes)", got.NumNodes(), want.NumNodes())
	}
	if *gotSt != *wantSt {
		t.Fatalf("stats differ:\n presorted %+v\n reference %+v", *gotSt, *wantSt)
	}
	recs := slices.Clone(data.Records)
	nd, subSt := BuildSubtree(cfg, data.Schema, recs, sample, 0, int64(data.Len()))
	if !bytes.Equal(tree.Encode(&tree.Tree{Root: nd}), tree.Encode(want)) || *subSt != *wantSt {
		t.Fatal("BuildSubtree differs from the per-node-sort reference")
	}
	for i := range recs {
		if !sameRecord(recs[i], data.Records[i]) {
			t.Fatalf("BuildSubtree moved record %d", i)
		}
	}
}

// sameRecord compares two records bit for bit (NaN included).
func sameRecord(a, b record.Record) bool {
	if a.Class != b.Class || !slices.Equal(a.Cat, b.Cat) || len(a.Num) != len(b.Num) {
		return false
	}
	for j := range a.Num {
		if math.Float64bits(a.Num[j]) != math.Float64bits(b.Num[j]) {
			return false
		}
	}
	return true
}

// TestPresortedMatchesPerNodeSort: solving small subtrees from presorted
// attribute lists must give the tree and BuildStats the per-node sort did,
// on ties, signed zeros, NaN, ±Inf and integer values, two to 300 classes
// (past the radix sort's one-byte class digit), numeric-only and
// categorical-only schemas, and a range of stopping rules.
func TestPresortedMatchesPerNodeSort(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	type schemaShape struct{ numeric, categorical int }
	schemas := []schemaShape{{3, 2}, {4, 0}, {0, 3}, {1, 1}}
	classCounts := []int{2, 3, 5, 300}
	iters := 48
	if testing.Short() {
		iters = 16
	}
	for it := 0; it < iters; it++ {
		sc := schemas[it%len(schemas)]
		classes := classCounts[(it/len(schemas))%len(classCounts)]
		shape := it % numShapes
		n := 50 + rng.Intn(1500)
		data := randomPresortData(rng, n, sc.numeric, sc.categorical, classes, shape)
		cfg := Config{
			Method:      SSE,
			QRoot:       64,
			SmallNodeQ:  65, // every node small: the whole tree is presorted
			MinNodeSize: int64(1 + rng.Intn(12)),
			MaxDepth:    []int{0, 1, 3, 8, 20}[rng.Intn(5)],
			SampleSize:  200,
			Seed:        int64(it),
		}
		t.Run(fmt.Sprintf("n%d-num%d-cat%d-c%d-shape%d-min%d-depth%d", n, sc.numeric, sc.categorical, classes, shape, cfg.MinNodeSize, cfg.MaxDepth), func(t *testing.T) {
			checkPresortedMatches(t, cfg, data)
			// Mixed: large SSE nodes above, presorted subtrees below. Past
			// 16 classes the SSE lower bound is a quadratic local search
			// per interval, too slow to run here at 300.
			if classes <= 16 {
				mixed := cfg
				mixed.SmallNodeQ = 8
				checkPresortedMatches(t, mixed, data)
			}
		})
	}
}

// FuzzPresortedBuild runs the presorted-versus-per-node-sort comparison on
// fuzzer-chosen data and stopping rules.
func FuzzPresortedBuild(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(0), uint8(2), uint8(2), uint8(0))
	f.Add(int64(2), uint16(900), uint8(3), uint8(3), uint8(1), uint8(5))
	f.Add(int64(3), uint16(200), uint8(1), uint8(44), uint8(7), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, shape, classes, minNode, maxDepth uint8) {
		rng := rand.New(rand.NewSource(seed))
		numeric := 1 + rng.Intn(3)
		categorical := rng.Intn(3)
		nClasses := 2 + int(classes)%299
		data := randomPresortData(rng, 2+int(n)%2000, numeric, categorical, nClasses, int(shape)%numShapes)
		cfg := Config{
			Method:      SSE,
			QRoot:       64,
			SmallNodeQ:  65,
			MinNodeSize: 1 + int64(minNode)%16,
			MaxDepth:    int(maxDepth) % 24,
			SampleSize:  200,
			Seed:        seed,
		}
		if shape&0x80 != 0 && nClasses <= 16 {
			cfg.SmallNodeQ = 8 // large SSE nodes above presorted subtrees
		}
		checkPresortedMatches(t, cfg, data)
	})
}

// firstSmallTask walks a real build from the root, always into the larger
// child, until it reaches the first small node, and returns that node's
// records and depth: the task pCLOUDS would ship to one processor.
func firstSmallTask(cfg Config, data *record.Dataset) ([]record.Record, int) {
	cfg = cfg.withDefaults()
	b := &builder{cfg: cfg, schema: data.Schema, nRoot: int64(data.Len())}
	recs, sample := slices.Clone(data.Records), cfg.SampleFor(data)
	depth := 0
	for !cfg.IsSmall(int64(len(recs)), b.nRoot) {
		sp := b.largeNodeSplit(recs, sample, int64(len(recs))).Splitter()
		nl := b.partition(recs, sp)
		ls, rs := PartitionRecords(data.Schema, sample, sp)
		if nl >= len(recs)-nl {
			recs, sample = recs[:nl], ls
		} else {
			recs, sample = recs[nl:], rs
		}
		depth++
	}
	return recs, depth
}

// BenchmarkBuildSubtree solves one real small task, the first small node
// of an Agrawal f2 build with 5% label noise over 200k records, with the
// per-node-sort reference and with presorted attribute lists.
func BenchmarkBuildSubtree(b *testing.B) {
	g, err := datagen.New(datagen.Config{Function: 2, Seed: 5, Noise: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	data := g.Generate(200_000)
	cfg := Defaults()
	task, depth := firstSmallTask(cfg, data)
	nRoot := int64(data.Len())
	b.Logf("task: %d records at depth %d", len(task), depth)
	b.Run("per-node-sort", func(b *testing.B) {
		b.ReportAllocs()
		recs := make([]record.Record, len(task))
		for i := 0; i < b.N; i++ {
			copy(recs, task)
			rb := &builder{cfg: cfg.withDefaults(), schema: data.Schema, nRoot: nRoot}
			refBuild(rb, recs, nil, depth)
		}
	})
	b.Run("presorted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			BuildSubtree(cfg, data.Schema, task, nil, depth, nRoot)
		}
	})
}

// TestPresortedConcurrentBuilds: builders on several goroutines share the
// presort arena pool; each must still build the tree it builds alone.
func TestPresortedConcurrentBuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cfg := Config{QRoot: 64, SmallNodeQ: 8, MinNodeSize: 2, SampleSize: 200, Seed: 1}
	const workers = 4
	data := make([]*record.Dataset, workers)
	want := make([][]byte, workers)
	for w := range data {
		data[w] = randomPresortData(rng, 400+300*w, 3, 2, 2+w, w%numShapes)
		tr, _, err := BuildInCore(cfg, data[w], nil)
		if err != nil {
			t.Fatal(err)
		}
		want[w] = tree.Encode(tr)
	}
	errs := make(chan error, workers)
	for w := range data {
		go func(w int) {
			for i := 0; i < 5; i++ {
				tr, _, err := BuildInCore(cfg, data[w], nil)
				if err == nil && !bytes.Equal(tree.Encode(tr), want[w]) {
					err = fmt.Errorf("worker %d: concurrent build differs from its sequential build", w)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for range data {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
