// Package bench regenerates every table and figure of the paper as Go
// benchmarks. Each benchmark reports the wall-clock cost of the real
// parallel execution plus, via b.ReportMetric, the simulated-machine
// numbers the paper's plots are made of (speedup, simulated seconds). Run:
//
//	go test -bench=. -benchmem
//
// The mapping to the paper is:
//
//	BenchmarkTable1*        -> Table 1  (collective primitives)
//	BenchmarkFig1Speedup    -> Figure 1 (speedup vs processors)
//	BenchmarkFig2Sizeup     -> Figure 2 (speedup vs records)
//	BenchmarkFig3Scaleup    -> Figure 3 (runtime at fixed records/proc)
//	BenchmarkStrategies     -> Ablation A (Section 3 strategy comparison)
//	BenchmarkSplitMethods   -> Ablation B (SS vs SSE vs direct)
//	BenchmarkBoundary       -> Ablation C (boundary statistics schemes)
//	BenchmarkBaseline       -> Ablation D (CLOUDS vs SPRINT)
//	BenchmarkParallelBaseline -> Ablation E (pCLOUDS vs ScalParC)
//
// plus micro-benchmarks of the kernels (gini evaluation, interval location,
// record codec, sequential build).
package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
	"pclouds/internal/datagen"
	"pclouds/internal/experiments"
	"pclouds/internal/gini"
	"pclouds/internal/histogram"
	"pclouds/internal/mdl"
	"pclouds/internal/record"
	"pclouds/internal/sliq"
	"pclouds/internal/sprint"
	"pclouds/internal/tree"
)

func benchHarness() experiments.Harness {
	h := experiments.DefaultHarness()
	h.QRoot = 64
	h.MaxDepth = 12
	return h
}

// --- Table 1 -------------------------------------------------------------

func benchCollective(b *testing.B, p, m int, fn func(c *comm.ChannelComm, payload []byte) error) {
	b.Helper()
	var sim float64
	for i := 0; i < b.N; i++ {
		comms := comm.NewGroup(p, costmodel.Default())
		errs := make([]error, p)
		done := make(chan struct{}, p)
		for r := 0; r < p; r++ {
			go func(r int) {
				defer func() { done <- struct{}{} }()
				errs[r] = fn(comms[r], make([]byte, m))
			}(r)
		}
		for j := 0; j < p; j++ {
			<-done
		}
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
		sim += comm.MaxClock(comms)
	}
	b.ReportMetric(sim/float64(b.N)*1e6, "sim-µs/op")
}

func BenchmarkTable1AllToAllBroadcast(b *testing.B) {
	for _, p := range []int{4, 16} {
		for _, m := range []int{64, 65536} {
			b.Run(fmt.Sprintf("p=%d/m=%d", p, m), func(b *testing.B) {
				benchCollective(b, p, m, func(c *comm.ChannelComm, payload []byte) error {
					_, err := comm.AllGather(c, payload)
					return err
				})
			})
		}
	}
}

func BenchmarkTable1Gather(b *testing.B) {
	for _, p := range []int{4, 16} {
		for _, m := range []int{64, 65536} {
			b.Run(fmt.Sprintf("p=%d/m=%d", p, m), func(b *testing.B) {
				benchCollective(b, p, m, func(c *comm.ChannelComm, payload []byte) error {
					_, err := comm.Gather(c, 0, payload)
					return err
				})
			})
		}
	}
}

func BenchmarkTable1GlobalCombine(b *testing.B) {
	for _, p := range []int{4, 16} {
		for _, elems := range []int{8, 8192} {
			b.Run(fmt.Sprintf("p=%d/elems=%d", p, elems), func(b *testing.B) {
				benchCollective(b, p, elems*8, func(c *comm.ChannelComm, payload []byte) error {
					v := make([]int64, elems)
					_, err := comm.AllReduceInt64(c, v, func(a, x int64) int64 { return a + x })
					return err
				})
			})
		}
	}
}

func BenchmarkTable1PrefixSum(b *testing.B) {
	for _, p := range []int{4, 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchCollective(b, p, 64, func(c *comm.ChannelComm, payload []byte) error {
				_, err := comm.PrefixSumInt64(c, make([]int64, 8))
				return err
			})
		})
	}
}

// --- Figures 1-3 ----------------------------------------------------------

func BenchmarkFig1Speedup(b *testing.B) {
	h := benchHarness()
	data, sample, err := h.Generate(12000)
	if err != nil {
		b.Fatal(err)
	}
	var base float64
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				r, err := h.Run(data, sample, p)
				if err != nil {
					b.Fatal(err)
				}
				sim += r.SimTime
			}
			sim /= float64(b.N)
			if p == 1 {
				base = sim
			}
			b.ReportMetric(sim, "sim-s/op")
			if base > 0 {
				b.ReportMetric(base/sim, "speedup")
			}
		})
	}
}

func BenchmarkFig2Sizeup(b *testing.B) {
	h := benchHarness()
	for _, n := range []int{6000, 12000, 24000} {
		data, sample, err := h.Generate(n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d/p=8", n), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				r, err := h.Run(data, sample, 8)
				if err != nil {
					b.Fatal(err)
				}
				sim += r.SimTime
			}
			b.ReportMetric(sim/float64(b.N), "sim-s/op")
		})
	}
}

func BenchmarkFig3Scaleup(b *testing.B) {
	h := benchHarness()
	const perProc = 3000
	for _, p := range []int{1, 2, 4, 8} {
		data, sample, err := h.Generate(perProc * p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("perproc=%d/p=%d", perProc, p), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				r, err := h.Run(data, sample, p)
				if err != nil {
					b.Fatal(err)
				}
				sim += r.SimTime
			}
			b.ReportMetric(sim/float64(b.N), "sim-s/op")
		})
	}
}

// --- Ablations -------------------------------------------------------------

func BenchmarkStrategies(b *testing.B) {
	h := benchHarness()
	rows, err := h.StrategiesAblation(2000, 4, 200)
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range rows {
		row := row
		b.Run(row.Strategy.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := h.StrategiesAblation(2000, 4, 200); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.SimTime, "sim-s")
			b.ReportMetric(float64(row.Redistributed), "redistributed")
		})
	}
}

func BenchmarkSplitMethods(b *testing.B) {
	h := benchHarness()
	data, sample, err := h.Generate(8000)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []clouds.Method{clouds.SS, clouds.SSE} {
		b.Run(m.String(), func(b *testing.B) {
			cfg := clouds.Config{Method: m, QRoot: 64, QMin: 8, SmallNodeQ: 4, MaxDepth: 12, MinNodeSize: 2, Seed: 1}
			for i := 0; i < b.N; i++ {
				if _, _, err := clouds.BuildInCore(cfg, data, sample); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("direct", func(b *testing.B) {
		cfg := clouds.Config{Method: clouds.SSE, QRoot: 64, QMin: 8, SmallNodeQ: 65, MaxDepth: 12, MinNodeSize: 2, Seed: 1}
		for i := 0; i < b.N; i++ {
			if _, _, err := clouds.BuildInCore(cfg, data, sample); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkBoundary(b *testing.B) {
	h := benchHarness()
	rows, err := h.BoundaryAblation(4000, []int{4}, []int{64})
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range rows {
		row := row
		b.Run(row.Method.String(), func(b *testing.B) {
			hb := h
			hb.Boundary = row.Method
			data, sample, err := hb.Generate(4000)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := hb.Run(data, sample, 4); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(row.CommBytes), "comm-bytes")
		})
	}
}

func BenchmarkBaseline(b *testing.B) {
	g, _ := datagen.New(datagen.Config{Function: 2, Seed: 1})
	data := g.Generate(8000)
	b.Run("CLOUDS-SSE", func(b *testing.B) {
		cfg := clouds.Config{Method: clouds.SSE, QRoot: 64, QMin: 8, SmallNodeQ: 4, MaxDepth: 12, MinNodeSize: 2, Seed: 1}
		for i := 0; i < b.N; i++ {
			if _, _, err := clouds.BuildInCore(cfg, data, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SLIQ", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := sliq.Build(sliq.Config{MaxDepth: 12, MinNodeSize: 2}, data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SPRINT", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := sprint.Build(sprint.Config{MaxDepth: 12, MinNodeSize: 2}, data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkParallelBaseline(b *testing.B) {
	h := benchHarness()
	rows, err := h.ParallelBaselineAblation(3000, 1000, []int{4})
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range rows {
		row := row
		b.Run(row.System, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := h.ParallelBaselineAblation(3000, 1000, []int{4}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(row.CommBytes), "comm-bytes")
			b.ReportMetric(row.SimTime, "sim-s")
		})
	}
}

// --- Kernel micro-benchmarks -------------------------------------------------

func BenchmarkGiniSplitIndex(b *testing.B) {
	left := []int64{1234, 5678}
	right := []int64{8765, 4321}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = gini.SplitIndex(left, right)
	}
}

func BenchmarkGiniLowerBound(b *testing.B) {
	left := []int64{100, 200}
	interval := []int64{50, 60}
	total := []int64{500, 500}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = gini.LowerBound(left, interval, total)
	}
}

func BenchmarkIntervalLocate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sample := make([]float64, 10000)
	for i := range sample {
		sample[i] = rng.Float64()
	}
	iv := histogram.FromSample(sample, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = iv.Locate(sample[i%len(sample)])
	}
}

// rootKernelInput is a build's root node as the large-node kernels see
// it: Agrawal function 2 records, the root's interval structures from a
// 2000-record sample at the default 200 intervals (199 quantile cuts per
// attribute), and the statistics one pass accumulates over them.
func rootKernelInput(b *testing.B, n int) (*record.Dataset, *clouds.NodeStats) {
	b.Helper()
	g, err := datagen.New(datagen.Config{Function: 2, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	data := g.Generate(n)
	cfg := clouds.Defaults()
	ivs := clouds.BuildIntervals(data.Schema, cfg.SampleFor(data), cfg.QRoot)
	ns := clouds.NewNodeStats(data.Schema, ivs)
	for _, r := range data.Records {
		ns.Add(r)
	}
	return data, ns
}

// BenchmarkLocateQuantileCuts times Intervals.Locate on real quantile cuts
// against the binary search it replaces, one op per (record, attribute).
func BenchmarkLocateQuantileCuts(b *testing.B) {
	data, ns := rootKernelInput(b, 50000)
	run := func(b *testing.B, locate func(nst *clouds.NumericStats, v float64) int) {
		b.ReportAllocs()
		acc := 0
		for i := 0; i < b.N; {
			for _, r := range data.Records {
				for j, nst := range ns.Numeric {
					acc += locate(nst, r.Num[j])
				}
				if i += len(ns.Numeric); i >= b.N {
					break
				}
			}
		}
		sinkInt += acc
	}
	b.Run("guide", func(b *testing.B) {
		run(b, func(nst *clouds.NumericStats, v float64) int { return nst.Intervals.Locate(v) })
	})
	b.Run("binary-search", func(b *testing.B) {
		run(b, func(nst *clouds.NumericStats, v float64) int { return sort.SearchFloat64s(nst.Intervals.Cuts, v) })
	})
}

// sinkInt keeps kernel results alive.
var sinkInt int

// BenchmarkSortPoints times the canonical point sort on one attribute's
// points of a direct-method-sized node, restored to arrival order before
// every sort. BenchmarkSortPointsPaths in internal/clouds times its radix
// and comparison paths apart.
func BenchmarkSortPoints(b *testing.B) {
	data, _ := rootKernelInput(b, 4096)
	src := make([]clouds.Point, data.Len())
	for i, r := range data.Records {
		src[i] = clouds.Point{V: r.Num[0], Class: r.Class}
	}
	pts := make([]clouds.Point, len(src))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(pts, src)
		clouds.SortPoints(pts)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src)), "ns/point")
}

// BenchmarkEvaluateAlivePass times one SSE exact-search pass at a root
// node, as one rank of evaluateAlive runs it: locate every record's
// values, bucket the points of alive intervals through a dense
// [attribute][interval] index, then sort and evaluate every bucket.
func BenchmarkEvaluateAlivePass(b *testing.B) {
	data, ns := rootKernelInput(b, 50000)
	best := clouds.BestBoundarySplit(ns)
	alive := clouds.DetermineAlive(ns, best.Gini)
	index := make([][]int32, len(ns.Numeric))
	var sizes []int64
	var attrOf, intervalOf []int
	for j, nst := range ns.Numeric {
		index[j] = make([]int32, nst.Intervals.NumIntervals())
		for i, on := range alive.Alive[j] {
			index[j][i] = -1
			if on {
				index[j][i] = int32(len(sizes))
				sizes = append(sizes, gini.Sum(nst.Freq[i]))
				attrOf, intervalOf = append(attrOf, j), append(intervalOf, i)
			}
		}
	}
	buckets := make([][]clouds.Point, len(sizes))
	for k, n := range sizes {
		buckets[k] = make([]clouds.Point, 0, n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for k := range buckets {
			buckets[k] = buckets[k][:0]
		}
		for _, r := range data.Records {
			for j, nst := range ns.Numeric {
				v := r.Num[j]
				if k := index[j][nst.Intervals.Locate(v)]; k >= 0 {
					buckets[k] = append(buckets[k], clouds.Point{V: v, Class: r.Class})
				}
			}
		}
		for k, pts := range buckets {
			nst := ns.Numeric[attrOf[k]]
			left := clouds.LeftBefore(nst, intervalOf[k], data.Schema.NumClasses)
			if c := clouds.EvaluateInterval(nst.Attr, left, ns.Class, pts); c.Valid {
				sinkInt++
			}
		}
	}
	b.ReportMetric(float64(alive.Points), "alive-points")
}

func BenchmarkRecordCodec(b *testing.B) {
	g, _ := datagen.New(datagen.Config{Function: 2, Seed: 1})
	rec := g.Next()
	schema := g.Schema()
	buf := rec.Encode(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = rec.Encode(buf[:0])
		var out record.Record
		if _, err := out.Decode(schema, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSequentialBuild(b *testing.B) {
	g, _ := datagen.New(datagen.Config{Function: 2, Seed: 1})
	data := g.Generate(10000)
	cfg := clouds.Config{Method: clouds.SSE, QRoot: 64, SmallNodeQ: 10, MaxDepth: 12, Seed: 1}
	sample := cfg.SampleFor(data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := clouds.BuildInCore(cfg, data, sample); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(data.Len()), "records")
}

func BenchmarkDatagen(b *testing.B) {
	g, _ := datagen.New(datagen.Config{Function: 2, Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.Next()
	}
}

func BenchmarkTreeEncodeDecode(b *testing.B) {
	g, _ := datagen.New(datagen.Config{Function: 2, Seed: 1})
	data := g.Generate(20000)
	cfg := clouds.Config{Method: clouds.SSE, QRoot: 128, SmallNodeQ: 10, Seed: 1}
	tr, _, err := clouds.BuildInCore(cfg, data, nil)
	if err != nil {
		b.Fatal(err)
	}
	blob := tree.Encode(tr)
	b.ReportMetric(float64(tr.NumNodes()), "nodes")
	b.ReportMetric(float64(len(blob)), "bytes")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob = tree.Encode(tr)
		if _, err := tree.Decode(data.Schema, blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMDLPrune(b *testing.B) {
	g, _ := datagen.New(datagen.Config{Function: 2, Seed: 1, Noise: 0.1})
	data := g.Generate(20000)
	cfg := clouds.Config{Method: clouds.SSE, QRoot: 128, SmallNodeQ: 10, Seed: 1}
	tr, _, err := clouds.BuildInCore(cfg, data, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(tr.NumNodes()), "nodes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mdl.Prune(tr)
	}
}

func BenchmarkScatter(b *testing.B) {
	for _, p := range []int{4, 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchCollective(b, p, 4096, func(c *comm.ChannelComm, payload []byte) error {
				var parts [][]byte
				if c.Rank() == 0 {
					parts = make([][]byte, p)
					for i := range parts {
						parts[i] = payload
					}
				}
				_, err := comm.Scatter(c, 0, parts)
				return err
			})
		})
	}
}
