package main

import (
	"time"

	"pclouds/internal/clouds"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// Isolated kernel timings on a workload's own inputs. Each kernel runs
// kernelReps times over the same input and the median pass is reported, so
// one preempted pass does not move the number.
const kernelReps = 5

// directChunk is the record count of the small nodes DirectSplit is timed
// on: below the small-node switch of a 200k-400k record root.
const directChunk = 4096

// sink keeps the compiler from discarding kernel results.
var sink int64

func timePasses(pass func()) float64 {
	var ds []float64
	for i := 0; i < kernelReps; i++ {
		t0 := time.Now()
		pass()
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds)
}

// kernelTimings times Intervals.Locate, NodeStats.Add, EvaluateInterval and
// DirectSplit on the root node of the build data.
func kernelTimings(ds *record.Dataset, cfg clouds.Config, sample []record.Record) map[string]float64 {
	schema := ds.Schema
	cfg = cfg.WithDefaults()
	ivs := clouds.BuildIntervals(schema, sample, cfg.QRoot)
	recs := ds.Records
	out := map[string]float64{}

	numeric := len(ivs)
	out["clouds.locate_ns"] = 1e9 * timePasses(func() {
		var acc int
		for _, r := range recs {
			for j, iv := range ivs {
				acc += iv.Locate(r.Num[j])
			}
		}
		sink += int64(acc)
	}) / float64(len(recs)*numeric)

	var ns *clouds.NodeStats
	out["clouds.stats_add_ns_per_row"] = 1e9 * timePasses(func() {
		ns = clouds.NewNodeStats(schema, ivs)
		for _, r := range recs {
			ns.Add(r)
		}
	}) / float64(len(recs))

	// The root's alive intervals and their points, as the SSE method ships
	// them for exact evaluation.
	alive := clouds.DetermineAlive(ns, clouds.BestBoundarySplit(ns).Gini)
	type job struct {
		attr       int
		leftBefore []int64
		pts        []clouds.Point
	}
	var jobs []job
	var points int
	for j, nst := range ns.Numeric {
		byInterval := map[int][]clouds.Point{}
		for _, r := range recs {
			if i := nst.Intervals.Locate(r.Num[j]); alive.Alive[j][i] {
				byInterval[i] = append(byInterval[i], clouds.Point{V: r.Num[j], Class: r.Class})
			}
		}
		for i, pts := range byInterval {
			jobs = append(jobs, job{nst.Attr, clouds.LeftBefore(nst, i, schema.NumClasses), pts})
			points += len(pts)
		}
	}
	if points > 0 {
		scratch := make([][]clouds.Point, len(jobs))
		var passes []float64
		for rep := 0; rep < kernelReps; rep++ {
			// EvaluateInterval sorts its points in place: hand every pass
			// a fresh unsorted copy.
			for k, jb := range jobs {
				scratch[k] = append(scratch[k][:0], jb.pts...)
			}
			t0 := time.Now()
			for k, jb := range jobs {
				if c := clouds.EvaluateInterval(jb.attr, jb.leftBefore, ns.Class, scratch[k]); c.Valid {
					sink++
				}
			}
			passes = append(passes, time.Since(t0).Seconds())
		}
		total := median(passes)
		out["clouds.evaluate_interval_ns_per_point"] = 1e9 * total / float64(points)
	}

	chunks := len(recs) / directChunk
	if chunks > 16 {
		chunks = 16
	}
	if chunks > 0 {
		out["clouds.direct_split_ns_per_row"] = 1e9 * timePasses(func() {
			for c := 0; c < chunks; c++ {
				if clouds.DirectSplit(schema, recs[c*directChunk:(c+1)*directChunk]).Valid {
					sink++
				}
			}
		}) / float64(chunks*directChunk)
	}
	return out
}

// classifyNsPerRow times tree.Classify over recs.
func classifyNsPerRow(t *tree.Tree, recs []record.Record) float64 {
	return 1e9 * timePasses(func() {
		var acc int32
		for _, r := range recs {
			acc += t.Classify(r)
		}
		sink += int64(acc)
	}) / float64(len(recs))
}
