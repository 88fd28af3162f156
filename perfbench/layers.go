package main

import (
	"os"
	"strings"
	"time"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/datagen"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// Per-layer metrics, named by module and listed module by module. A traced
// run reports every one of them; a layer that does not run on the workload
// reports 0 and is left out of the printed report. Times are per operation and, for the two
// ranks of a build or stream session, the mean over ranks; counts and
// bytes are summed over ranks.
var layerMetrics = func() []struct{ name, unit string } {
	m := []struct{ name, unit string }{
		{"record.load_s", "s"}, {"record.load_bytes", "B"},
		{"ooc.read_ops", "count"}, {"ooc.write_ops", "count"},
		{"ooc.read_bytes", "B"}, {"ooc.write_bytes", "B"},
		{"ooc.backend_read_s", "s"}, {"ooc.backend_write_s", "s"},
		{"ooc.sync_s", "s"}, {"ooc.io_wait_s", "s"},
		{"ooc.frames_verified", "count"}, {"ooc.corruptions", "count"},
		{"comm.bytes_sent", "B"}, {"comm.msgs_sent", "count"},
		{"comm.send_s", "s"}, {"comm.recv_wait_s", "s"},
		{"comm.send_retries", "count"}, {"comm.peer_downs", "count"},
	}
	for _, cl := range commClasses {
		m = append(m,
			struct{ name, unit string }{"comm." + cl.String() + ".calls", "count"},
			struct{ name, unit string }{"comm." + cl.String() + ".bytes", "B"},
			struct{ name, unit string }{"comm." + cl.String() + ".wait_s", "s"})
	}
	m = append(m, []struct{ name, unit string }{
		{"driver.mesh_up_s", "s"}, {"driver.attempts", "count"},
	}...)
	for _, ph := range pcloudsPhases {
		m = append(m,
			struct{ name, unit string }{"pclouds." + ph + ".self_s", "s"},
			struct{ name, unit string }{"pclouds." + ph + ".predicted_s", "s"})
	}
	return append(m, []struct{ name, unit string }{
		{"pclouds.large_nodes", "count"}, {"pclouds.small_tasks", "count"},
		{"pclouds.records_shipped", "count"}, {"pclouds.alive_survival_ratio", "ratio"},
		{"pclouds.checkpoints", "count"}, {"pclouds.allocs_per_row", "count"},
		{"pclouds.unaccounted_s", "s"},
		{"clouds.locate_ns", "ns"}, {"clouds.stats_add_ns_per_row", "ns"},
		{"clouds.evaluate_interval_ns_per_point", "ns"}, {"clouds.direct_split_ns_per_row", "ns"},
		{"clouds.incore_build_s", "s"},
		{"tree.nodes", "count"}, {"tree.depth", "count"}, {"tree.classify_ns_per_row", "ns"},
		{"tree.save_s", "s"}, {"tree.load_s", "s"},
		{"serve.handler_p50_ms", "ms"}, {"serve.handler_p99_ms", "ms"},
		{"serve.engine_p50_ms", "ms"}, {"serve.engine_p99_ms", "ms"},
		{"serve.client_overhead_p50_ms", "ms"}, {"serve.batch_rows_mean", "rows"},
		{"serve.queue_depth_p99", "count"}, {"serve.shed", "count"},
		{"serve.reload_s", "s"}, {"serve.reload_failures", "count"},
		{"loadgen.lag_p99_ms", "ms"},
		{"stream.source_s", "s"}, {"stream.sketch_bytes", "B"},
		{"stream.refreshes", "count"}, {"stream.grown", "count"},
		{"stream.published", "count"}, {"stream.gate_skips", "count"},
		{"stream.drift_fires", "count"},
		{"trace.overhead_ms", "ms"},
	}...)
}()

// pcloudsPhases are the obs.Recorder phase spans of a pclouds build that
// the accounting table compares against the Table 1 cost model.
var pcloudsPhases = []string{"preprocess", "stats", "boundary", "alive", "partition", "checkpoint",
	"small-redistribute", "small-subtree", "small-exchange"}

func isRankLane(name string) bool { return strings.HasPrefix(name, "rank ") }

// rankSpan sums the self and simulated time of the named spans on the rank
// lanes.
func (t *tracer) rankSpan(name string) (self, sim float64) {
	for _, l := range t.lanes {
		if !isRankLane(l.name) {
			continue
		}
		l.mu.Lock()
		for _, s := range l.spans {
			if s.Name == name {
				self += s.Self
				sim += s.Sim
			}
		}
		l.mu.Unlock()
	}
	return self, sim
}

// commLayer fills the comm.* metrics from per-rank transport counters and
// wrapper times; per is the number of operations they cover.
func commLayer(out map[string]float64, stats []comm.Stats, times []*commTimes, per float64) {
	ranks := float64(len(times))
	for _, st := range stats {
		out["comm.bytes_sent"] += float64(st.BytesSent) / per
		out["comm.msgs_sent"] += float64(st.MsgsSent) / per
		out["comm.send_retries"] += float64(st.SendRetries) / per
		out["comm.peer_downs"] += float64(st.PeerDowns) / per
		for _, cl := range commClasses {
			out["comm."+cl.String()+".calls"] += float64(st.Ops[cl].Calls) / per
			out["comm."+cl.String()+".bytes"] += float64(st.Ops[cl].BytesSent) / per
		}
	}
	for _, ct := range times {
		ct.mu.Lock()
		for _, cl := range commClasses {
			out["comm.send_s"] += ct.send[cl] / per / ranks
			out["comm.recv_wait_s"] += ct.recv[cl] / per / ranks
			out["comm."+cl.String()+".wait_s"] += ct.recv[cl] / per / ranks
		}
		ct.mu.Unlock()
	}
}

// report fills the per-layer metrics of a traced build run and prints the
// accounting table. untraced are the run's untraced builds, the reference
// for the tracing overhead; the first also supplies the tree, the kernels'
// input and the allocation count.
func (b *buildEnv) report(res *result, untraced, traced []*buildOp) {
	b.tr.analyse()
	ref := untraced[0]
	var refToModel []float64
	for _, op := range untraced {
		refToModel = append(refToModel, op.toModel)
	}
	out := res.layer
	n := float64(len(traced))
	perRank := 2 * n
	var toModel []float64
	var stats []comm.Stats
	var times []*commTimes
	var alivePts, boundary int64
	for _, op := range traced {
		toModel = append(toModel, op.toModel)
		for r := 0; r < 2; r++ {
			st := op.stats[r]
			stats = append(stats, st.Comm)
			times = append(times, op.comm[r])
			io := op.io[r]
			out["ooc.read_ops"] += float64(io.ReadOps) / n
			out["ooc.write_ops"] += float64(io.WriteOps) / n
			out["ooc.read_bytes"] += float64(io.ReadBytes) / n
			out["ooc.write_bytes"] += float64(io.WriteBytes) / n
			out["ooc.io_wait_s"] += io.WaitSec / perRank
			out["ooc.frames_verified"] += float64(op.integ[r].FramesRead) / n
			out["ooc.corruptions"] += float64(op.integ[r].Corruptions) / n
			bt := op.backend[r]
			out["ooc.backend_read_s"] += bt.read / perRank
			out["ooc.backend_write_s"] += bt.write / perRank
			out["ooc.sync_s"] += bt.sync / perRank
			out["driver.mesh_up_s"] += op.meshUp[r] / perRank
			out["pclouds.records_shipped"] += float64(st.RecordsShipped) / n
			alivePts += st.Build.AlivePoints
			boundary += st.Build.BoundaryEvaluated
		}
		out["driver.attempts"] += float64(op.attempts) / n
	}
	commLayer(out, stats, times, n)

	self := func(name string) float64 { s, _ := b.tr.rankSpan(name); return s / perRank }
	out["record.load_s"] = self("record.load")
	if fi, err := os.Stat(b.path(dataFile(ref.data))); err == nil {
		out["record.load_bytes"] = 2 * float64(fi.Size())
	}
	st0 := ref.stats[0]
	out["pclouds.large_nodes"] = float64(st0.LargeNodes)
	out["pclouds.small_tasks"] = float64(st0.SmallTasks)
	out["pclouds.checkpoints"] = float64(st0.Checkpoints)
	if boundary > 0 {
		out["pclouds.alive_survival_ratio"] = float64(alivePts) / float64(boundary)
	}
	out["pclouds.allocs_per_row"] = float64(ref.mallocs) / float64(b.w.records)
	for _, ph := range pcloudsPhases {
		s, sim := b.tr.rankSpan("pclouds." + ph)
		out["pclouds."+ph+".self_s"] = s / perRank
		out["pclouds."+ph+".predicted_s"] = sim / perRank
	}
	// Rank 0's timeline from record-file open to the saved model: every
	// second not covered by a layer span is unaccounted.
	rank0 := b.tr.selfByName(func(l string) bool { return l == "rank 0" })
	var covered float64
	for _, s := range rank0 {
		covered += s
	}
	out["pclouds.unaccounted_s"] = mean(toModel) - covered/n

	out["tree.nodes"] = float64(ref.tree.NumNodes())
	out["tree.depth"] = float64(ref.tree.Depth())
	out["tree.save_s"] = rank0["tree.save"] / n
	regSelf := b.tr.selfByName(func(l string) bool { return l == "registry" })
	out["tree.load_s"] = regSelf["tree.load"] / n
	out["serve.reload_s"] = regSelf["serve.reload"] / (publishReps * n)
	out["trace.overhead_ms"] = 1e3 * (median(toModel) - median(refToModel))

	// Kernels and the sequential baseline on the same records and config.
	full, err := record.LoadFile(datagen.Schema(), b.path(dataFile(ref.data)))
	if err != nil {
		res.wrongf("kernels: reloading training data: %v", err)
		return
	}
	cfg := b.w.cloudsConfig(dataSeed(b.seed, ref.data))
	sample := cfg.SampleFor(full)
	for k, v := range kernelTimings(full, cfg, sample) {
		out[k] = v
	}
	out["tree.classify_ns_per_row"] = classifyNsPerRow(ref.tree, b.test.Records)
	t0 := time.Now()
	seq, _, err := clouds.BuildInCore(cfg, full, sample)
	out["clouds.incore_build_s"] = time.Since(t0).Seconds()
	if err != nil || !tree.Equal(seq, ref.tree) {
		res.wrongf("the sequential in-core build differs from the parallel build (%v)", err)
	}

	say("accounting (per build, mean over ranks; predicted = Table 1 cost model, costmodel.Default()):")
	say("  %-28s %12s %12s", "layer / phase", "predicted_s", "measured_s")
	for _, ph := range pcloudsPhases {
		say("  %-28s %12.4f %12.4f", "pclouds."+ph, out["pclouds."+ph+".predicted_s"], out["pclouds."+ph+".self_s"])
	}
	for _, name := range []string{"pclouds.build", "pclouds.large-node", "pclouds.small-phase", "pclouds.small-solve"} {
		s, sim := b.tr.rankSpan(name)
		say("  %-28s %12.4f %12.4f", name+" (self)", sim/perRank, s/perRank)
	}
	for _, name := range []string{"record.load", "ooc.stage", "ooc.read", "ooc.write", "ooc.sync",
		"comm.send", "comm.recv", "driver.mesh_up"} {
		say("  %-28s %12s %12.4f", name, "", self(name))
	}
	say("  %-28s %12s %12.4f", "tree.save (rank 0)", "", out["tree.save_s"])
	say("  %-28s %12s %12.4f", "unaccounted (rank 0)", "", out["pclouds.unaccounted_s"])
	say("  %-28s %12s %12.4f", "time to model", "", mean(toModel))
	say("  %-28s %12s %12.4f", "clouds.BuildInCore baseline", "", out["clouds.incore_build_s"])
	say("tracing overhead: time to model traced %.4f s (median of %d) - untraced %.4f s (median of %d) = %+.1f ms",
		median(toModel), len(toModel), median(refToModel), len(refToModel), out["trace.overhead_ms"])
}
