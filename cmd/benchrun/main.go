// Command benchrun measures the repo's fixed-seed build and serve
// benchmarks and appends one snapshot to the performance trajectory: a
// schema-versioned BENCH_<n>.json (see internal/benchfmt) that cmd/benchdiff
// compares against the previous snapshot.
//
// The build benchmark runs the real SPMD pCLOUDS algorithm on simulated
// ranks with the async I/O pipeline on, so one run yields both the
// deterministic paper metrics (simulated seconds, bytes on the wire,
// records shipped — gated) and host-dependent context (rows/s, io-wait —
// informational). The serve benchmark drives the prediction engine with the
// built tree for a fixed window.
//
// The split benchmark series builds the same workload under each
// split-finding protocol (sse, hist, vote) at 4, 16, and 64 simulated ranks
// and records each protocol's split-derivation traffic, so the trajectory
// tracks the communication saving the quantized protocols buy.
//
// The stream-drift series (skipped in -quick) streams a concept-flipping
// generator through the holdout-gated pipeline and records detection
// latency and gate rejections — informational robustness context.
//
// Usage:
//
//	benchrun [-out .] [-index auto] [-records 20000] [-procs 4] [-quick]
//	benchrun -validate BENCH_6.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"pclouds/internal/benchfmt"
	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
	"pclouds/internal/datagen"
	"pclouds/internal/experiments"
	"pclouds/internal/ooc"
	"pclouds/internal/record"
	"pclouds/internal/serve"
	"pclouds/internal/stream"
	"pclouds/internal/tree"
)

func main() {
	var (
		out      = flag.String("out", ".", "directory holding the BENCH_<n>.json trajectory")
		index    = flag.String("index", "auto", `trajectory index to write ("auto" = one past the newest in -out)`)
		records  = flag.Int("records", 20000, "training records for the build benchmark")
		procs    = flag.Int("procs", 4, "simulated ranks for the build benchmark")
		seed     = flag.Int64("seed", 1, "generation and sampling seed (fixed across snapshots)")
		loadDur  = flag.Duration("load-duration", 2*time.Second, "serve benchmark window")
		quick    = flag.Bool("quick", false, "shrink the workload for a smoke run (smaller data, shorter load)")
		note     = flag.String("note", "", "free-form provenance recorded in the snapshot")
		validate = flag.String("validate", "", "validate an existing trajectory file and exit")
	)
	flag.Parse()

	if *validate != "" {
		f, err := benchfmt.Read(*validate)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("ok: %s (schema %d, index %d, %d benchmarks)\n",
			*validate, f.SchemaVersion, f.Index, len(f.Benchmarks))
		return
	}

	if *quick {
		*records = min(*records, 4000)
		if *loadDur > 500*time.Millisecond {
			*loadDur = 500 * time.Millisecond
		}
		if *note == "" {
			*note = "quick"
		}
	}
	idx, err := resolveIndex(*index, *out)
	if err != nil {
		fatal(err)
	}

	f, err := runAll(idx, *records, *procs, *seed, *loadDur, *note, *quick)
	if err != nil {
		fatal(err)
	}
	path, err := benchfmt.Write(*out, f)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("trajectory snapshot written to %s\n", path)
	for _, b := range f.Benchmarks {
		for _, m := range b.Metrics {
			gate := ""
			if m.Gate {
				gate = " [gate]"
			}
			fmt.Printf("  %s/%s = %g %s%s\n", b.Name, m.Name, m.Value, m.Unit, gate)
		}
	}
}

// resolveIndex turns the -index flag into a concrete trajectory index:
// "auto" (or the pre-string-flag spelling "0") discovers the highest
// existing BENCH_<n>.json in dir and picks one past it; anything else must
// be a positive integer.
func resolveIndex(s, dir string) (int, error) {
	if s == "" || s == "auto" || s == "0" {
		existing, err := benchfmt.Indices(dir)
		if err != nil {
			return 0, err
		}
		if len(existing) == 0 {
			return 1, nil
		}
		return existing[len(existing)-1] + 1, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf(`-index %q: want a positive integer or "auto"`, s)
	}
	return n, nil
}

func runAll(index, records, procs int, seed int64, loadDur time.Duration, note string, quick bool) (*benchfmt.File, error) {
	h := experiments.DefaultHarness()
	h.Seed = seed
	h.Pipeline = ooc.Pipeline{Enabled: true}
	data, sample, err := h.Generate(records)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}

	fmt.Fprintf(os.Stderr, "benchrun: build: %d records, %d ranks, seed %d\n", records, procs, seed)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := h.Run(data, sample, procs)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	runtime.ReadMemStats(&after)
	var shipped int64
	for _, s := range res.Stats {
		shipped += s.RecordsShipped
	}
	build := benchfmt.Benchmark{
		Name: fmt.Sprintf("build/p%d", procs),
		Metrics: []benchfmt.Metric{
			{Name: "sim_seconds", Value: res.SimTime, Unit: "s", Better: benchfmt.LowerIsBetter, Gate: true},
			{Name: "comm_bytes", Value: float64(res.TotalComm.BytesSent), Unit: "B", Better: benchfmt.LowerIsBetter, Gate: true},
			{Name: "records_shipped", Value: float64(shipped), Unit: "records", Better: benchfmt.LowerIsBetter, Gate: true},
			{Name: "allocs_per_row", Value: float64(after.Mallocs-before.Mallocs) / float64(records), Unit: "allocs", Better: benchfmt.LowerIsBetter, Gate: true},
			{Name: "rows_per_sec", Value: float64(records) / res.WallTime.Seconds(), Unit: "rows/s", Better: benchfmt.HigherIsBetter},
			{Name: "io_wait_seconds", Value: res.TotalIO.WaitSec, Unit: "s", Better: benchfmt.LowerIsBetter},
		},
	}

	fmt.Fprintf(os.Stderr, "benchrun: serve: driving the engine for %s\n", loadDur)
	model, err := serve.NewModel(res.Tree, "bench")
	if err != nil {
		return nil, fmt.Errorf("serve model: %w", err)
	}
	srv := serve.New(serve.NewStaticRegistry(model), serve.ServerConfig{})
	defer srv.Engine().Close()
	rep, err := serve.RunLoad(context.Background(), serve.EngineTarget{Engine: srv.Engine()}, serve.LoadConfig{
		Duration:    loadDur,
		Concurrency: 8,
		BatchRows:   64,
		Seed:        seed,
	})
	if err != nil {
		return nil, fmt.Errorf("serve load: %w", err)
	}
	if rep.Errors > 0 {
		return nil, fmt.Errorf("serve load: %d errored requests", rep.Errors)
	}
	load := benchfmt.Benchmark{
		Name: "serve/engine",
		Metrics: []benchfmt.Metric{
			{Name: "rows_per_sec", Value: rep.RowsPerSec(), Unit: "rows/s", Better: benchfmt.HigherIsBetter},
			{Name: "p99_latency_seconds", Value: rep.P99.Seconds(), Unit: "s", Better: benchfmt.LowerIsBetter},
			{Name: "shed_requests", Value: float64(rep.Shed), Unit: "requests", Better: benchfmt.LowerIsBetter},
		},
	}

	benches := []benchfmt.Benchmark{build, load}
	split, err := splitComparison(h, data, sample, quick)
	if err != nil {
		return nil, err
	}
	benches = append(benches, split...)
	sb, err := streamBench(seed, quick)
	if err != nil {
		return nil, err
	}
	benches = append(benches, sb)
	if !quick {
		sd, err := streamDriftBench(seed)
		if err != nil {
			return nil, err
		}
		benches = append(benches, sd)
		ib, err := integrityBench(h, data, sample, procs)
		if err != nil {
			return nil, err
		}
		benches = append(benches, ib)
	}

	return &benchfmt.File{
		SchemaVersion: benchfmt.SchemaVersion,
		Index:         index,
		GoVersion:     runtime.Version(),
		Note:          note,
		Benchmarks:    benches,
	}, nil
}

// splitComparison builds the benchmark workload once per split-finding
// protocol and rank count and records each run's split-derivation traffic
// (the comm.Stats delta attributed to splitting-point derivation). The
// full run covers sse/hist/vote at 4, 16, and 64 ranks and prints the
// bytes-on-the-wire comparison table; quick mode runs the single hist case
// that smoke-tests the quantized-protocol path.
func splitComparison(h experiments.Harness, data *record.Dataset, sample []record.Record, quick bool) ([]benchfmt.Benchmark, error) {
	procs := []int{4, 16, 64}
	methods := []clouds.SplitMethod{clouds.SplitSSE, clouds.SplitHist, clouds.SplitVote}
	if quick {
		procs = []int{4}
		methods = []clouds.SplitMethod{clouds.SplitHist}
	}
	bytes := make(map[string]map[int]int64)
	var benches []benchfmt.Benchmark
	for _, p := range procs {
		for _, m := range methods {
			hm := h
			hm.Split = m
			fmt.Fprintf(os.Stderr, "benchrun: split: %s at %d ranks\n", m, p)
			res, err := hm.Run(data, sample, p)
			if err != nil {
				return nil, fmt.Errorf("split %s/p%d: %w", m, p, err)
			}
			if bytes[m.String()] == nil {
				bytes[m.String()] = make(map[int]int64)
			}
			bytes[m.String()][p] = res.TotalSplitComm.BytesSent
			benches = append(benches, benchfmt.Benchmark{
				Name: fmt.Sprintf("split/%s/p%d", m, p),
				Metrics: []benchfmt.Metric{
					{Name: "split_comm_bytes", Value: float64(res.TotalSplitComm.BytesSent), Unit: "B", Better: benchfmt.LowerIsBetter, Gate: true},
					{Name: "comm_bytes", Value: float64(res.TotalComm.BytesSent), Unit: "B", Better: benchfmt.LowerIsBetter},
					{Name: "sim_seconds", Value: res.SimTime, Unit: "s", Better: benchfmt.LowerIsBetter},
				},
			})
		}
	}
	if !quick {
		fmt.Printf("split-derivation bytes on the wire (sum over ranks, lower is better):\n")
		fmt.Printf("  %5s %12s %12s %12s\n", "ranks", "sse", "hist", "vote")
		for _, p := range procs {
			fmt.Printf("  %5d %12d %12d %12d\n", p,
				bytes[clouds.SplitSSE.String()][p],
				bytes[clouds.SplitHist.String()][p],
				bytes[clouds.SplitVote.String()][p])
		}
	}
	return benches, nil
}

// streamBench runs the windowed streaming pipeline on 4 simulated ranks
// (6 windows full, 3 quick) with a registry watcher polling the publish
// directory, and records the sketch-merge traffic (deterministic —
// gated), the ingest rate, and the publish-to-ready latency: how long a
// freshly published window's model takes to become the served version.
func streamBench(seed int64, quick bool) (benchfmt.Benchmark, error) {
	const procs = 4
	windows := 6
	if quick {
		windows = 3
	}
	dir, err := os.MkdirTemp("", "benchrun-stream-")
	if err != nil {
		return benchfmt.Benchmark{}, err
	}
	defer os.RemoveAll(dir)
	cfg := stream.Config{
		Schema: datagen.Schema(),
		Clouds: clouds.Config{
			Split:       clouds.SplitHist,
			HistBins:    8,
			MaxDepth:    8,
			MinNodeSize: 2,
			Seed:        seed,
		},
		WindowRecords:  512,
		SampleEvery:    4,
		ReservoirCap:   2048,
		RefreshEvery:   3,
		GrowMinRecords: 32,
		MaxWindows:     windows,
		PublishDir:     dir,
	}

	// Watcher: poll the publish directory the way pcloudsserve's poller
	// does and record publish-to-ready latency (model mtime to swap
	// observed) for every version that becomes active.
	watchStop := make(chan struct{})
	watchDone := make(chan struct{})
	var readySum time.Duration
	var readyN int
	go func() {
		defer close(watchDone)
		var reg *serve.Registry
		observe := func() {
			if m := reg.Active(); m != nil {
				if lat := time.Since(m.Info.ModTime); lat >= 0 {
					readySum += lat
					readyN++
				}
			}
		}
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-watchStop:
				return
			case <-t.C:
			}
			if reg == nil {
				if r, err := serve.OpenRegistry(dir); err == nil {
					reg = r
					observe()
				}
				continue
			}
			if _, swapped, _ := reg.Reload(); swapped {
				observe()
			}
		}
	}()

	fmt.Fprintf(os.Stderr, "benchrun: stream: %d windows of %d records, %d ranks\n",
		windows, cfg.WindowRecords, procs)
	results := make([]*stream.Result, procs)
	start := time.Now()
	err = comm.Run(procs, costmodel.Zero(), func(c *comm.ChannelComm) error {
		src, err := stream.NewSynthetic(datagen.Config{Function: 2, Seed: 42}, 0)
		if err != nil {
			return err
		}
		defer src.Close()
		res, err := stream.Run(cfg, c, src)
		if err != nil {
			return fmt.Errorf("rank %d: %w", c.Rank(), err)
		}
		results[c.Rank()] = res
		return nil
	})
	wall := time.Since(start)
	close(watchStop)
	<-watchDone
	if err != nil {
		return benchfmt.Benchmark{}, fmt.Errorf("stream/p%d: %w", procs, err)
	}

	var sketchBytes int64
	for _, r := range results {
		sketchBytes += r.Stats.SketchBytes
	}
	ready := 0.0
	if readyN > 0 {
		ready = (readySum / time.Duration(readyN)).Seconds()
	}
	return benchfmt.Benchmark{
		Name: fmt.Sprintf("stream/p%d", procs),
		Metrics: []benchfmt.Metric{
			{Name: "sketch_merge_bytes", Value: float64(sketchBytes), Unit: "B", Better: benchfmt.LowerIsBetter, Gate: true},
			{Name: "records_per_sec", Value: float64(results[0].Stats.Scanned) / wall.Seconds(), Unit: "rows/s", Better: benchfmt.HigherIsBetter},
			{Name: "publish_ready_seconds", Value: ready, Unit: "s", Better: benchfmt.LowerIsBetter},
		},
	}, nil
}

// streamDriftBench runs the drift-defense scenario on 4 simulated ranks:
// a holdout-scored stream whose generator flips concept mid-run. It
// records how many windows the Page-Hinkley detector needed to alarm
// after the flip and how many degraded candidates the publish gate
// rejected. Both are informational — the series characterizes reaction
// latency, it does not gate — and the run is skipped in -quick mode.
// integrityBench measures what the verifying data plane costs: the same
// build back to back with checksums off then on, trees required identical.
// The overhead series is informational, not gating — wall-time ratios are
// too noisy to gate on — with a <5% target; the frame and corruption
// counters pin that every page was actually verified and none failed.
func integrityBench(h experiments.Harness, data *record.Dataset, sample []record.Record, procs int) (benchfmt.Benchmark, error) {
	fmt.Fprintf(os.Stderr, "benchrun: integrity: measuring checksum overhead at %d ranks\n", procs)
	base, err := h.Run(data, sample, procs)
	if err != nil {
		return benchfmt.Benchmark{}, fmt.Errorf("integrity baseline: %w", err)
	}
	hi := h
	hi.Integrity = true
	integ, err := hi.Run(data, sample, procs)
	if err != nil {
		return benchfmt.Benchmark{}, fmt.Errorf("integrity build: %w", err)
	}
	if !tree.Equal(base.Tree, integ.Tree) {
		return benchfmt.Benchmark{}, fmt.Errorf("integrity build produced a different tree")
	}
	var ist ooc.IntegrityStats
	for _, s := range integ.Stats {
		ist.FramesWritten += s.Integrity.FramesWritten
		ist.FramesRead += s.Integrity.FramesRead
		ist.Corruptions += s.Integrity.Corruptions
	}
	if ist.Corruptions > 0 {
		return benchfmt.Benchmark{}, fmt.Errorf("integrity build counted %d corruptions on clean data", ist.Corruptions)
	}
	overhead := (integ.WallTime.Seconds() - base.WallTime.Seconds()) / base.WallTime.Seconds() * 100
	return benchfmt.Benchmark{
		Name: fmt.Sprintf("integrity/p%d", procs),
		Metrics: []benchfmt.Metric{
			{Name: "checksum_overhead_pct", Value: overhead, Unit: "%", Better: benchfmt.LowerIsBetter},
			{Name: "rows_per_sec", Value: float64(data.Len()) / integ.WallTime.Seconds(), Unit: "rows/s", Better: benchfmt.HigherIsBetter},
			{Name: "frames_verified", Value: float64(ist.FramesRead), Unit: "frames", Better: benchfmt.HigherIsBetter},
		},
	}, nil
}

func streamDriftBench(seed int64) (benchfmt.Benchmark, error) {
	const (
		procs      = 4
		windows    = 12
		windowRecs = 400
		flipAt     = 2400 // the window 6/7 boundary: windows 1-6 are stationary
	)
	dir, err := os.MkdirTemp("", "benchrun-stream-drift-")
	if err != nil {
		return benchfmt.Benchmark{}, err
	}
	defer os.RemoveAll(dir)
	cfg := stream.Config{
		Schema: datagen.Schema(),
		Clouds: clouds.Config{
			Split:       clouds.SplitHist,
			HistBins:    8,
			MaxDepth:    8,
			MinNodeSize: 2,
			Seed:        seed,
		},
		WindowRecords:  windowRecs,
		SampleEvery:    1,
		ReservoirCap:   2400,
		RefreshEvery:   100, // the detector, not the schedule, forces refreshes
		GrowMinRecords: 32,
		MaxWindows:     windows,
		HoldoutEvery:   4,
		GateTolerance:  -1, // any regression blocks the publish
		PublishDir:     dir,
	}

	fmt.Fprintf(os.Stderr, "benchrun: stream-drift: %d windows of %d records, concept flip at record %d, %d ranks\n",
		windows, windowRecs, flipAt, procs)
	results := make([]*stream.Result, procs)
	err = comm.Run(procs, costmodel.Zero(), func(c *comm.ChannelComm) error {
		src, err := stream.NewSynthetic(datagen.Config{
			Function: 2, Seed: 42, DriftAfter: flipAt, DriftTo: 5,
		}, 0)
		if err != nil {
			return err
		}
		defer src.Close()
		res, err := stream.Run(cfg, c, src)
		if err != nil {
			return fmt.Errorf("rank %d: %w", c.Rank(), err)
		}
		results[c.Rank()] = res
		return nil
	})
	if err != nil {
		return benchfmt.Benchmark{}, fmt.Errorf("stream-drift/p%d: %w", procs, err)
	}

	st := results[0].Stats
	if st.DriftFires == 0 {
		return benchfmt.Benchmark{}, fmt.Errorf("stream-drift/p%d: detector never fired on a drifting stream", procs)
	}
	firstDrifted := flipAt/windowRecs + 1 // first window containing post-flip records
	return benchfmt.Benchmark{
		Name: fmt.Sprintf("stream-drift/p%d", procs),
		Metrics: []benchfmt.Metric{
			{Name: "windows_to_detection", Value: float64(st.FirstDriftWindow - firstDrifted), Unit: "windows", Better: benchfmt.LowerIsBetter},
			{Name: "gate_rejected_publishes", Value: float64(st.GateSkips), Unit: "publishes", Better: benchfmt.LowerIsBetter},
			{Name: "final_holdout_error", Value: st.HoldoutErr, Unit: "ratio", Better: benchfmt.LowerIsBetter},
		},
	}, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchrun:", err)
	os.Exit(1)
}
