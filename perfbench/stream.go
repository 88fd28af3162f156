package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	tcpcomm "pclouds/internal/comm/tcp"
	"pclouds/internal/costmodel"
	"pclouds/internal/datagen"
	"pclouds/internal/driver"
	"pclouds/internal/metrics"
	"pclouds/internal/record"
	"pclouds/internal/serve"
	"pclouds/internal/stream"
	"pclouds/internal/tree"
)

// streamHoldout holds every streamHoldout-th record out for scoring.
const streamHoldout = 4

// minWindows is the fewest windows a run times: ten lie beyond the p90.
const minWindows = 100

// session is one 2-rank stream.Run over the tailed file, committing
// streamWindows windows.
type session struct {
	traced bool
	// data is the index of the record file the session tailed.
	data    int
	acc     float64   // final model's test-set accuracy
	setup   float64   // tail open + mesh dial (rank 0)
	windows []float64 // seconds per window (rank 0)
	elapsed float64   // first window start until Run returned
	ready   []float64 // ms, model file seen until the registry serves it
	res     [2]*stream.Result
	attempt int
	meshUp  [2]float64
	source  [2]time.Duration
	comm    [2]*commTimes
	// bad lists published models that failed to load.
	bad []string
	// reloadFailures counts the session registry's failed reloads.
	reloadFailures int64
}

type streamEnv struct {
	*runEnv
	test  *record.Dataset
	cfg   stream.Config
	loads []float64 // seconds per published-model load
}

func runStream(env *runEnv) (*result, error) {
	test, err := loadTest(env.dir)
	if err != nil {
		return nil, err
	}
	e := &streamEnv{runEnv: env, test: test, cfg: stream.Config{
		Schema: datagen.Schema(),
		Clouds: clouds.Config{Split: clouds.SplitHist, MinNodeSize: 2, Seed: env.seed},
		// The pcloudsstream defaults, with holdout scoring on.
		WindowRecords: streamWindow,
		MaxWindows:    streamWindows,
		HoldoutEvery:  streamHoldout,
	}}
	res := newResult()
	var sessions []*session
	deadline := time.Now().Add(env.seconds)
	// Sessions cycle through the run's record files; a traced run tails
	// each file untraced and then traced, as builds do. Every run commits
	// at least minWindows untraced windows, enough for a p90 with ten
	// windows beyond it.
	minSessions := (minWindows + streamWindows - 1) / streamWindows
	if env.trace {
		minSessions *= 2
	}
	for i := 0; len(sessions) < minSessions || time.Now().Before(deadline); i++ {
		k, traced := i%env.w.datasets, false
		if env.trace {
			k, traced = (i/2)%env.w.datasets, i%2 == 1
		}
		s, err := e.runSession(i, k, traced)
		if err != nil {
			res.attempted += streamWindows
			res.failed += streamWindows
			fmt.Fprintf(os.Stderr, "perfbench: stream session %d failed: %v\n", i, err)
			if res.failed > 2*streamWindows {
				return nil, fmt.Errorf("stream sessions keep failing: %w", err)
			}
			continue
		}
		res.attempted += streamWindows
		e.check(s, sessions, res)
		sessions = append(sessions, s)
	}

	var untraced, traced []*session
	for _, s := range sessions {
		if s.traced {
			traced = append(traced, s)
		} else {
			untraced = append(untraced, s)
		}
	}
	var setup, windows, ready, rate, accs []float64
	for _, s := range untraced {
		accs = append(accs, s.acc)
		setup = append(setup, s.setup)
		windows = append(windows, scale(s.windows, 1e3)...)
		ready = append(ready, s.ready...)
		rate = append(rate, float64(e.cfg.WindowRecords*streamWindows)/s.elapsed)
	}
	final := sessions[0].res[0]
	acc := median(accs)
	w := summarize(windows)
	p90, _ := percentile(windows, 90)
	res.e2e["setup_s"] = median(setup)
	res.e2e["latency_p50_ms"] = w.Median
	res.e2e["throughput_per_s"] = median(rate)
	res.e2e["model_accuracy"] = acc

	say("stream: %d ranks over loopback TCP tailing %d v2 record files in turn, %d windows of %d records per session, split=hist, holdout 1 in %d, checkpoints and publish on",
		2, env.w.datasets, streamWindows, streamWindow, streamHoldout)
	say("  sessions              %d", len(untraced))
	say("  setup_s               %s", summarize(setup))
	say("  window_ms             %s", w)
	say("  window_p50_ms         %.4f (n=%d)", w.Median, w.N)
	say("  window_p90_ms         %.4f (n=%d, %d beyond)", p90, len(windows), beyond(len(windows), 90))
	say("  stream_records_per_s  %s", summarize(rate))
	say("  publish_ready_ms      %s", summarize(ready))
	say("  holdout_error         %.4f (file 0, engine's last window; %d held-out records in the session)", final.Stats.HoldoutErr, final.Stats.HoldoutRecords)
	say("  model_accuracy        %s on %d held-out records (final models)", summarize(accs), test.Len())
	if env.trace {
		e.report(res, untraced, traced)
	}
	return res, nil
}

// check verifies a session: both ranks end with the same tree, which is
// the tree of the file's first session, the committed window count is the
// requested one, and every published model loads.
func (e *streamEnv) check(s *session, prev []*session, res *result) {
	a, b := s.res[0], s.res[1]
	if a.Tree == nil || b.Tree == nil || !tree.Equal(a.Tree, b.Tree) {
		res.wrongf("stream: ranks ended with different trees")
	}
	for _, p := range prev {
		if p.data == s.data {
			if !tree.Equal(p.res[0].Tree, a.Tree) {
				res.wrongf("stream: file %d: final tree differs from its first session's (traced=%v)", s.data, s.traced)
			}
			break
		}
	}
	for r, x := range s.res {
		if x.Stats.Windows != streamWindows {
			res.wrongf("stream: rank %d committed %d windows, want %d", r, x.Stats.Windows, streamWindows)
		}
	}
	for _, b := range s.bad {
		res.wrongf("stream: %s", b)
	}
}

// runSession runs one stream session and checks its published models.
func (e *streamEnv) runSession(i, k int, traced bool) (*session, error) {
	dir := e.path(fmt.Sprintf("session%d", i))
	defer os.RemoveAll(dir)
	pubDir := filepath.Join(dir, "models")
	if err := os.MkdirAll(pubDir, 0o755); err != nil {
		return nil, err
	}
	addrs, err := freeAddrs(2)
	if err != nil {
		return nil, err
	}
	s := &session{traced: traced, data: k}
	runtime.GC()
	order := newRankOrder()
	stopWatch := e.watchPublish(pubDir, s, traced)
	start := time.Now()
	var end time.Time
	var src0 *windowSource
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var ln *lane
			if traced {
				ln = e.tr.lane(fmt.Sprintf("rank %d", r))
				s.comm[r] = &commTimes{}
			}
			cfg := e.cfg
			cfg.CheckpointDir = filepath.Join(dir, "ckpt")
			if r == 0 {
				cfg.PublishDir = pubDir
			}
			var src *windowSource
			var stageEnd time.Time
			lres, err := driver.Loop(driver.LoopConfig{
				Rank: r, Addrs: addrs,
				Comm: tcpcomm.Config{Params: costmodel.Zero(), DialTimeout: 30 * time.Second},
				Stage: func(int) error {
					if src != nil {
						src.Close()
					}
					ts, err := stream.TailFile(cfg.Schema, e.path(dataFile(k)), stream.TailOptions{Limit: int64(e.w.records)})
					if err != nil {
						return err
					}
					cfg.SourceChecksum = ts.HeaderChecksum()
					src = &windowSource{inner: ts, windowSize: int64(cfg.WindowRecords), timed: traced}
					order.staged(r)
					stageEnd = time.Now()
					return nil
				},
				OnAttempt: func(*tcpcomm.Comm) {
					now := time.Now()
					s.meshUp[r] = now.Sub(stageEnd).Seconds()
					ln.done("driver.mesh_up", ln.now()-s.meshUp[r])
					if r == 0 {
						s.setup = now.Sub(start).Seconds()
					}
				},
			}, func(c *tcpcomm.Comm, attempt int) error {
				var cc comm.Communicator = c
				if traced {
					cc = &tracedComm{inner: c, lane: ln, times: s.comm[r]}
				}
				res, err := stream.Run(cfg, cc, src)
				s.res[r] = res
				return err
			})
			if src != nil {
				src.Close()
				s.source[r] = src.busy
			}
			if err != nil {
				order.release()
				errs[r] = fmt.Errorf("rank %d: %w", r, err)
				return
			}
			if r == 0 {
				end = time.Now()
				src0 = src
				s.attempt = lres.Attempts
			}
		}(r)
	}
	wg.Wait()
	stopWatch()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	starts := append(src0.starts, end)
	for k := 1; k < len(starts); k++ {
		s.windows = append(s.windows, starts[k].Sub(starts[k-1]).Seconds())
	}
	s.elapsed = end.Sub(starts[0]).Seconds()
	if s.res[0].Tree != nil {
		s.acc = metrics.Accuracy(s.res[0].Tree, e.test)
	}

	// Every published model must load.
	var lane *lane
	if traced {
		lane = e.tr.lane("registry")
	}
	names, err := os.ReadDir(pubDir)
	if err != nil {
		return nil, err
	}
	published := 0
	for _, n := range names {
		if !isModelFile(n.Name()) {
			continue
		}
		published++
		s0 := lane.now()
		t0 := time.Now()
		t, err := tree.LoadFile(filepath.Join(pubDir, n.Name()))
		d := time.Since(t0).Seconds()
		lane.done("tree.load", s0)
		if err == nil {
			err = t.Validate()
		}
		if err != nil {
			s.bad = append(s.bad, fmt.Sprintf("published model %s: %v", n.Name(), err))
			continue
		}
		if traced {
			e.loads = append(e.loads, d)
		}
	}
	if published != s.res[0].Stats.Published {
		s.bad = append(s.bad, fmt.Sprintf("%d model files for %d publishes", published, s.res[0].Stats.Published))
	}
	return s, nil
}

func isModelFile(name string) bool {
	return strings.HasPrefix(name, "model-w") && !strings.Contains(name, ".tmp-")
}

// watchPublish polls the publish directory. When a new model file shows
// up, it reloads the session's registry and times how long until the
// registry serves that file. The returned function stops the watcher.
func (e *streamEnv) watchPublish(dir string, s *session, traced bool) func() {
	var ln *lane
	if traced {
		ln = e.tr.lane("registry")
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var reg *serve.Registry
		seen := map[string]bool{}
		for {
			select {
			case <-stop:
				if reg != nil {
					s.reloadFailures = reg.ReloadFailures()
				}
				return
			case <-time.After(time.Millisecond):
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				continue
			}
			var fresh []string
			for _, en := range entries {
				if name := en.Name(); isModelFile(name) && !seen[name] {
					seen[name] = true
					fresh = append(fresh, name)
				}
			}
			if len(fresh) == 0 {
				continue
			}
			sort.Strings(fresh)
			want := fresh[len(fresh)-1]
			t0, s0 := time.Now(), ln.now()
			if reg == nil {
				reg, err = serve.OpenRegistry(dir)
			} else {
				_, _, err = reg.Reload()
			}
			ln.done("serve.reload", s0)
			if err == nil && reg.Active().Info.Version == want {
				s.ready = append(s.ready, 1e3*time.Since(t0).Seconds())
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

// report fills the stream per-layer metrics from the traced sessions.
func (e *streamEnv) report(res *result, untraced, traced []*session) {
	e.tr.analyse()
	out := res.layer
	n := float64(len(traced))
	var stats []comm.Stats
	var times []*commTimes
	var tw, uw []float64
	for _, s := range traced {
		tw = append(tw, scale(s.windows, 1e3)...)
		for r := 0; r < 2; r++ {
			st := s.res[r].Stats
			stats = append(stats, st.Comm)
			times = append(times, s.comm[r])
			out["stream.source_s"] += s.source[r].Seconds() / (2 * n)
			out["stream.sketch_bytes"] += float64(st.SketchBytes) / n
			out["driver.mesh_up_s"] += s.meshUp[r] / (2 * n)
		}
		st := s.res[0].Stats
		out["stream.refreshes"] += float64(st.Refreshes) / n
		out["stream.grown"] += float64(st.Grown) / n
		out["stream.published"] += float64(st.Published) / n
		out["stream.gate_skips"] += float64(st.GateSkips) / n
		out["stream.drift_fires"] += float64(st.DriftFires) / n
		out["driver.attempts"] += float64(s.attempt) / n
		out["serve.reload_failures"] += float64(s.reloadFailures)
	}
	for _, s := range untraced {
		uw = append(uw, scale(s.windows, 1e3)...)
	}
	commLayer(out, stats, times, n)
	var reloads []float64
	for _, sp := range e.tr.spansNamed("serve.reload") {
		reloads = append(reloads, sp.End-sp.Start)
	}
	out["serve.reload_s"] = mean(reloads)
	out["tree.load_s"] = mean(e.loads)
	final := traced[0].res[0].Tree
	out["tree.nodes"] = float64(final.NumNodes())
	out["tree.depth"] = float64(final.Depth())
	out["tree.classify_ns_per_row"] = classifyNsPerRow(final, e.test.Records)
	ds, err := record.LoadFile(datagen.Schema(), e.path(dataFile(0)))
	if err != nil {
		res.wrongf("kernels: reading the stream file: %v", err)
		return
	}
	kcfg := e.cfg.Clouds
	kcfg.QRoot = 200
	for k, v := range kernelTimings(ds, kcfg, kcfg.SampleFor(ds)) {
		out[k] = v
	}
	out["trace.overhead_ms"] = median(tw) - median(uw)
	say("tracing overhead: window p50 traced %.4f ms (n=%d) - untraced %.4f ms (n=%d) = %+.4f ms",
		median(tw), len(tw), median(uw), len(uw), out["trace.overhead_ms"])
}
