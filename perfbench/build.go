package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pclouds/internal/comm"
	tcpcomm "pclouds/internal/comm/tcp"
	"pclouds/internal/costmodel"
	"pclouds/internal/datagen"
	"pclouds/internal/driver"
	"pclouds/internal/metrics"
	"pclouds/internal/obs"
	"pclouds/internal/ooc"
	"pclouds/internal/pclouds"
	"pclouds/internal/record"
	"pclouds/internal/serve"
	"pclouds/internal/tree"
)

// rankStart is how long rank 0 waits after rank 1 has staged before it
// dials, so rank 1 is listening and the dial does not fall into the
// transport's 20 ms retry sleep: the same order as starting the non-zero
// ranks first.
const rankStart = 300 * time.Microsecond

// rankOrder holds rank 0 back until rank 1 has staged.
type rankOrder struct {
	ch   chan struct{}
	once sync.Once
}

func newRankOrder() *rankOrder { return &rankOrder{ch: make(chan struct{})} }

// staged is called by each rank once its local state is staged, right
// before it dials the mesh.
func (o *rankOrder) staged(r int) {
	if r != 0 {
		o.release()
		return
	}
	<-o.ch
	sleepPrecise(rankStart)
}

// release lets rank 0 go; a failing rank 1 calls it too.
func (o *rankOrder) release() { o.once.Do(func() { close(o.ch) }) }

// buildOp is one build: record-file open on both ranks until rank 0 has
// durably saved the model.
type buildOp struct {
	traced bool
	// data is the index of the record file the build read.
	data    int
	acc     float64   // test-set accuracy
	setup   float64   // record-file open until the mesh is up (rank 0)
	toModel float64   // record-file open until the model is saved
	ready   []float64 // model saved until a registry serves it, per registry
	tree    *tree.Tree
	trees   [2]*tree.Tree
	stats   [2]*pclouds.Stats
	meshUp  [2]float64
	// attempts counts driver build attempts (rank 0).
	attempts int
	mallocs  uint64
	comm     [2]*commTimes
	backend  [2]*backendTimes
	io       [2]ooc.IOStats
	integ    [2]ooc.IntegrityStats
	// bad lists wrong outputs of the publish step.
	bad []string
}

type buildEnv struct {
	*runEnv
	test     *record.Dataset
	modelDir string
}

// publishReps is how many fresh registries time each build's publish, so
// a run's publish latency rests on more samples than it has builds.
const publishReps = 5

func runBuild(env *runEnv) (*result, error) {
	test, err := loadTest(env.dir)
	if err != nil {
		return nil, err
	}
	b := &buildEnv{runEnv: env, test: test, modelDir: env.path("models")}
	if err := os.MkdirAll(b.modelDir, 0o755); err != nil {
		return nil, err
	}
	res := newResult()
	var ops []*buildOp
	// Builds cycle through the run's record files. A traced run builds
	// each file untraced and then traced: the untraced build is the
	// reference for the traced one's tree and traffic, and for the tracing
	// overhead.
	deadline := time.Now().Add(env.seconds)
	for i := 0; len(ops) < 1+boolInt(env.trace) || time.Now().Before(deadline); i++ {
		res.attempted++
		k, traced := i%env.w.datasets, false
		if env.trace {
			k, traced = (i/2)%env.w.datasets, i%2 == 1
		}
		op, err := b.runOp(i, k, traced)
		if err != nil {
			res.failed++
			fmt.Fprintf(os.Stderr, "perfbench: build %d failed: %v\n", i, err)
			if res.failed > 2 {
				return nil, fmt.Errorf("builds keep failing: %w", err)
			}
			continue
		}
		b.check(op, ops, res)
		ops = append(ops, op)
	}

	var untraced, traced []*buildOp
	for _, op := range ops {
		if op.traced {
			traced = append(traced, op)
		} else {
			untraced = append(untraced, op)
		}
	}
	var setup, toModel, rate, ready, accs []float64
	for _, op := range untraced {
		setup = append(setup, op.setup)
		toModel = append(toModel, op.toModel)
		rate = append(rate, float64(env.w.records)/(op.toModel-op.setup))
		ready = append(ready, op.ready...)
		accs = append(accs, op.acc)
	}
	acc := median(accs)
	res.e2e["setup_s"] = median(setup)
	res.e2e["latency_p50_ms"] = 1e3 * median(toModel)
	res.e2e["throughput_per_s"] = median(rate)
	res.e2e["model_accuracy"] = acc

	say("build %s: %d record files of %d records, %d ranks over loopback TCP, split=sse, integrity=%v, checkpoints=%v",
		env.w.name, env.w.datasets, env.w.records, 2, env.w.integrity, env.w.checkpoints)
	for _, op := range untraced[:min(len(untraced), env.w.datasets)] {
		say("  tree of file %d: %s", op.data, metrics.Summarize(op.tree))
	}
	say("  setup_s           %s", summarize(setup))
	say("  time_to_model_s   %s", summarize(toModel))
	say("  build_rows_per_s  %s", summarize(rate))
	say("  publish_ready_ms  %s", summarize(scale(ready, 1e3)))
	say("  model_accuracy    %s on %d held-out records", summarize(accs), test.Len())
	if env.trace {
		b.report(res, untraced, traced)
	}
	return res, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// check verifies one build's outputs: both ranks built the same valid
// tree, the saved model round-trips and the registry serves it, and a
// build of a file built before (untraced, or traced as a traced run does)
// matches the first build of that file in tree and traffic.
func (b *buildEnv) check(op *buildOp, prev []*buildOp, res *result) {
	if !tree.Equal(op.trees[0], op.trees[1]) {
		res.wrongf("build: ranks 0 and 1 built different trees")
	}
	if err := op.tree.Validate(); err != nil {
		res.wrongf("build: invalid tree: %v", err)
	}
	for _, bad := range op.bad {
		res.wrongf("build: %s", bad)
	}
	for _, ref := range prev {
		if ref.data != op.data {
			continue
		}
		if !tree.Equal(ref.tree, op.tree) {
			res.wrongf("build: file %d: tree differs from its first build (traced=%v)", op.data, op.traced)
		}
		if a, b := buildBytes(ref), buildBytes(op); a != b {
			res.wrongf("build: file %d: comm bytes %d differ from its first build's %d (traced=%v)", op.data, b, a, op.traced)
		}
		break
	}
}

// buildBytes is the build's traffic summed over ranks, as pclouds.Stats
// records it (the merged trace report's gather is outside it).
func buildBytes(op *buildOp) int64 {
	return op.stats[0].Comm.BytesSent + op.stats[1].Comm.BytesSent
}

// nextPort numbers the loopback ports handed to meshes.
var nextPort atomic.Int64

// freeAddrs picks n free loopback addresses for a fresh mesh. The ports
// lie below the kernel's ephemeral range (32768 and up on Linux), so an
// outgoing connection cannot take one between the check here and the
// rank's listen.
func freeAddrs(n int) ([]string, error) {
	var addrs []string
	for tries := 0; len(addrs) < n && tries < 1000; tries++ {
		port := 20000 + (int64(os.Getpid())+nextPort.Add(1))%12000
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			continue
		}
		ln.Close()
		addrs = append(addrs, addr)
	}
	if len(addrs) < n {
		return nil, errors.New("no free loopback ports")
	}
	return addrs, nil
}

// runOp runs one 2-rank build, saves the model and publishes it to the
// registry.
func (b *buildEnv) runOp(i, k int, traced bool) (*buildOp, error) {
	opDir := b.path(fmt.Sprintf("op%d", i))
	defer os.RemoveAll(opDir)
	addrs, err := freeAddrs(2)
	if err != nil {
		return nil, err
	}
	op := &buildOp{traced: traced, data: k}
	// Collect the previous build's garbage now, so it is not charged to
	// this one.
	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	order := newRankOrder()
	modelPath := filepath.Join(b.modelDir, fmt.Sprintf("model-%04d.tree", i))
	var savedAt time.Time
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var ln *lane
			if traced {
				ln = b.tr.lane(fmt.Sprintf("rank %d", r))
			}
			t, err := b.rank(r, addrs, filepath.Join(opDir, fmt.Sprintf("rank%d", r)), op, ln, func() { order.staged(r) }, start)
			if err != nil {
				order.release()
				errs[r] = fmt.Errorf("rank %d: %w", r, err)
				return
			}
			op.trees[r] = t
			if r == 0 {
				s0 := ln.now()
				err := tree.SaveFile(t, modelPath)
				ln.done("tree.save", s0)
				savedAt = time.Now()
				if err != nil {
					errs[r] = fmt.Errorf("saving model: %w", err)
				}
			}
		}(r)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	op.mallocs = ms1.Mallocs - ms0.Mallocs
	op.tree = op.trees[0]
	op.toModel = savedAt.Sub(start).Seconds()
	op.acc = metrics.Accuracy(op.tree, b.test)

	// Publish: a registry opened on the model directory picks the newest
	// model file up. Each timing starts from a collected heap: the build's
	// garbage is not the registry's to collect.
	var reg *lane
	if traced {
		reg = b.tr.lane("registry")
	}
	for k := 0; k < publishReps; k++ {
		runtime.GC()
		t0, s0 := time.Now(), reg.now()
		r, err := serve.OpenRegistry(b.modelDir)
		reg.done("serve.reload", s0)
		if err != nil {
			return nil, fmt.Errorf("publishing model: %w", err)
		}
		op.ready = append(op.ready, time.Since(t0).Seconds())
		if v := r.Active().Info.Version; v != filepath.Base(modelPath) {
			op.bad = append(op.bad, fmt.Sprintf("registry serves %s, want %s", v, filepath.Base(modelPath)))
		}
	}

	s0 := reg.now()
	back, err := tree.LoadFile(modelPath)
	reg.done("tree.load", s0)
	if err != nil || !tree.Equal(back, op.tree) {
		op.bad = append(op.bad, fmt.Sprintf("saved model does not round-trip (%v)", err))
	}
	// Keep only the newest model: the registry's scan stays the same size
	// on every build.
	if i > 0 {
		os.Remove(filepath.Join(b.modelDir, fmt.Sprintf("model-%04d.tree", i-1)))
	}
	return op, nil
}

// rank runs one rank of a build: load the record file, stage this rank's
// share into a file-backed store, bring up the mesh and build.
func (b *buildEnv) rank(r int, addrs []string, dir string, op *buildOp, ln *lane, staged func(), start time.Time) (*tree.Tree, error) {
	schema := datagen.Schema()
	trainPath := b.path(dataFile(op.data))
	cfg := b.w.cloudsConfig(dataSeed(b.seed, op.data))
	s0 := ln.now()
	full, err := record.LoadFile(schema, trainPath)
	ln.done("record.load", s0)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	hdr, _, err := record.SniffHeader(trainPath)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	sample := cfg.SampleFor(full)
	stage := func(store *ooc.Store) error {
		w, err := store.CreateWriter("root")
		if err != nil {
			return err
		}
		for i := r; i < full.Len(); i += len(addrs) {
			if err := w.Write(full.Records[i]); err != nil {
				w.Close()
				return err
			}
		}
		return w.Close()
	}
	bc := pclouds.Config{
		Clouds:       cfg,
		Integrity:    b.w.integrity,
		DataChecksum: hdr.CRC,
		Warnf:        func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
	}
	if b.w.checkpoints {
		bc.CheckpointDir = filepath.Join(dir, "ckpt")
	}
	tc := tcpcomm.Config{Params: costmodel.Zero(), DialTimeout: 30 * time.Second}
	var stageEnd time.Time
	meshUp := func(*tcpcomm.Comm) {
		now := time.Now()
		op.meshUp[r] = now.Sub(stageEnd).Seconds()
		if r == 0 {
			op.setup = now.Sub(start).Seconds()
		}
		ln.done("driver.mesh_up", ln.now()-op.meshUp[r])
	}
	newStore := func(params costmodel.Params, clock *costmodel.Clock) (*ooc.Store, error) {
		store, err := ooc.NewFileStore(schema, filepath.Join(dir, "store"), params, clock)
		if err != nil {
			return nil, err
		}
		if ln != nil {
			op.backend[r] = &backendTimes{}
			store.WrapBackend(func(inner ooc.Backend) ooc.Backend {
				return &tracedBackend{inner: inner, lane: ln, times: op.backend[r]}
			})
		}
		if b.w.integrity {
			store.EnableIntegrity(ooc.IntegrityOptions{})
		}
		return store, nil
	}
	finish := func(store *ooc.Store, st *pclouds.Stats) {
		op.stats[r] = st
		op.io[r] = store.Stats()
		if vb := store.Integrity(); vb != nil {
			op.integ[r] = vb.Stats()
		}
	}

	if ln == nil {
		store, err := newStore(costmodel.Zero(), nil)
		if err != nil {
			return nil, err
		}
		res, err := driver.RunRank(driver.Config{
			Rank: r, Addrs: addrs, Comm: tc, Build: bc, Store: store, Sample: sample,
			Stage: func(s *ooc.Store) error {
				err := stage(s)
				staged()
				stageEnd = time.Now()
				return err
			},
			OnAttempt: meshUp,
		})
		if err != nil {
			return nil, err
		}
		if r == 0 {
			op.attempts = res.Attempts
		}
		finish(store, res.Stats)
		return res.Tree, nil
	}

	// Traced: the same build through driver.Loop, with the communicator
	// and the store's medium wrapped. The mesh and the store charge the
	// paper's cost model to the rank's simulated clock, so every phase
	// span carries its Table 1 prediction; the store is therefore created
	// and staged once the mesh (and its clock) exists.
	tc.Params = costmodel.Default()
	bc.CPUPerRecord = costmodel.Default().CPURecord
	recEpoch := ln.now()
	rec := obs.New(r)
	bc.Trace = rec
	op.comm[r] = &commTimes{}
	var t *tree.Tree
	lres, err := driver.Loop(driver.LoopConfig{
		Rank: r, Addrs: addrs, Comm: tc,
		Stage: func(int) error {
			staged()
			stageEnd = time.Now()
			return nil
		},
		OnAttempt: meshUp,
	}, func(c *tcpcomm.Comm, attempt int) error {
		store, err := newStore(costmodel.Default(), c.Clock())
		if err != nil {
			return err
		}
		s0 := ln.now()
		err = stage(store)
		ln.done("ooc.stage", s0)
		if err != nil {
			return err
		}
		// The same resume setting driver.RunRank uses, so the traced build
		// runs the same collectives as the untraced one.
		bc := bc
		bc.ResumeAuto = bc.CheckpointDir != ""
		tr, st, err := pclouds.Build(bc, &tracedComm{inner: c, lane: ln, times: op.comm[r]}, store, "root", sample)
		if err != nil {
			return err
		}
		t = tr
		finish(store, st)
		return nil
	})
	ln.importObs(rec, recEpoch)
	if err != nil {
		return nil, err
	}
	if r == 0 {
		op.attempts = lres.Attempts
	}
	return t, nil
}

// commClasses lists the traffic classes the per-layer report breaks out.
var commClasses = []comm.OpClass{comm.OpP2P, comm.OpBarrier, comm.OpBroadcast, comm.OpGather,
	comm.OpAllGather, comm.OpAllToAll, comm.OpReduce, comm.OpScan, comm.OpMinLoc, comm.OpScatter}
