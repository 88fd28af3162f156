package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"pclouds/internal/record"
	"pclouds/internal/serve"
	"pclouds/internal/tree"
)

// Serve workload settings. Load comes from one process over two
// connections as an open loop: nine single-row JSON /v1/classify requests
// to one binary 64-row /v1/classify.bin request, seeded.
const (
	serveConns    = 2
	poolRows      = 4096
	binRows       = 64
	binEvery      = 10 // one request in binEvery is a binary batch
	setupReps     = 9
	nominalRate   = 5000.0 // requests/s
	latencyLimit  = 50.0   // ms, the ladder's p99 limit
	rungSeconds   = 1.0
	swapEvery     = 250 * time.Millisecond
	warmupSeconds = 0.5
	// nominalShare is the share of the run spent at the nominal rate and
	// saturatedShare the share spent saturated; the ladder gets the rest.
	nominalShare   = 0.35
	saturatedShare = 0.25
)

// ladder is the fixed set of arrival rates (requests/s) the ladder climbs:
// coarse steps well below where a 2-core host saturates, then 1500 apart.
var ladder = []float64{6000, 9000, 12000, 13500, 15000, 16500, 18000, 19500, 21000, 22500,
	24000, 26000, 28000, 30000}

type serveEnv struct {
	*runEnv
	res      *result
	modelDir string
	trees    map[string]*tree.Tree
	pool     []record.Record
	expect   map[string][]int32 // version -> class of every pool row
	jsonBody [][]byte           // one single-row JSON body per pool row
	binBody  [][]byte           // one 64-row binary body per pool chunk

	srv     *serve.Server
	hs      *http.Server
	reg     *serve.Registry
	url     string
	clients []*http.Client
	lanes   []*lane // client lanes of the traced phase

	mu        sync.Mutex
	rowsRight int64 // served rows whose class matches the true label
	rowsAll   int64
	pending   swapPending
	swapReady []float64 // ms
}

// swapPending is the latest hot swap: the version written and when.
type swapPending struct {
	version string
	written time.Time
	seen    bool
}

// splitmix is a seeded hash that picks each request's kind and rows.
func splitmix(seed int64, i int) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func runServe(env *runEnv) (*result, error) {
	e := &serveEnv{runEnv: env, res: newResult(), modelDir: env.path("models"), trees: map[string]*tree.Tree{}, expect: map[string][]int32{}}
	if err := os.MkdirAll(e.modelDir, 0o755); err != nil {
		return nil, err
	}
	e.pool = env.w.generator(subSeed(env.seed, 3)).Generate(poolRows).Records
	for _, name := range []string{modelA, modelB} {
		t, err := tree.LoadFile(env.path(name))
		if err != nil {
			return nil, err
		}
		e.trees[name] = t
		classes := make([]int32, len(e.pool))
		for i, r := range e.pool {
			classes[i] = t.Classify(r)
		}
		e.expect[name] = classes
	}
	for _, r := range e.pool {
		body, err := json.Marshal(map[string]any{"num": r.Num, "cat": r.Cat})
		if err != nil {
			return nil, err
		}
		e.jsonBody = append(e.jsonBody, body)
	}
	for c := 0; c+binRows <= len(e.pool); c += binRows {
		var body []byte
		for _, r := range e.pool[c : c+binRows] {
			body = r.EncodeFeatures(body)
		}
		e.binBody = append(e.binBody, body)
	}
	if err := tree.SaveFile(e.trees[modelA], e.path("models/"+modelA)); err != nil {
		return nil, err
	}

	// Set up several times, each from a collected heap, and keep the last
	// server.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if e.hs != nil {
			e.shutdown()
		}
		runtime.GC()
		d, err := e.setup(nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}
	defer func() { e.shutdown() }()

	stopSwaps := e.startSwaps()
	reqNo := 0
	phase := func(rate float64, n int) []reqSample {
		base := reqNo
		reqNo += n
		return openLoop(rate, n, serveConns, func(w, i int) bool { return e.send(w, base+i) })
	}
	phase(nominalRate, int(warmupSeconds*nominalRate))

	var nominal, tracedNominal []reqSample
	var rungs []rung
	var saturated float64
	if !env.trace {
		nominal = phase(nominalRate, nominalRequests(env.seconds))
		// Capacity is measured without hot swaps: they stop first.
		stopSwaps()
		// Both connections back to back: the completed-request rate. On a
		// shared host it is steadier than the ladder's highest passing
		// rate, whose pass or fail near saturation turns on single stalls.
		d := time.Duration(saturatedShare * float64(env.seconds))
		base := reqNo
		var sent int
		saturated, sent = closedLoop(d, serveConns, func(w, i int) bool { return e.send(w, base+i) })
		reqNo += sent
		// The ladder: a rate that misses the limit is tried once more, so
		// one stall does not end the climb; the second miss does.
		deadline := time.Now().Add(time.Duration((1 - nominalShare - saturatedShare) * float64(env.seconds)))
		for _, rate := range ladder {
			if time.Now().After(deadline) {
				break
			}
			r := rung{rate: rate, samples: phase(rate, int(rate*rungSeconds))}
			rungs = append(rungs, r)
			if !rungPasses(r.samples, latencyLimit) {
				r = rung{rate: rate, samples: phase(rate, int(rate*rungSeconds))}
				rungs = append(rungs, r)
				if !rungPasses(r.samples, latencyLimit) {
					break
				}
			}
		}
	} else {
		n := nominalRequests(env.seconds)
		nominal = phase(nominalRate, n)
		// The traced half runs on a fresh server whose handler is wrapped.
		e.shutdown()
		if _, err := e.setup(env.tr); err != nil {
			return nil, err
		}
		tracedNominal = phase(nominalRate, n)
		stopSwaps()
	}

	lat, lag := latencies(nominal)
	p50 := median(lat)
	p99, _ := percentile(lat, 99)
	maxRPS := maxRate(rungs, latencyLimit)
	e.mu.Lock()
	acc := float64(e.rowsRight) / float64(e.rowsAll)
	ready := append([]float64(nil), e.swapReady...)
	e.mu.Unlock()

	e.res.e2e["setup_s"] = median(setups)
	e.res.e2e["latency_p50_ms"] = p50
	e.res.e2e["throughput_per_s"] = saturated
	e.res.e2e["model_accuracy"] = acc

	say("serve: models %s (%s) and %s (%s), hot swap every %v, %d connections, open loop",
		modelA, shape(e.trees[modelA]), modelB, shape(e.trees[modelB]), swapEvery, serveConns)
	say("  setup_s         %s", summarize(setups))
	say("  serve_p50_ms    %.4f at %g req/s (n=%d)", p50, nominalRate, len(lat))
	say("  serve_p99_ms    %.4f (n=%d, %d beyond)", p99, len(lat), beyond(len(lat), 99))
	say("  loadgen lag ms  %s", summarize(lag))
	if !env.trace {
		say("  ladder (p99 limit %g ms):", latencyLimit)
		for _, r := range rungs {
			p, failed, growth := rungStats(r.samples)
			say("    %7.0f req/s: p99 %8.3f ms, lag growth %7.3f ms, failed %d, pass=%v",
				r.rate, p, growth, failed, rungPasses(r.samples, latencyLimit))
		}
		say("  serve_max_rps   %g", maxRPS)
		say("  saturated rps   %.6g (2 connections back to back, %g s)", saturated, saturatedShare*env.seconds.Seconds())
	}
	say("  swap_ready_ms   %s", summarize(ready))
	say("  model_accuracy  %.4f (served rows vs true labels)", acc)
	if env.trace {
		e.report(nominal, tracedNominal)
	}
	return e.res, nil
}

// nominalRequests is the size of the nominal phase: its share of the run,
// and never fewer than a p99 with ten requests beyond it needs.
func nominalRequests(seconds time.Duration) int {
	n := int(nominalShare * seconds.Seconds() * nominalRate)
	if n < 100*minBeyond {
		n = 100 * minBeyond
	}
	return n
}

func shape(t *tree.Tree) string { return fmt.Sprintf("%d nodes, depth %d", t.NumNodes(), t.Depth()) }

func latencies(samples []reqSample) (lat, lag []float64) {
	for _, s := range samples {
		lat = append(lat, ms(s.latency()))
		lag = append(lag, ms(s.lag()))
	}
	return lat, lag
}

// setup opens the registry, starts the server on a loopback listener and
// connects every client; it returns how long that took.
func (e *serveEnv) setup(tr *tracer) (float64, error) {
	t0 := time.Now()
	reg, err := serve.OpenRegistry(e.modelDir)
	if err != nil {
		return 0, err
	}
	srv := serve.New(reg, serve.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return 0, err
	}
	h := srv.Handler()
	if tr != nil {
		h = tracedHandler(tr, h)
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	e.mu.Lock()
	e.reg, e.srv, e.hs, e.url = reg, srv, hs, "http://"+ln.Addr().String()
	e.mu.Unlock()
	e.clients, e.lanes = nil, nil
	var wg sync.WaitGroup
	errs := make([]error, serveConns)
	for w := 0; w < serveConns; w++ {
		// One transport per sender: each sender owns one connection.
		c := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
		e.clients = append(e.clients, c)
		e.lanes = append(e.lanes, tr.lane(fmt.Sprintf("client %d", w)))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			resp, err := c.Get(e.url + "/readyz")
			if err != nil {
				errs[w] = err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[w] = fmt.Errorf("readyz: %s", resp.Status)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("serve setup: %w", err)
		}
	}
	return time.Since(t0).Seconds(), nil
}

func (e *serveEnv) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.hs.Shutdown(ctx)
	e.srv.Shutdown(ctx)
	for _, c := range e.clients {
		c.CloseIdleConnections()
	}
}

// startSwaps hot-swaps between the two model versions every swapEvery:
// it writes the other version into the model dir and reloads the
// registry. The returned function stops it and waits for it.
func (e *serveEnv) startSwaps() func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	ln := e.tr.lane("swapper")
	go func() {
		defer close(done)
		tick := time.NewTicker(swapEvery)
		defer tick.Stop()
		versions := []string{modelB, modelA}
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			v := versions[k%2]
			path := e.path("models/" + v)
			s0 := ln.now()
			err := tree.SaveFile(e.trees[v], path)
			ln.done("tree.save", s0)
			if err != nil {
				e.wrongf("serve: writing model %s: %v", v, err)
				continue
			}
			e.mu.Lock()
			e.pending = swapPending{version: v, written: time.Now()}
			reg := e.reg
			e.mu.Unlock()
			s0 = ln.now()
			_, _, err = reg.Reload()
			ln.done("serve.reload", s0)
			if err != nil {
				e.wrongf("serve: reloading %s: %v", v, err)
			} else if got := reg.Active().Info.Version; got != v {
				e.wrongf("serve: registry serves %s after writing %s", got, v)
			}
			s0 = ln.now()
			back, err := tree.LoadFile(path)
			ln.done("tree.load", s0)
			if err != nil || !tree.Equal(back, e.trees[v]) {
				e.wrongf("serve: model %s does not round-trip: %v", v, err)
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

func (e *serveEnv) wrongf(format string, args ...any) {
	e.mu.Lock()
	e.res.wrongf(format, args...)
	e.mu.Unlock()
}

// send issues request i on sender w and checks the answer: every class
// must equal tree.Classify under the version the response names.
func (e *serveEnv) send(w, i int) bool {
	h := splitmix(e.seed, i)
	var rows []int
	var url, ctype string
	var body []byte
	if h%binEvery == 0 {
		c := int(h/binEvery) % len(e.binBody)
		body, url, ctype = e.binBody[c], e.url+"/v1/classify.bin", "application/octet-stream"
		for k := 0; k < binRows; k++ {
			rows = append(rows, c*binRows+k)
		}
	} else {
		r := int(h/binEvery) % len(e.pool)
		body, url, ctype = e.jsonBody[r], e.url+"/v1/classify", "application/json"
		rows = []int{r}
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		panic(err) // the URL is built from a listener address
	}
	req.Header.Set("Content-Type", ctype)
	id := strconv.Itoa(i)
	ln := e.lanes[w]
	if ln != nil {
		req.Header.Set(reqIDHeader, id)
	}
	s0 := ln.now()
	version, classes, err := e.do(e.clients[w], req, strings.HasSuffix(url, ".bin"))
	ln.doneID("http.client", id, s0)
	done := time.Now()

	e.mu.Lock()
	defer e.mu.Unlock()
	e.res.attempted++
	if err != nil {
		e.res.failed++
		return false
	}
	want, known := e.expect[version]
	if !known || len(classes) != len(rows) {
		e.res.wrongf("serve: request %d: version %q, %d classes for %d rows", i, version, len(classes), len(rows))
		return false
	}
	for k, r := range rows {
		if classes[k] != want[r] {
			e.res.wrongf("serve: request %d row %d: class %d, %s classifies it %d", i, r, classes[k], version, want[r])
			return false
		}
		if classes[k] == e.pool[r].Class {
			e.rowsRight++
		}
	}
	e.rowsAll += int64(len(rows))
	if p := &e.pending; version == p.version && !p.seen {
		p.seen = true
		e.swapReady = append(e.swapReady, ms(done.Sub(p.written)))
	}
	return true
}

// do performs one classify request and decodes the version and classes.
func (e *serveEnv) do(c *http.Client, req *http.Request, bin bool) (string, []int32, error) {
	resp, err := c.Do(req)
	if err != nil {
		return "", nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
	}
	if bin {
		out := make([]int32, len(data)/4)
		for k := range out {
			out[k] = int32(binary.LittleEndian.Uint32(data[4*k:]))
		}
		return resp.Header.Get("X-Model-Version"), out, nil
	}
	var cr struct {
		ModelVersion string  `json:"model_version"`
		Classes      []int32 `json:"classes"`
	}
	if err := json.Unmarshal(data, &cr); err != nil {
		return "", nil, err
	}
	return cr.ModelVersion, cr.Classes, nil
}

// report fills the serve per-layer metrics from the traced phase.
func (e *serveEnv) report(untraced, traced []reqSample) {
	tr := e.tr
	tr.analyse()
	out := e.res.layer
	handler := map[string]float64{}
	var hdur []float64
	for _, s := range tr.spansNamed("serve.handler") {
		d := 1e3 * (s.End - s.Start)
		handler[s.ID] = d
		hdur = append(hdur, d)
	}
	var overhead []float64
	for _, s := range tr.spansNamed("http.client") {
		if h, ok := handler[s.ID]; ok {
			overhead = append(overhead, 1e3*(s.End-s.Start)-h)
		}
	}
	out["serve.handler_p50_ms"] = median(hdur)
	out["serve.handler_p99_ms"], _ = percentile(hdur, 99)
	out["serve.client_overhead_p50_ms"] = median(overhead)
	snap := e.srv.Stats().Snapshot()
	if l, ok := snap["latency_ms"].(map[string]any); ok {
		out["serve.engine_p50_ms"], _ = l["p50"].(float64)
		out["serve.engine_p99_ms"], _ = l["p99"].(float64)
	}
	if b, ok := snap["batch_rows"].(map[string]any); ok {
		out["serve.batch_rows_mean"], _ = b["mean"].(float64)
	}
	if q, ok := snap["queue_depth"].(map[string]any); ok {
		h, _ := q["hist"].(map[string]int64)
		max, _ := q["max"].(float64)
		out["serve.queue_depth_p99"] = histQuantile(h, 0.99, max)
	}
	out["serve.shed"] = float64(e.srv.Stats().Shed())
	out["serve.reload_failures"] = float64(e.reg.ReloadFailures())
	mean := func(name string) float64 {
		spans := tr.spansNamed(name)
		var sum float64
		for _, s := range spans {
			sum += s.End - s.Start
		}
		if len(spans) == 0 {
			return 0
		}
		return sum / float64(len(spans))
	}
	out["serve.reload_s"] = mean("serve.reload")
	out["tree.save_s"] = mean("tree.save")
	out["tree.load_s"] = mean("tree.load")
	_, lag := latencies(traced)
	out["loadgen.lag_p99_ms"], _ = percentile(lag, 99)
	a := e.trees[modelA]
	out["tree.nodes"] = float64(a.NumNodes())
	out["tree.depth"] = float64(a.Depth())
	out["tree.classify_ns_per_row"] = classifyNsPerRow(a, e.pool)
	ul, _ := latencies(untraced)
	tl, _ := latencies(traced)
	out["trace.overhead_ms"] = median(tl) - median(ul)
	say("tracing overhead: request p50 traced %.4f ms - untraced %.4f ms = %+.4f ms",
		median(tl), median(ul), out["trace.overhead_ms"])
}

// histQuantile reads a quantile off an obs.Histogram snapshot: the upper
// bound of the bucket holding it, or max for the overflow bucket.
func histQuantile(h map[string]int64, q, max float64) float64 {
	type bucket struct {
		le    float64
		count int64
	}
	var bs []bucket
	var total int64
	for label, c := range h {
		le := max
		if v, err := strconv.ParseFloat(strings.TrimPrefix(label, "le_"), 64); err == nil {
			le = v
		}
		bs = append(bs, bucket{le, c})
		total += c
	}
	if total == 0 {
		return 0
	}
	for i := 1; i < len(bs); i++ {
		for j := i; j > 0 && bs[j].le < bs[j-1].le; j-- {
			bs[j], bs[j-1] = bs[j-1], bs[j]
		}
	}
	var cum int64
	for _, b := range bs {
		cum += b.count
		if float64(cum) >= q*float64(total) {
			return b.le
		}
	}
	return bs[len(bs)-1].le
}
