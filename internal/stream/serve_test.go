package stream

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
	"pclouds/internal/datagen"
	"pclouds/internal/serve"
)

// TestHotServeDuringPublishes is the end-to-end acceptance scenario: a
// 2-rank streaming build publishes a model per window into a registry
// directory while a serving instance watches it and answers classify
// requests the whole time. Every request must succeed — hot swaps are
// invisible to clients — and the poller must observe multiple version
// swaps.
func TestHotServeDuringPublishes(t *testing.T) {
	dir, ckpt := t.TempDir(), t.TempDir()
	cfg := testConfig(t)
	cfg.PublishDir, cfg.CheckpointDir = dir, ckpt

	// Bootstrap: commit one window so the registry has a model to start
	// from (a server never starts ready-but-empty).
	cfg.MaxWindows = 1
	runRanks(t, 2, cfg, synthetic(t, 0))

	reg, err := serve.OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(reg, serve.ServerConfig{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Engine().Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go reg.Watch(ctx, 2*time.Millisecond)

	// A valid request row from the stream's own schema.
	g, err := datagen.New(datagen.Config{Function: 2, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	r0 := g.Next()
	body, err := json.Marshal(map[string]any{"num": r0.Num, "cat": r0.Cat})
	if err != nil {
		t.Fatal(err)
	}

	// Hammer the server while the stream resumes and publishes the
	// remaining windows. The per-record hook slows ingest enough for the
	// 2ms poller to observe intermediate versions.
	var requests, failures atomic.Int64
	hammerDone := make(chan struct{})
	hammerStop := make(chan struct{})
	go func() {
		defer close(hammerDone)
		for {
			select {
			case <-hammerStop:
				return
			default:
			}
			resp, err := http.Post(hs.URL+"/v1/classify", "application/json", strings.NewReader(string(body)))
			requests.Add(1)
			if err != nil {
				failures.Add(1)
				continue
			}
			if resp.StatusCode != http.StatusOK {
				failures.Add(1)
			}
			resp.Body.Close()
		}
	}()

	cfg.MaxWindows = 8
	cfg.RecordHook = func(int, int64) { time.Sleep(30 * time.Microsecond) }
	results := runRanks(t, 2, cfg, synthetic(t, 0))
	if results[0].Stats.Windows != 8 {
		t.Fatalf("committed %d windows, want 8", results[0].Stats.Windows)
	}
	// Let the poller catch the final version, then stop hammering.
	time.Sleep(20 * time.Millisecond)
	close(hammerStop)
	<-hammerDone

	if n := requests.Load(); n == 0 {
		t.Fatal("no classify requests were issued")
	}
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d of %d classify requests failed during hot swaps", n, requests.Load())
	}
	if swaps := reg.Swaps(); swaps < 2 {
		t.Errorf("registry saw %d swaps, want at least 2 (poller missed the publishes)", swaps)
	}
	if reg.ReloadFailures() != 0 {
		t.Errorf("%d reload failures (last: %s)", reg.ReloadFailures(), reg.LastError())
	}

	// The freshness gauge is live on /v1/stats: a just-published model is
	// seconds old at most.
	resp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Registry struct {
			ModelAge float64 `json:"model_age_seconds"`
			Swaps    int64   `json:"swaps"`
		} `json:"registry"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Registry.ModelAge < 0 || stats.Registry.ModelAge > 60 {
		t.Errorf("model_age_seconds = %v, want a fresh model", stats.Registry.ModelAge)
	}
	if stats.Registry.Swaps != reg.Swaps() {
		t.Errorf("stats swaps %d != registry swaps %d", stats.Registry.Swaps, reg.Swaps())
	}
}

// TestCorruptPublishQuarantinedNeverServed is the serving-tier chaos
// scenario: mid-run, a corrupt "model" lands in the publish directory with
// the newest mtime — exactly what the poller would pick next. The
// registry must quarantine it (rename it aside), never activate it, keep
// answering every classify request, and keep swapping in the genuine
// models that continue to publish around it.
func TestCorruptPublishQuarantinedNeverServed(t *testing.T) {
	dir, ckpt := t.TempDir(), t.TempDir()
	cfg := testConfig(t)
	cfg.PublishDir, cfg.CheckpointDir = dir, ckpt

	// Bootstrap one window so the registry has a model to start from.
	cfg.MaxWindows = 1
	runRanks(t, 2, cfg, synthetic(t, 0))

	reg, err := serve.OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(reg, serve.ServerConfig{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Engine().Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go reg.Watch(ctx, 2*time.Millisecond)

	g, err := datagen.New(datagen.Config{Function: 2, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	r0 := g.Next()
	body, err := json.Marshal(map[string]any{"num": r0.Num, "cat": r0.Cat})
	if err != nil {
		t.Fatal(err)
	}
	var requests, failures atomic.Int64
	hammerDone, hammerStop := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(hammerDone)
		for {
			select {
			case <-hammerStop:
				return
			default:
			}
			resp, err := http.Post(hs.URL+"/v1/classify", "application/json", strings.NewReader(string(body)))
			requests.Add(1)
			if err != nil {
				failures.Add(1)
				continue
			}
			if resp.StatusCode != http.StatusOK {
				failures.Add(1)
			}
			resp.Body.Close()
		}
	}()

	// Drop the corrupt file while the stream publishes the remaining
	// windows underneath the poller. A far-future name and mtime make it
	// the scan winner on every tick until it is quarantined. It is staged
	// under a name the registry skips and renamed into place with its
	// mtime already set: the 2 ms poller may quarantine it the moment it
	// appears.
	corrupt := filepath.Join(dir, "model-w999999.tree")
	staged := filepath.Join(dir, ".staged-corrupt")
	if err := os.WriteFile(staged, []byte("definitely not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(time.Hour)
	if err := os.Chtimes(staged, future, future); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(staged, corrupt); err != nil {
		t.Fatal(err)
	}

	cfg.MaxWindows = 6
	cfg.RecordHook = func(int, int64) { time.Sleep(30 * time.Microsecond) }
	runRanks(t, 2, cfg, synthetic(t, 0))
	time.Sleep(20 * time.Millisecond)
	close(hammerStop)
	<-hammerDone

	if n := requests.Load(); n == 0 {
		t.Fatal("no classify requests were issued")
	}
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d of %d classify requests failed while a corrupt model sat in the registry", n, requests.Load())
	}
	if got := reg.Quarantined(); got != 1 {
		t.Fatalf("Quarantined = %d, want 1", got)
	}
	if _, err := os.Stat(corrupt); !os.IsNotExist(err) {
		t.Fatalf("corrupt file still present (err=%v), want renamed aside", err)
	}
	if _, err := os.Stat(corrupt + ".quarantined"); err != nil {
		t.Fatalf("quarantined copy missing: %v", err)
	}
	// The corrupt version was never activated, and the genuine stream
	// models kept swapping in past it.
	if got := reg.Active().Info.Version; got != "model-w000006.tree" {
		t.Fatalf("active = %q, want model-w000006.tree", got)
	}
	if swaps := reg.Swaps(); swaps < 2 {
		t.Errorf("registry saw %d swaps, want at least 2", swaps)
	}
}

// TestServedPredictionsMatchFinalModel: after the stream ends, the served
// model must agree with the final tree every rank returned.
func TestServedPredictionsMatchFinalModel(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t)
	cfg.PublishDir = dir
	cfg.MaxWindows = 4
	var results []*Result
	err := comm.Run(2, costmodel.Zero(), func(c *comm.ChannelComm) error {
		src, err := NewSynthetic(datagen.Config{Function: 2, Seed: 42}, 0)
		if err != nil {
			return err
		}
		defer src.Close()
		res, err := Run(cfg, c, src)
		if err != nil {
			return fmt.Errorf("rank %d: %w", c.Rank(), err)
		}
		if c.Rank() == 0 {
			results = append(results, res)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	final := results[0].Tree

	reg, err := serve.OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := datagen.New(datagen.Config{Function: 2, Seed: 123})
	for i := 0; i < 200; i++ {
		r := g.Next()
		if got, want := reg.Active().Tree.Classify(r), final.Classify(r); got != want {
			t.Fatalf("record %d: served class %d, final model says %d", i, got, want)
		}
	}
}
