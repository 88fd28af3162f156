package stream

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
	"pclouds/internal/datagen"
)

// runRanksDeadline is runRanks with a deadline: a rank left blocked in a
// collective its peers never reach fails the test instead of hanging it.
func runRanksDeadline(t *testing.T, p int, cfg Config) []*Result {
	t.Helper()
	results := make([]*Result, p)
	done := make(chan error, 1)
	go func() {
		done <- comm.Run(p, costmodel.Zero(), func(c *comm.ChannelComm) error {
			src, err := NewSynthetic(datagen.Config{Function: 2, Seed: 42}, 0)
			if err != nil {
				return err
			}
			defer src.Close()
			res, err := Run(cfg, c, src)
			if err != nil {
				return fmt.Errorf("rank %d: %w", c.Rank(), err)
			}
			results[c.Rank()] = res
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream run still going after 30s: a rank is blocked in a collective")
	}
	return results
}

// TestResumeStaggeredCheckpointDamage: checkpoint damage that differs
// between ranks must move every rank to the same resume point — the resume
// ladder steps down collectively — and the resumed run must publish the
// uninterrupted run's model sequence byte for byte.
func TestResumeStaggeredCheckpointDamage(t *testing.T) {
	const p, total = 2, 7
	refDir := t.TempDir()
	ref := testConfig(t)
	ref.PublishDir, ref.MaxWindows = refDir, total
	runRanksDeadline(t, p, ref)
	want := publishedModels(t, refDir)

	flip := func(t *testing.T, path string) {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x10
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// failWrites makes rank's checkpoint writes for windows from..to fail
	// once the run is under way: a non-empty directory squats on each
	// file's path, so the rename that publishes the file fails.
	failWrites := func(t *testing.T, cfg *Config, rank, from, to int) {
		var once sync.Once
		cfg.RecordHook = func(window int, _ int64) {
			if window+1 < from {
				return
			}
			once.Do(func() {
				for w := from; w <= to; w++ {
					if err := os.MkdirAll(filepath.Join(ckptPath(cfg.CheckpointDir, rank, w), "squat"), 0o755); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}

	for _, tc := range []struct {
		name    string
		first   int // windows of the interrupted run
		before  func(t *testing.T, cfg *Config)
		damage  func(t *testing.T, dir string)
		resumed int
	}{
		// Retained windows are 3 and 4 on both ranks (Keep = 2); window 4
		// is bad on rank 0 and window 3 on rank 1, so no window restores
		// everywhere and the ladder ends in a collective fresh start.
		{name: "staggered-flips", first: 4, damage: func(t *testing.T, dir string) {
			flip(t, ckptPath(dir, 0, 4))
			flip(t, ckptPath(dir, 1, 3))
		}, resumed: 0},
		// Only rank 0's newest window is bad: both ranks step down to 3.
		{name: "one-rank-newest", first: 4, damage: func(t *testing.T, dir string) {
			flip(t, ckptPath(dir, 0, 4))
		}, resumed: 3},
		// Rank 1 fails to write windows 3..5 (more than Keep windows): no
		// window after 2 commits, so nobody prunes 2 and both resume there.
		{name: "one-rank-writes-fail", first: 5, before: func(t *testing.T, cfg *Config) {
			failWrites(t, cfg, 1, 3, 5)
		}, resumed: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, ckpt := t.TempDir(), t.TempDir()
			cfg := testConfig(t)
			cfg.PublishDir, cfg.CheckpointDir = dir, ckpt
			cfg.MaxWindows = tc.first
			if tc.before != nil {
				tc.before(t, &cfg)
			}
			runRanksDeadline(t, p, cfg)
			cfg.RecordHook = nil
			if tc.damage != nil {
				tc.damage(t, ckpt)
			}
			cfg.MaxWindows = total
			res := runRanksDeadline(t, p, cfg)
			for r := 0; r < p; r++ {
				if res[r].Stats.ResumedAt != tc.resumed {
					t.Errorf("rank %d resumed at window %d, want %d", r, res[r].Stats.ResumedAt, tc.resumed)
				}
			}
			got := publishedModels(t, dir)
			if fmt.Sprint(sortedNames(got)) != fmt.Sprint(sortedNames(want)) {
				t.Fatalf("published names differ: got %v, want %v", sortedNames(got), sortedNames(want))
			}
			for name, blob := range want {
				if !bytes.Equal(got[name], blob) {
					t.Errorf("model %s differs from the uninterrupted run", name)
				}
			}
		})
	}
}
