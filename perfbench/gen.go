package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"

	"pclouds/internal/clouds"
	"pclouds/internal/datagen"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// Input generation runs in a child process ("perfbench gen"), so the
// generator's memory never counts toward the measuring process's peak RSS
// and the program only ever sees the generated files.

// File names inside a run's input directory.
const (
	testFile = "test.bin"
	modelA   = "model-a.tree"
	modelB   = "model-b.tree"
)

// dataFile names the k-th record file of a build or stream workload.
func dataFile(k int) string { return fmt.Sprintf("data-%d.bin", k) }

// subSeed derives the seed of one generated input from the run's seed.
func subSeed(seed int64, i int64) int64 { return seed*1_000_003 + i }

// dataSeed is the seed of the k-th record file; builds also draw their
// sample with it.
func dataSeed(seed int64, k int) int64 { return subSeed(seed, int64(100+k)) }

// generate runs this binary's gen subcommand for the workload and waits
// for it to exit.
func generate(w *workload, seed int64, dir string) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	cmd := exec.Command(self, "gen", "-workload", w.name, "-seed", fmt.Sprint(seed), "-dir", dir)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	return nil
}

// genMain is the gen subcommand.
func genMain(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	name := fs.String("workload", "", "workload whose inputs to generate")
	seed := fs.Int64("seed", 1, "input seed")
	dir := fs.String("dir", "", "output directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok || *dir == "" {
		return errors.New("gen: need -workload and -dir")
	}
	switch w.kind {
	case kindBuild, kindStream:
		// Two writers at a time: one per core.
		errs := make([]error, w.datasets)
		sem := make(chan struct{}, 2)
		var wg sync.WaitGroup
		for k := 0; k < w.datasets; k++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(k int) {
				defer func() { <-sem; wg.Done() }()
				errs[k] = writeRecords(filepath.Join(*dir, dataFile(k)), w, w.records, dataSeed(*seed, k))
			}(k)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
		return writeRecords(filepath.Join(*dir, testFile), w, testRecords, subSeed(*seed, 2))
	case kindServe:
		// Two versions of the build-noisy model, from different seeds,
		// built concurrently (the sequential builder yields the same tree
		// as a parallel build of the same records and sample).
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i, name := range []string{modelA, modelB} {
			wg.Add(1)
			go func(i int, name string) {
				defer wg.Done()
				errs[i] = buildModel(filepath.Join(*dir, name), subSeed(*seed, int64(10+i)))
			}(i, name)
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	return nil
}

// generator returns the workload's record generator for one seed.
func (w *workload) generator(seed int64) *datagen.Generator {
	g, err := datagen.New(datagen.Config{Function: w.function, Noise: w.noise, Seed: seed})
	if err != nil {
		panic(err) // the workload table holds valid functions and noise levels
	}
	return g
}

// writeRecords writes n of the workload's records as a checksummed v2
// record file.
func writeRecords(path string, w *workload, n int, seed int64) error {
	ds := w.generator(seed).Generate(n)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ds.WriteBinaryV2(f, uint64(seed)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func buildModel(path string, seed int64) error {
	w := workloads["build-noisy"]
	ds := w.generator(seed).Generate(w.records)
	cfg := w.cloudsConfig(seed)
	t, _, err := clouds.BuildInCore(cfg, ds, cfg.SampleFor(ds))
	if err != nil {
		return err
	}
	return tree.SaveFile(t, path)
}

// loadTest reads a generated test set.
func loadTest(dir string) (*record.Dataset, error) {
	return record.LoadFile(datagen.Schema(), filepath.Join(dir, testFile))
}
