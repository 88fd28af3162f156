package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
)

func TestSealRejectsEveryBitFlip(t *testing.T) {
	blob := Seal("TESTMAG1", []byte("epoch body"))
	body, err := Unseal("TESTMAG1", blob)
	if err != nil || string(body) != "epoch body" {
		t.Fatalf("round trip: %q, %v", body, err)
	}
	for bit := 0; bit < len(blob)*8; bit++ {
		bad := slices.Clone(blob)
		bad[bit/8] ^= 1 << (bit % 8)
		if _, err := Unseal("TESTMAG1", bad); err == nil {
			t.Fatalf("flip of bit %d accepted", bit)
		}
	}
	if _, err := Unseal("OTHERMAG", blob); err == nil {
		t.Fatal("wrong magic accepted")
	}
}

// TestAtomicWriteFailureLeavesNoTemp: a rename that cannot land (a
// directory squats on the target) fails, leaves the target alone and
// removes the temporary file.
func TestAtomicWriteFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "f")
	if err := os.MkdirAll(filepath.Join(target, "squat"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := AtomicWrite(target, []byte("x")); err == nil {
		t.Fatal("write over a directory succeeded")
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("directory holds %d entries after a failed write, want only the target", len(ents))
	}
	ok := filepath.Join(dir, "g")
	if err := AtomicWrite(ok, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(ok); string(got) != "y" {
		t.Fatalf("read back %q", got)
	}
}

// runGroup runs fn on p channel-connected ranks, each with its own handle
// on one shared directory.
func runGroup(t *testing.T, p int, dir string, fn func(c comm.Communicator, e *Epochs) error) {
	t.Helper()
	if err := comm.Run(p, costmodel.Zero(), func(c *comm.ChannelComm) error {
		return fn(c, &Epochs{Dir: dir, Rank: c.Rank()})
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCommitGCAndHoles(t *testing.T) {
	dir := t.TempDir()
	// Epochs 1..4 commit everywhere except epoch 4 on rank 1, whose write
	// fails: epoch 4 does not commit, so the GC of epoch 3 stands.
	runGroup(t, 2, dir, func(c comm.Communicator, e *Epochs) error {
		pruned := []int{}
		e.Pruned = func(h int) { pruned = append(pruned, h) }
		for ep := 1; ep <= 4; ep++ {
			saveErr, err := e.Commit(c, ep, func() ([]byte, error) {
				if ep == 4 && c.Rank() == 1 {
					return nil, errors.New("disk full")
				}
				return []byte{byte(ep)}, nil
			})
			if err != nil {
				return err
			}
			if (saveErr != nil) != (ep == 4 && c.Rank() == 1) {
				return fmt.Errorf("rank %d epoch %d: saveErr %v", c.Rank(), ep, saveErr)
			}
		}
		want := map[int][]int{0: {2, 3, 4}, 1: {2, 3}}[c.Rank()]
		if got := e.List(); !slices.Equal(got, want) {
			return fmt.Errorf("rank %d holds %v, want %v", c.Rank(), got, want)
		}
		if !slices.Equal(pruned, []int{-1, 0, 1}) {
			return fmt.Errorf("rank %d pruned horizons %v", c.Rank(), pruned)
		}
		return nil
	})
	// Resume agrees on 3 (rank 1 has no 4), restores it, then keeps only it.
	runGroup(t, 2, dir, func(c comm.Communicator, e *Epochs) error {
		ep, err := e.Resume(c, func(ep int) error {
			_, err := e.Read(ep)
			return err
		})
		if err != nil || ep != 3 {
			return fmt.Errorf("rank %d resumed at %d, %v; want 3", c.Rank(), ep, err)
		}
		e.Retain(ep)
		if got := e.List(); !slices.Equal(got, []int{3}) {
			return fmt.Errorf("rank %d retains %v", c.Rank(), got)
		}
		return nil
	})
}

// TestResumeFatalOnOneRank: a Fatal restore error on one rank ends the
// ladder on every rank, even when the other rank's error is steppable.
func TestResumeFatalOnOneRank(t *testing.T) {
	dir := t.TempDir()
	runGroup(t, 2, dir, func(c comm.Communicator, e *Epochs) error {
		for ep := 1; ep <= 2; ep++ {
			if _, err := e.Commit(c, ep, func() ([]byte, error) { return []byte("x"), nil }); err != nil {
				return err
			}
		}
		mismatch := errors.New("different dataset")
		tries := 0
		_, err := e.Resume(c, func(int) error {
			tries++
			if c.Rank() == 0 {
				return Fatal(mismatch)
			}
			return errors.New("bit flip")
		})
		if tries != 1 || err == nil || (c.Rank() == 0) != errors.Is(err, mismatch) {
			return fmt.Errorf("rank %d: %d tries, err %v", c.Rank(), tries, err)
		}
		// Steppable failures everywhere exhaust the ladder into 0 on
		// every rank, trying each epoch once.
		tries = 0
		ep, err := e.Resume(c, func(int) error { tries++; return errors.New("bad") })
		if ep != 0 || err != nil || tries != 2 {
			return fmt.Errorf("rank %d: epoch %d err %v after %d tries", c.Rank(), ep, err, tries)
		}
		e.Wipe()
		if got := e.List(); len(got) != 0 {
			return fmt.Errorf("rank %d holds %v after Wipe", c.Rank(), got)
		}
		return nil
	})
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("epoch directories left after every rank wiped: %v", ents)
	}
}
