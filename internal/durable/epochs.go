package durable

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	"pclouds/internal/comm"
)

// The collective epoch protocol. An epoch is a point every rank reaches
// with an agreed state — a completed tree level of the breadth-first batch
// build, a committed streaming window. At each epoch every rank persists
// its own sealed blob; a restart agrees on the newest epoch every rank can
// restore and resumes there.
//
// Layout, one directory per epoch and one file per rank in it:
//
//	<Dir>/epoch-<NNNNNN>/rank-<RRR>.ck
//
// Each rank only ever writes, reads and removes its own files, so ranks
// sharing one directory never race; an epoch directory is removed by the
// last rank to leave it.
//
// Commit. Each rank writes its blob atomically, then the group votes
// (AllReduce-min). A failed write on any rank is a warning, not a
// failure: the epoch is simply not committed, nobody prunes, and the
// newest committed epoch survives for the next restart. Only a committed
// epoch garbage-collects: every rank drops its epochs <= epoch-Keep.
//
// Agree. Start from the minimum over ranks of each rank's newest epoch at
// most a bound and step down until the candidate exists on every rank (a
// failed write leaves a hole on one rank, so "min of newest" alone is not
// enough).
//
// Restore. Every rank restores the agreed epoch, then votes. A failure
// anywhere makes every rank step below that epoch together; a Fatal error
// anywhere ends the ladder on every rank. No rank ever proceeds alone into
// a collective its peers will not reach.

// Keep is how many committed epochs each rank retains: committing epoch E
// prunes epochs <= E-Keep. Two suffice — the commit vote bounds skew
// between ranks to one epoch, and GC runs only once E is on every rank, so
// E-1 stays as the fallback should E later fail to restore somewhere.
const Keep = 2

// Epochs is one rank's handle on a collective checkpoint directory.
type Epochs struct {
	Dir  string
	Rank int
	// Pruned, when non-nil, runs after the garbage collection of a
	// committed epoch: every epoch <= horizon is now gone from this rank.
	Pruned func(horizon int)
	// Warnf reports survivable trouble; nil drops it.
	Warnf func(format string, args ...any)
	// Removed counts the epochs this rank has removed; Kept is how many it
	// retains after the latest GC, restore or wipe.
	Removed, Kept int
}

func (e *Epochs) epochDir(epoch int) string {
	return filepath.Join(e.Dir, fmt.Sprintf("epoch-%06d", epoch))
}

// Path is this rank's file for epoch.
func (e *Epochs) Path(epoch int) string {
	return filepath.Join(e.epochDir(epoch), fmt.Sprintf("rank-%03d.ck", e.Rank))
}

func (e *Epochs) warnf(format string, args ...any) {
	if e.Warnf != nil {
		e.Warnf(format, args...)
	}
}

// List returns, ascending, the epochs this rank holds a file for. An
// unreadable directory is warned about and holds nothing: the agreement
// then routes around this rank instead of failing it alone.
func (e *Epochs) List() []int {
	ents, err := os.ReadDir(e.Dir)
	if err != nil {
		if !os.IsNotExist(err) {
			e.warnf("durable: rank %d: listing %s: %v", e.Rank, e.Dir, err)
		}
		return nil
	}
	var epochs []int
	for _, ent := range ents {
		var ep int
		if _, err := fmt.Sscanf(ent.Name(), "epoch-%d", &ep); err != nil || ep < 1 || !ent.IsDir() {
			continue
		}
		if fi, err := os.Stat(e.Path(ep)); err == nil && fi.Mode().IsRegular() {
			epochs = append(epochs, ep)
		}
	}
	slices.Sort(epochs)
	return epochs
}

// Write persists this rank's sealed blob for epoch atomically. It is the
// local half of Commit.
func (e *Epochs) Write(epoch int, blob []byte) error {
	if err := os.MkdirAll(e.epochDir(epoch), 0o755); err != nil {
		return err
	}
	return AtomicWrite(e.Path(epoch), blob)
}

// Read returns this rank's blob for epoch.
func (e *Epochs) Read(epoch int) ([]byte, error) {
	return os.ReadFile(e.Path(epoch))
}

// remove drops this rank's file for epoch; the rmdir succeeds only for the
// last rank out.
func (e *Epochs) remove(epoch int) {
	os.Remove(e.Path(epoch))
	os.Remove(e.epochDir(epoch))
	e.Removed++
}

// Commit writes this rank's blob for epoch (encode's output) and runs the
// commit vote. saveErr is this rank's local failure to encode or write —
// survivable, the epoch just does not commit; err is a communication
// failure and is fatal.
func (e *Epochs) Commit(c comm.Communicator, epoch int, encode func() ([]byte, error)) (saveErr, err error) {
	blob, saveErr := encode()
	if saveErr == nil {
		saveErr = e.Write(epoch, blob)
	}
	if ok, err := allAgree(c, saveErr == nil); err != nil || !ok {
		return saveErr, err
	}
	horizon := epoch - Keep
	e.Kept = 0
	for _, ep := range e.List() {
		if ep > horizon {
			e.Kept++
		} else {
			e.remove(ep)
		}
	}
	if e.Pruned != nil {
		e.Pruned(horizon)
	}
	return saveErr, nil
}

// Resume agrees on and restores the newest epoch every rank can restore.
// restore runs on every rank with the same epoch and must reach the same
// collectives whatever its local outcome; its error steps the whole group
// below that epoch, unless it is Fatal, which ends the ladder on every
// rank. Resume returns the restored epoch, or 0 — on every rank — when no
// epoch is left to try. It removes nothing: the caller follows a restore
// with Retain and a fresh start with Wipe.
func (e *Epochs) Resume(c comm.Communicator, restore func(epoch int) error) (int, error) {
	have := e.List()
	bound := math.MaxInt
	for {
		epoch, err := agree(c, have, bound)
		if err != nil || epoch == 0 {
			return 0, err
		}
		rerr := restore(epoch)
		var fe *fatalError
		vote := int64(voteOK)
		if errors.As(rerr, &fe) {
			vote = voteFatal
		} else if rerr != nil {
			vote = voteStep
		}
		all, err := comm.AllReduceInt64(c, []int64{vote}, minI64)
		if err != nil {
			return 0, err
		}
		switch all[0] {
		case voteOK:
			return epoch, nil
		case voteFatal:
			if fe != nil {
				return 0, fe.err
			}
			return 0, fmt.Errorf("durable: another rank cannot resume from epoch %d", epoch)
		}
		if rerr == nil {
			rerr = errors.New("another rank failed to restore it")
		}
		e.warnf("durable: rank %d: epoch %d does not restore (%v); stepping down", e.Rank, epoch, rerr)
		bound = epoch - 1
	}
}

const (
	voteFatal = iota
	voteStep
	voteOK
)

// agree returns the newest epoch <= bound that every rank holds, or 0.
func agree(c comm.Communicator, have []int, bound int) (int, error) {
	for {
		newest := 0
		for _, ep := range have {
			if ep <= bound {
				newest = ep
			}
		}
		cand, err := comm.AllReduceInt64(c, []int64{int64(newest)}, minI64)
		if err != nil || cand[0] < 1 {
			return 0, err
		}
		ok, err := allAgree(c, slices.Contains(have, int(cand[0])))
		if err != nil || ok {
			return int(cand[0]), err
		}
		bound = int(cand[0]) - 1
	}
}

// Retain removes every epoch of this rank except keep — after a restore,
// older epochs are superseded and newer ones are orphans the resumed run
// rewrites.
func (e *Epochs) Retain(keep int) {
	for _, ep := range e.List() {
		if ep != keep {
			e.remove(ep)
		}
	}
	e.Kept = 1
}

// Wipe removes every epoch of this rank: a fresh start (so stale epochs
// can never look newer than the ones the new run writes) or a finished run.
func (e *Epochs) Wipe() {
	for _, ep := range e.List() {
		e.remove(ep)
	}
	e.Kept = 0
}

// Fatal marks a restore error that no older epoch can fix — a changed
// configuration or a different dataset — so Resume stops instead of
// stepping down.
func Fatal(err error) error { return &fatalError{err} }

type fatalError struct{ err error }

func (f *fatalError) Error() string { return f.err.Error() }
func (f *fatalError) Unwrap() error { return f.err }

// allAgree reports whether ok holds on every rank.
func allAgree(c comm.Communicator, ok bool) (bool, error) {
	v := int64(0)
	if ok {
		v = 1
	}
	all, err := comm.AllReduceInt64(c, []int64{v}, minI64)
	if err != nil {
		return false, err
	}
	return all[0] == 1, nil
}

func minI64(a, b int64) int64 { return min(a, b) }
