package pclouds

import (
	"encoding/json"
	"errors"
	"fmt"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/durable"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// Per-level checkpoint/restart. The level-order build has a natural
// synchronisation point after every completed tree level: each rank holds
// exactly one store file per frontier task, every rank agrees on the task
// list, and rank 0's partial tree contains every node built so far. At that
// point each rank persists a manifest of its frontier (rank 0's also
// carries the partial tree), so a later run can resume from the last
// complete level instead of rebuilding from scratch. The resumed build re-derives frontier samples
// by routing the shared root sample through the partial tree's splitters
// and re-runs each frontier node's statistics pass (deriveSplit handles
// tasks without fused statistics), which reproduces the uninterrupted
// build's tree bit-identically.
//
// Each completed level is one epoch of the collective protocol in
// internal/durable: every rank writes its manifest (rank 0's carries the
// partial tree) as a sealed epoch file, a commit vote gates garbage
// collection, and resume agrees collectively on the newest level every
// rank can restore, stepping down together past levels that fail to
// restore anywhere. To make the fallback possible, a consumed frontier
// file is not deleted when the build partitions it — its removal is
// deferred until every checkpoint level referencing it has been pruned
// (durable.Keep bounds the retained window, so disk stays bounded).
//
// Degraded mode: a storage error during a checkpoint write is a warning,
// not a build failure — the level just does not commit, nobody prunes, and
// the build carries on.
//
// What is NOT checkpointed: progress inside a level or inside the deferred
// small-node phase. A crash there resumes from the preceding level
// boundary; if the crash corrupted the frontier's store files, the
// record-count verification below steps the resume past that level rather
// than building from torn data.

// ckptVersion guards manifest compatibility. Version 3 sealed the manifest
// and folded the partial tree into rank 0's.
const ckptVersion = 3

// CheckpointMagic begins every level checkpoint file (a durable sealed
// file whose body is the JSON manifest).
const CheckpointMagic = "PCLEVEL3"

// ErrStopped is returned by Build when Config.StopAfterLevel ended the
// build early at a checkpoint boundary: the checkpoint is complete and the
// build is resumable, but no tree was produced. Chaos tests use it as a
// deterministic, rank-synchronised "kill".
var ErrStopped = errors.New("pclouds: build stopped after checkpointed level")

// ErrNoCheckpoint is returned by a resume when no checkpoint level
// restores on every rank. With Config.ResumeAuto the build falls back to a
// fresh start; with the strict Config.Resume it surfaces to the caller.
// The decision is the result of a collective, so all ranks take the same
// branch.
var ErrNoCheckpoint = errors.New("pclouds: no usable checkpoint")

// ckptTask is one frontier task in a manifest. Depth and the sample are
// derived from ID at resume; LocalCount pins this rank's share so a
// store/manifest mismatch is detected before any work happens.
type ckptTask struct {
	ID          string  `json:"id"`
	File        string  `json:"file"`
	N           int64   `json:"n"`
	ClassCounts []int64 `json:"class_counts"`
	LocalCount  int64   `json:"local_count"`
}

// ckptManifest is one rank's view of a completed level.
type ckptManifest struct {
	Version int   `json:"version"`
	Level   int   `json:"level"`
	Rank    int   `json:"rank"`
	Size    int   `json:"size"`
	NRoot   int64 `json:"n_root"`
	NextID  int   `json:"next_id"`
	// Split records the -split-method the build ran under. A resume under a
	// different method would re-derive the remaining splits with a different
	// protocol and silently produce a different tree, so it is rejected.
	Split string `json:"split"`
	// DataCRC is the fingerprint of the dataset the build read (the v2
	// record-file header checksum, Config.DataChecksum). A resume whose
	// build reads a dataset with a different fingerprint is refused; zero
	// (either side) means unknown and skips the check.
	DataCRC uint32     `json:"data_crc,omitempty"`
	Pending []ckptTask `json:"pending"`
	Small   []ckptTask `json:"small"`
	// Tree is the partial tree (tree.EncodePartial), on rank 0 only.
	Tree []byte `json:"tree,omitempty"`
}

func encodeManifest(m *ckptManifest) ([]byte, error) {
	body, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	return durable.Seal(CheckpointMagic, body), nil
}

func decodeManifest(raw []byte) (*ckptManifest, error) {
	body, err := durable.Unseal(CheckpointMagic, raw)
	if err != nil {
		return nil, fmt.Errorf("pclouds: level checkpoint: %w", err)
	}
	m := &ckptManifest{}
	if err := json.Unmarshal(body, m); err != nil {
		return nil, fmt.Errorf("pclouds: corrupt level manifest: %w", err)
	}
	return m, nil
}

// openCheckpoints attaches this rank's handle on the checkpoint directory.
func (b *pbuilder) openCheckpoints() {
	b.ckpt = &durable.Epochs{Dir: b.cfg.CheckpointDir, Rank: b.c.Rank(), Warnf: b.warnf, Pruned: b.pruneConsumed}
}

func taskManifest(b *pbuilder, tasks []*nodeTask) ([]ckptTask, error) {
	out := make([]ckptTask, 0, len(tasks))
	for _, t := range tasks {
		// The frontier file must be durable before the manifest that
		// references it: sync first, then record the count the resumed
		// build will verify.
		if err := b.store.Sync(t.file); err != nil {
			return nil, fmt.Errorf("pclouds: checkpoint sync %q: %w", t.file, err)
		}
		n, err := b.store.Count(t.file)
		if err != nil {
			return nil, fmt.Errorf("pclouds: checkpoint count %q: %w", t.file, err)
		}
		out = append(out, ckptTask{
			ID: t.id, File: t.file, N: t.n,
			ClassCounts: append([]int64(nil), t.classCounts...),
			LocalCount:  n,
		})
	}
	return out, nil
}

// encodeLevel is this rank's sealed checkpoint of a just-completed level.
func (b *pbuilder) encodeLevel(level int, root *tree.Node, pending, small []*nodeTask) ([]byte, error) {
	m := ckptManifest{
		Version: ckptVersion, Level: level,
		Rank: b.c.Rank(), Size: b.c.Size(),
		NRoot: b.nRoot, NextID: b.nextID,
		Split:   b.cfg.Clouds.Split.String(),
		DataCRC: b.cfg.DataChecksum,
	}
	var err error
	if m.Pending, err = taskManifest(b, pending); err != nil {
		return nil, err
	}
	if m.Small, err = taskManifest(b, small); err != nil {
		return nil, err
	}
	if b.c.Rank() == 0 {
		m.Tree = tree.EncodePartial(&tree.Tree{Schema: b.schema, Root: root})
	}
	return encodeManifest(&m)
}

// checkpointLevel commits the just-completed level. A rank whose write
// failed logs it and the build continues without that level (degraded
// mode); the only fatal errors are communication failures.
func (b *pbuilder) checkpointLevel(level int, root *tree.Node, pending, small []*nodeTask) error {
	// Seal the batch of frontier files consumed while building this level:
	// they are referenced by manifests of level-1 and older, so they become
	// deletable once level-1 is pruned, whether or not this level's own
	// checkpoint commits.
	if len(b.curConsumed) > 0 {
		b.consumed[level] = b.curConsumed
		b.curConsumed = nil
	}
	saveErr, err := b.ckpt.Commit(b.c, level, func() ([]byte, error) {
		return b.encodeLevel(level, root, pending, small)
	})
	if err != nil {
		return err
	}
	if saveErr != nil {
		b.stats.CheckpointFailures++
		b.warnf("pclouds: rank %d: checkpoint level %d failed, continuing without it: %v", b.c.Rank(), level, saveErr)
	} else {
		b.stats.Checkpoints++
	}
	b.syncCheckpointStats()
	return nil
}

// pruneConsumed is the GC hook: a consumed batch sealed at level M is
// referenced by manifests M-1 and older, all gone once M-1 <= horizon.
func (b *pbuilder) pruneConsumed(horizon int) {
	for m, files := range b.consumed {
		if m-1 > horizon {
			continue
		}
		for _, f := range files {
			b.store.Remove(f)
		}
		delete(b.consumed, m)
	}
}

func (b *pbuilder) syncCheckpointStats() {
	b.stats.CheckpointsPruned, b.stats.CheckpointsKept = b.ckpt.Removed, b.ckpt.Kept
}

// finishCheckpoints is called after a successful build: the tree exists, so
// every checkpoint level and every deferred frontier file is garbage.
func (b *pbuilder) finishCheckpoints() {
	for _, files := range b.consumed {
		for _, f := range files {
			b.store.Remove(f)
		}
	}
	b.consumed = map[int][]string{}
	for _, f := range b.curConsumed {
		b.store.Remove(f)
	}
	b.curConsumed = nil
	b.ckpt.Wipe()
	b.syncCheckpointStats()
}

// resumeState is a loaded checkpoint, ready to re-enter the level loop.
type resumeState struct {
	level  int
	root   *tree.Node
	queue  []*nodeTask
	small  []*nodeTask
	nRoot  int64
	nextID int
}

// loadCheckpoint restores the newest checkpoint level every rank can
// restore (durable.Epochs.Resume): it reads this rank's manifest, rebuilds
// the partial tree from rank 0's, and reconstitutes the frontier tasks —
// samples re-derived from the shared root sample, attach closures
// re-pointed into the decoded tree. A level that fails anywhere (a
// quarantined or missing frontier file, a bit-flipped manifest) steps
// every rank down to the next older level together. Every other level is
// garbage once one restores.
func loadCheckpoint(cfg Config, c comm.Communicator, b *pbuilder, rootSample []record.Record) (*resumeState, error) {
	var st *resumeState
	var m *ckptManifest
	lvl, err := b.ckpt.Resume(c, func(lvl int) error {
		var rerr error
		st, m, rerr = restoreLevel(cfg, c, b, rootSample, lvl)
		return rerr
	})
	if err != nil {
		return nil, err
	}
	if lvl == 0 {
		return nil, ErrNoCheckpoint
	}
	b.removeUnreferenced(lvl, m)
	b.ckpt.Retain(lvl)
	b.syncCheckpointStats()
	return st, nil
}

// restoreLevel attempts to reconstitute one agreed checkpoint level.
// Configuration mismatches are durable.Fatal; any other error steps the
// group down a level. Every rank reaches the Broadcast no matter where its
// local restore failed, so a partially-corrupt level never deadlocks the
// group.
func restoreLevel(cfg Config, c comm.Communicator, b *pbuilder, rootSample []record.Record, lvl int) (*resumeState, *ckptManifest, error) {
	raw, err := b.ckpt.Read(lvl)
	var m *ckptManifest
	if err == nil {
		m, err = decodeManifest(raw)
	}
	if err == nil {
		err = checkManifest(cfg, c, m, lvl)
	}

	// Rank 0 owns the partial tree; everyone decodes the same bytes. A
	// failure on rank 0 broadcasts an empty blob, which every rank turns
	// into the same per-level failure.
	var blob []byte
	if c.Rank() == 0 && err == nil {
		blob = m.Tree
	}
	blob, berr := comm.Broadcast(c, 0, blob)
	if berr != nil {
		return nil, nil, durable.Fatal(berr)
	}
	if err != nil {
		return nil, nil, err
	}
	if len(blob) == 0 {
		return nil, nil, fmt.Errorf("pclouds: resume: rank 0 could not provide the partial tree")
	}
	pt, err := tree.DecodePartial(b.schema, blob)
	if err != nil {
		return nil, nil, fmt.Errorf("pclouds: resume: partial tree: %w", err)
	}
	if pt.Root == nil {
		return nil, nil, fmt.Errorf("pclouds: resume: checkpoint has no built nodes")
	}
	st := &resumeState{level: lvl, root: pt.Root, nRoot: m.NRoot, nextID: m.NextID}
	if st.queue, err = restoreTasks(b, st.root, rootSample, m.Pending); err != nil {
		return nil, nil, err
	}
	if st.small, err = restoreTasks(b, st.root, rootSample, m.Small); err != nil {
		return nil, nil, err
	}
	return st, m, nil
}

// checkManifest validates a decoded manifest against this build. Every
// rank's manifest was written by the same build, so configuration
// mismatches are fatal — stepping down a level could not fix them.
func checkManifest(cfg Config, c comm.Communicator, m *ckptManifest, lvl int) error {
	if m.Level != lvl {
		return fmt.Errorf("pclouds: resume: level %d manifest in the file for level %d", m.Level, lvl)
	}
	if m.Version != ckptVersion {
		return durable.Fatal(fmt.Errorf("pclouds: resume: manifest version %d, want %d", m.Version, ckptVersion))
	}
	if m.Rank != c.Rank() || m.Size != c.Size() {
		return durable.Fatal(fmt.Errorf("pclouds: resume: manifest is for rank %d of %d, this group is rank %d of %d",
			m.Rank, m.Size, c.Rank(), c.Size()))
	}
	if got := cfg.Clouds.Split.String(); m.Split != got {
		return durable.Fatal(fmt.Errorf("pclouds: resume: checkpoint was written with -split-method %s, this build uses %s",
			m.Split, got))
	}
	if m.DataCRC != 0 && cfg.DataChecksum != 0 && m.DataCRC != cfg.DataChecksum {
		return durable.Fatal(fmt.Errorf("pclouds: resume: checkpoint was written against dataset fingerprint %08x, this build reads %08x — refusing to resume on different data",
			m.DataCRC, cfg.DataChecksum))
	}
	return nil
}

// removeUnreferenced deletes the frontier files referenced only by levels
// other than the restored one, before Retain drops those levels: older
// levels' consumed frontiers and newer orphans' (a level incomplete on some
// rank, which the resumed build rewrites).
func (b *pbuilder) removeUnreferenced(lvl int, m *ckptManifest) {
	keep := make(map[string]bool, len(m.Pending)+len(m.Small))
	for _, ts := range [][]ckptTask{m.Pending, m.Small} {
		for _, ct := range ts {
			keep[ct.File] = true
		}
	}
	for _, other := range b.ckpt.List() {
		if other == lvl {
			continue
		}
		raw, err := b.ckpt.Read(other)
		if err != nil {
			continue
		}
		om, err := decodeManifest(raw)
		if err != nil {
			continue
		}
		for _, ts := range [][]ckptTask{om.Pending, om.Small} {
			for _, ct := range ts {
				if !keep[ct.File] {
					b.store.Remove(ct.File)
				}
			}
		}
	}
}

func restoreTasks(b *pbuilder, root *tree.Node, rootSample []record.Record, ck []ckptTask) ([]*nodeTask, error) {
	out := make([]*nodeTask, 0, len(ck))
	for _, ct := range ck {
		t, err := restoreTask(b, root, rootSample, ct)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// restoreTask rebuilds one frontier task from its manifest entry: verify
// the store still holds exactly the records the checkpoint recorded,
// re-derive the task's sample by routing the root sample down its tree
// path, and point its attach closure at the pending slot in the partial
// tree.
func restoreTask(b *pbuilder, root *tree.Node, rootSample []record.Record, ct ckptTask) (*nodeTask, error) {
	n, err := b.store.Count(ct.File)
	if err != nil {
		return nil, fmt.Errorf("pclouds: resume: task %s: %w", ct.ID, err)
	}
	if n != ct.LocalCount {
		return nil, fmt.Errorf("pclouds: resume: task %s: store %q holds %d records, manifest says %d",
			ct.ID, ct.File, n, ct.LocalCount)
	}
	if len(ct.ID) < 2 || ct.ID[0] != 'n' {
		return nil, fmt.Errorf("pclouds: resume: malformed task id %q", ct.ID)
	}
	path := ct.ID[1:] // 'L'/'R' steps from the root

	// Re-derive the sample: the uninterrupted build partitioned the shared
	// root sample once per split along this path; replaying those exact
	// splitters yields the identical slice.
	sample := rootSample
	cur := root
	for i := 0; i < len(path)-1; i++ {
		if cur == nil || cur.Splitter == nil {
			return nil, fmt.Errorf("pclouds: resume: task %s: tree path broken at step %d", ct.ID, i)
		}
		l, r := clouds.PartitionRecords(b.schema, sample, cur.Splitter)
		if path[i] == 'L' {
			sample, cur = l, cur.Left
		} else {
			sample, cur = r, cur.Right
		}
	}
	parent := cur
	if parent == nil || parent.Splitter == nil {
		return nil, fmt.Errorf("pclouds: resume: task %s: parent node missing from partial tree", ct.ID)
	}
	l, r := clouds.PartitionRecords(b.schema, sample, parent.Splitter)
	last := path[len(path)-1]
	var attach func(*tree.Node)
	if last == 'L' {
		sample = l
		attach = func(nd *tree.Node) { parent.Left = nd }
	} else {
		sample = r
		attach = func(nd *tree.Node) { parent.Right = nd }
	}
	return &nodeTask{
		id: ct.ID, file: ct.File, sample: sample, depth: len(path),
		n: ct.N, classCounts: append([]int64(nil), ct.ClassCounts...),
		attach: attach,
		// localStats stays nil: deriveSplit runs its own statistics pass for
		// tasks without fused statistics, producing the identical split.
	}, nil
}
