package pclouds

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// Per-level checkpoint/restart. The level-order build has a natural
// synchronisation point after every completed tree level: each rank holds
// exactly one store file per frontier task, every rank agrees on the task
// list, and rank 0's partial tree contains every node built so far. At that
// point each rank persists a manifest of its frontier (and rank 0 the
// partial tree) atomically — temp file, fsync, rename, the tree.SaveFile
// pattern — so a later run can resume from the last complete level instead
// of rebuilding from scratch. The resumed build re-derives frontier samples
// by routing the shared root sample through the partial tree's splitters
// and re-runs each frontier node's statistics pass (deriveSplit handles
// tasks without fused statistics), which reproduces the uninterrupted
// build's tree bit-identically.
//
// Checkpoints live in per-level directories (level-0001, level-0002, …)
// under Config.CheckpointDir. Levels are written independently by each
// rank; a commit collective after every level tells all ranks whether the
// level is complete everywhere, gating garbage collection. Because a crash
// can land between two ranks' checkpoint writes, ranks may legitimately
// disagree by one level; resume therefore agrees (collectively) on the
// newest level complete on *every* rank and restores from that. To make
// the one-level fallback possible, a consumed frontier file is not deleted
// when the build partitions it — its removal is deferred until every
// checkpoint level referencing it has been pruned (keepLevels bounds the
// retained window, so disk stays bounded).
//
// Degraded mode: a storage error during a checkpoint write is a warning,
// not a build failure — the rank reports the level unusable in the commit
// collective, every rank skips that level's GC, and the build carries on.
// Resume simply never selects the incomplete level.
//
// What is NOT checkpointed: progress inside a level or inside the deferred
// small-node phase. A crash there resumes from the preceding level
// boundary; if the crash corrupted the frontier's store files, the
// record-count verification below fails the resume with an explicit error
// rather than building from torn data.

// ckptVersion guards manifest compatibility. Version 2 moved checkpoints
// into per-level directories with deferred frontier-file removal.
const ckptVersion = 2

// keepLevels is the retained checkpoint window: committing level L prunes
// levels <= L-keepLevels. Two levels suffice — the commit collective after
// every level bounds inter-rank skew to one level, so the newest level
// complete on every rank is always L or L-1.
const keepLevels = 2

// ErrStopped is returned by Build when Config.StopAfterLevel ended the
// build early at a checkpoint boundary: the checkpoint is complete and the
// build is resumable, but no tree was produced. Chaos tests use it as a
// deterministic, rank-synchronised "kill".
var ErrStopped = errors.New("pclouds: build stopped after checkpointed level")

// ErrNoCheckpoint is returned by a resume when no checkpoint level is
// complete on every rank. With Config.ResumeAuto the build falls back to a
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
	// Empty (manifests from before the field existed) means "sse".
	Split string `json:"split,omitempty"`
	// DataCRC is the fingerprint of the dataset the build read (the v2
	// record-file header checksum, Config.DataChecksum). A resume whose
	// build reads a dataset with a different fingerprint is refused; zero
	// (either side) means unknown and skips the check.
	DataCRC uint32     `json:"data_crc,omitempty"`
	Pending []ckptTask `json:"pending"`
	Small   []ckptTask `json:"small"`
}

func levelDir(dir string, level int) string {
	return filepath.Join(dir, fmt.Sprintf("level-%04d", level))
}

func manifestPath(dir string, level, rank int) string {
	return filepath.Join(levelDir(dir, level), fmt.Sprintf("rank%d.json", rank))
}

func treePath(dir string, level int) string {
	return filepath.Join(levelDir(dir, level), "tree.bin")
}

// listLevels returns, ascending, the checkpoint levels under dir that hold
// this rank's manifest (and, on rank 0, the partial tree). Levels another
// rank wrote but this rank did not are this rank's holes — the resume
// agreement below routes around them.
func listLevels(dir string, rank int) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var levels []int
	for _, e := range ents {
		var lvl int
		if !e.IsDir() {
			continue
		}
		if _, err := fmt.Sscanf(e.Name(), "level-%d", &lvl); err != nil || lvl < 1 {
			continue
		}
		if _, err := os.Stat(manifestPath(dir, lvl, rank)); err != nil {
			continue
		}
		if rank == 0 {
			if _, err := os.Stat(treePath(dir, lvl)); err != nil {
				continue
			}
		}
		levels = append(levels, lvl)
	}
	sort.Ints(levels)
	return levels, nil
}

// atomicWrite persists data to path via temp+fsync+rename, the same
// all-or-nothing discipline as tree.SaveFile.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
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

// writeCheckpoint persists one completed level into its level directory:
// this rank's manifest, and on rank 0 the partial tree. Every rank writes
// independently; completeness is established by the commit collective in
// checkpointLevel.
func (b *pbuilder) writeCheckpoint(dir string, level int, root *tree.Node, pending, small []*nodeTask) error {
	if err := os.MkdirAll(levelDir(dir, level), 0o755); err != nil {
		return fmt.Errorf("pclouds: checkpoint dir: %w", err)
	}
	m := ckptManifest{
		Version: ckptVersion, Level: level,
		Rank: b.c.Rank(), Size: b.c.Size(),
		NRoot: b.nRoot, NextID: b.nextID,
		Split:   b.cfg.Clouds.Split.String(),
		DataCRC: b.cfg.DataChecksum,
	}
	var err error
	if m.Pending, err = taskManifest(b, pending); err != nil {
		return err
	}
	if m.Small, err = taskManifest(b, small); err != nil {
		return err
	}
	if b.c.Rank() == 0 {
		// The checksum footer lets a resume reject a bit-flipped partial
		// tree instead of decoding garbage (tree.StripChecksum verifies it).
		blob := tree.AppendChecksum(tree.EncodePartial(&tree.Tree{Schema: b.schema, Root: root}))
		if err := atomicWrite(treePath(dir, level), blob); err != nil {
			return fmt.Errorf("pclouds: checkpoint tree: %w", err)
		}
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := atomicWrite(manifestPath(dir, level, m.Rank), data); err != nil {
		return fmt.Errorf("pclouds: checkpoint manifest: %w", err)
	}
	b.stats.Checkpoints++
	b.rec.Count("checkpoints", 1)
	return nil
}

// checkpointLevel writes this rank's checkpoint for the just-completed
// level, then runs the commit collective: every rank learns whether the
// level is complete everywhere. Only a globally complete level triggers
// garbage collection of superseded levels; a rank whose write failed logs
// the failure and the build continues without that level (degraded mode).
// The only fatal errors here are communication failures.
func (b *pbuilder) checkpointLevel(level int, root *tree.Node, pending, small []*nodeTask) error {
	ok := int64(1)
	if werr := b.writeCheckpoint(b.cfg.CheckpointDir, level, root, pending, small); werr != nil {
		ok = 0
		b.stats.CheckpointFailures++
		b.rec.Count("checkpoint-failures", 1)
		b.warnf("pclouds: rank %d: checkpoint level %d failed, continuing without it: %v", b.c.Rank(), level, werr)
	}
	allOK, err := comm.AllReduceInt64(b.c, []int64{ok}, minI64)
	if err != nil {
		return err
	}
	// Seal the batch of frontier files consumed while building this level:
	// they are referenced by manifests of level-1 and older, so they become
	// deletable once level-1 is pruned, whether or not this level's own
	// checkpoint is usable.
	if len(b.curConsumed) > 0 {
		b.consumed[level] = b.curConsumed
		b.curConsumed = nil
	}
	if allOK[0] == 0 {
		// The level is unusable on some rank. Nobody prunes, so the newest
		// globally complete level — and every file its restore needs —
		// survives for the next resume.
		return nil
	}
	b.gcCheckpoints(level)
	return nil
}

// gcCheckpoints prunes checkpoint state superseded by the globally
// committed level: level directories <= level-keepLevels (each rank removes
// only its own files, so concurrent ranks sharing one checkpoint directory
// never race), and the deferred frontier-file removals whose referencing
// manifests are now all gone. GC errors are warnings — leaking a stale
// level never corrupts a build.
func (b *pbuilder) gcCheckpoints(level int) {
	dir := b.cfg.CheckpointDir
	levels, err := listLevels(dir, b.c.Rank())
	if err != nil {
		b.warnf("pclouds: rank %d: checkpoint GC: %v", b.c.Rank(), err)
		return
	}
	kept := 0
	for _, lvl := range levels {
		if lvl > level-keepLevels {
			kept++
			continue
		}
		b.removeLevel(lvl)
		b.stats.CheckpointsPruned++
		b.rec.Count("checkpoints-pruned", 1)
	}
	b.stats.CheckpointsKept = kept
	// A consumed batch sealed at level M is referenced by manifests M-1 and
	// older; all of those are pruned once M-1 <= level-keepLevels.
	for m, files := range b.consumed {
		if m-1 > level-keepLevels {
			continue
		}
		for _, f := range files {
			b.store.Remove(f)
		}
		delete(b.consumed, m)
	}
}

// removeLevel deletes this rank's artifacts of one checkpoint level (its
// manifest; on rank 0 also the partial tree) and removes the level
// directory once it is empty.
func (b *pbuilder) removeLevel(lvl int) {
	dir := b.cfg.CheckpointDir
	os.Remove(manifestPath(dir, lvl, b.c.Rank()))
	if b.c.Rank() == 0 {
		os.Remove(treePath(dir, lvl))
	}
	// Succeeds only for the last rank out; earlier ranks' attempts fail
	// with ENOTEMPTY, which is fine.
	os.Remove(levelDir(dir, lvl))
}

// cleanOwnCheckpoints removes this rank's manifests from every checkpoint
// level before a fresh build starts writing level 1. Without it, levels
// left over from an earlier run could look newer than the fresh build's
// own checkpoints and poison a later resume.
func (b *pbuilder) cleanOwnCheckpoints() {
	levels, err := listLevels(b.cfg.CheckpointDir, b.c.Rank())
	if err != nil {
		b.warnf("pclouds: rank %d: cleaning stale checkpoints: %v", b.c.Rank(), err)
		return
	}
	for _, lvl := range levels {
		b.removeLevel(lvl)
	}
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
	levels, err := listLevels(b.cfg.CheckpointDir, b.c.Rank())
	if err != nil {
		b.warnf("pclouds: rank %d: checkpoint cleanup: %v", b.c.Rank(), err)
		return
	}
	for _, lvl := range levels {
		b.removeLevel(lvl)
		b.stats.CheckpointsPruned++
	}
	b.stats.CheckpointsKept = 0
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

// agreeLevel finds the newest checkpoint level at most bound complete on
// every rank. The loop is collective and deterministic: starting from the
// minimum of every rank's newest level, it steps down until a candidate
// exists everywhere (degraded-mode holes make "min of newest" insufficient
// on its own). The bound lets the restore ladder exclude levels already
// tried and found corrupt. Returns ErrNoCheckpoint — on every rank — when
// no common level exists.
func agreeLevel(c comm.Communicator, levels []int, bound int) (int, error) {
	newestAtMost := func(bound int) int64 {
		for i := len(levels) - 1; i >= 0; i-- {
			if levels[i] <= bound {
				return int64(levels[i])
			}
		}
		return 0
	}
	cand, err := comm.AllReduceInt64(c, []int64{newestAtMost(bound)}, minI64)
	if err != nil {
		return 0, err
	}
	for cand[0] >= 1 {
		have := int64(0)
		for _, l := range levels {
			if int64(l) == cand[0] {
				have = 1
			}
		}
		all, err := comm.AllReduceInt64(c, []int64{have}, minI64)
		if err != nil {
			return 0, err
		}
		if all[0] == 1 {
			return int(cand[0]), nil
		}
		cand, err = comm.AllReduceInt64(c, []int64{newestAtMost(int(cand[0]) - 1)}, minI64)
		if err != nil {
			return 0, err
		}
	}
	return 0, ErrNoCheckpoint
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// loadCheckpoint agrees with every other rank on the newest checkpoint
// level complete everywhere, reads this rank's manifest for it, rebuilds
// the partial tree from rank 0's blob, reconstitutes the frontier tasks —
// samples re-derived from the shared root sample, attach closures
// re-pointed into the decoded tree — and finally garbage-collects every
// other (older or orphaned) checkpoint level.
//
// With Config.Integrity on, a level whose restore fails anywhere (a
// quarantined frontier file, a checksum-failing partial tree, an unreadable
// manifest) does not fail the resume outright: the ladder steps the agreed
// bound below it and tries the next-newest level complete everywhere, until
// a level restores cleanly or no candidates remain (ErrNoCheckpoint). The
// step-down is collective — every rank fails restoreLevel's all-or-nothing
// vote together — so ranks never diverge on which level they resume from.
func loadCheckpoint(cfg Config, c comm.Communicator, b *pbuilder, rootSample []record.Record) (*resumeState, error) {
	dir := cfg.CheckpointDir
	levels, err := listLevels(dir, c.Rank())
	if err != nil {
		return nil, fmt.Errorf("pclouds: resume: %w", err)
	}
	bound := int(^uint(0) >> 1)
	for {
		lvl, err := agreeLevel(c, levels, bound)
		if err != nil {
			return nil, err
		}
		st, m, restoreErr, err := restoreLevel(cfg, c, b, rootSample, dir, lvl)
		if err != nil {
			return nil, err
		}
		if restoreErr == nil {
			gcAfterRestore(b, dir, levels, lvl, m)
			return st, nil
		}
		if !cfg.Integrity {
			return nil, restoreErr
		}
		b.warnf("pclouds: rank %d: resume from checkpoint level %d failed (%v); trying an older level",
			c.Rank(), lvl, restoreErr)
		bound = lvl - 1
	}
}

// restoreLevel attempts to reconstitute one agreed checkpoint level. The
// outcome is split: err is fatal (communication failures, configuration
// mismatches — identical on every rank by construction); restoreErr is a
// per-level failure the integrity ladder may step past. Every rank reaches
// the Broadcast and the all-or-nothing vote no matter where its local
// restore failed, so a partially-corrupt level can never deadlock the
// group.
func restoreLevel(cfg Config, c comm.Communicator, b *pbuilder, rootSample []record.Record, dir string, lvl int) (*resumeState, ckptManifest, error, error) {
	var m ckptManifest
	var localErr error
	data, err := os.ReadFile(manifestPath(dir, lvl, c.Rank()))
	if err != nil {
		localErr = fmt.Errorf("pclouds: resume: %w", err)
	} else if err := json.Unmarshal(data, &m); err != nil {
		localErr = fmt.Errorf("pclouds: resume: corrupt manifest: %w", err)
	}
	if localErr == nil {
		// Configuration mismatches are symmetric — every rank's manifest was
		// written by the same build — so failing before the collectives is
		// safe, and stepping down a level could not fix them anyway.
		if m.Version != ckptVersion {
			return nil, m, nil, fmt.Errorf("pclouds: resume: manifest version %d, want %d", m.Version, ckptVersion)
		}
		if m.Rank != c.Rank() || m.Size != c.Size() {
			return nil, m, nil, fmt.Errorf("pclouds: resume: manifest is for rank %d of %d, this group is rank %d of %d",
				m.Rank, m.Size, c.Rank(), c.Size())
		}
		ckptSplit := m.Split
		if ckptSplit == "" {
			ckptSplit = clouds.SplitSSE.String()
		}
		if got := cfg.Clouds.Split.String(); ckptSplit != got {
			return nil, m, nil, fmt.Errorf("pclouds: resume: checkpoint was written with -split-method %s, this build uses %s",
				ckptSplit, got)
		}
		if m.DataCRC != 0 && cfg.DataChecksum != 0 && m.DataCRC != cfg.DataChecksum {
			return nil, m, nil, fmt.Errorf("pclouds: resume: checkpoint was written against dataset fingerprint %08x, this build reads %08x — refusing to resume on different data",
				m.DataCRC, cfg.DataChecksum)
		}
	}

	// Rank 0 owns the partial tree; everyone decodes the same bytes. A
	// read or checksum failure on rank 0 broadcasts an empty blob, which
	// every rank turns into the same per-level failure.
	var blob []byte
	if c.Rank() == 0 && localErr == nil {
		tb, terr := os.ReadFile(treePath(dir, lvl))
		if terr == nil {
			tb, _, terr = tree.StripChecksum(tb)
		}
		if terr != nil {
			localErr = fmt.Errorf("pclouds: resume: partial tree: %w", terr)
		} else {
			blob = tb
		}
	}
	blob, err = comm.Broadcast(c, 0, blob)
	if err != nil {
		return nil, m, nil, err
	}
	st := &resumeState{level: m.Level, nRoot: m.NRoot, nextID: m.NextID}
	if localErr == nil {
		if len(blob) == 0 {
			localErr = fmt.Errorf("pclouds: resume: rank 0 could not provide the partial tree")
		} else if pt, perr := tree.DecodePartial(b.schema, blob); perr != nil {
			localErr = fmt.Errorf("pclouds: resume: partial tree: %w", perr)
		} else if pt.Root == nil {
			localErr = fmt.Errorf("pclouds: resume: checkpoint has no built nodes")
		} else {
			st.root = pt.Root
		}
	}
	if localErr == nil {
		if st.queue, localErr = restoreTasks(b, st.root, rootSample, m.Pending); localErr == nil {
			st.small, localErr = restoreTasks(b, st.root, rootSample, m.Small)
		}
	}
	// Resume is all-or-nothing: if any rank's restore failed, every rank
	// must agree here — a rank that proceeded alone would block forever in
	// the first collective of the level loop.
	ok := int64(1)
	if localErr != nil {
		ok = 0
	}
	allOK, err := comm.AllReduceInt64(c, []int64{ok}, minI64)
	if err != nil {
		return nil, m, nil, err
	}
	if localErr != nil {
		return nil, m, localErr, nil
	}
	if allOK[0] == 0 {
		return nil, m, fmt.Errorf("pclouds: resume: another rank failed to restore checkpoint level %d", lvl), nil
	}
	return st, m, nil, nil
}

// gcAfterRestore runs once the restore is committed; every other
// checkpoint level is garbage. Older levels were superseded; newer ones are
// orphans — incomplete on some rank (this rank possibly ahead of a crashed
// peer). The resumed build rewrites them. Frontier files referenced only by
// a pruned orphan (not by the restored level) are deleted with it.
func gcAfterRestore(b *pbuilder, dir string, levels []int, lvl int, m ckptManifest) {
	c := b.c
	keep := make(map[string]bool, len(m.Pending)+len(m.Small))
	for _, ct := range m.Pending {
		keep[ct.File] = true
	}
	for _, ct := range m.Small {
		keep[ct.File] = true
	}
	for _, other := range levels {
		if other == lvl {
			continue
		}
		var om ckptManifest
		if data, err := os.ReadFile(manifestPath(dir, other, c.Rank())); err == nil && json.Unmarshal(data, &om) == nil {
			for _, ct := range append(om.Pending, om.Small...) {
				if !keep[ct.File] {
					b.store.Remove(ct.File)
				}
			}
		}
		b.removeLevel(other)
		b.stats.CheckpointsPruned++
		b.rec.Count("checkpoints-pruned", 1)
	}
	b.stats.CheckpointsKept = 1
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
