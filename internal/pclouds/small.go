package pclouds

import (
	"encoding/binary"
	"fmt"
	"sort"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// smallNodePhase is the delayed task-parallel phase: every deferred small
// node is assigned to exactly one processor (cost-based,
// longest-processing-time first), the nodes' data is redistributed in one
// batched all-to-all (compute-dependent parallel I/O), each owner builds
// its subtrees in-memory with the direct method, and the finished subtrees
// are exchanged so every rank attaches identical results.
func (b *pbuilder) smallNodePhase(small []*nodeTask) error {
	if len(small) == 0 {
		return nil
	}
	// The small list is produced in identical BFS order on every rank; sort
	// by id anyway as a belt-and-braces determinism guarantee.
	sort.Slice(small, func(i, j int) bool { return small[i].id < small[j].id })
	b.stats.SmallTasks = len(small)

	p := b.c.Size()
	rank := b.c.Rank()
	owner := assignTasks(small, p)

	// Ship every record of every small node to its owner, batched into one
	// exchange. Frame per task: [u32 taskIdx][u32 n][n records]. Records
	// are encoded straight from the scan into their owner's part, which is
	// presized from the record counts the parent's partition pass wrote.
	rspan := b.rec.Start("small-redistribute")
	rb := b.schema.RecordBytes()
	sizes := make([]int, p)
	for i, t := range small {
		sizes[owner[i]] += 8 + int(t.localN)*rb
	}
	parts := make([][]byte, p)
	for d := range parts {
		parts[d] = make([]byte, 0, sizes[d])
	}
	for i, t := range small {
		d := owner[i]
		head := len(parts[d])
		buf := append(parts[d], make([]byte, 8)...)
		var localN int64
		if err := b.scanFrontier(t.file, func(r *record.Record) error {
			localN++
			buf = r.Encode(buf)
			return nil
		}); err != nil {
			return err
		}
		if localN == 0 {
			buf = buf[:head]
		} else {
			binary.LittleEndian.PutUint32(buf[head:], uint32(i))
			binary.LittleEndian.PutUint32(buf[head+4:], uint32(localN))
		}
		parts[d] = buf
		b.stats.Build.RecordReads += localN
		b.chargeCPU(localN)
		if d != rank {
			b.stats.RecordsShipped += localN
		}
		b.removeFile(t.file)
	}
	recv, err := comm.AllToAll(b.c, parts)
	if err != nil {
		return err
	}

	// Owners assemble their tasks' records.
	taskRecs := make([][]record.Record, len(small))
	for _, raw := range recv {
		if err := decodeTaskRecords(b.schema, raw, taskRecs); err != nil {
			return err
		}
	}
	rspan.End()

	// Build owned subtrees locally; no further communication until the
	// exchange of results.
	bspan := b.rec.Start("small-solve")
	results := make([][]byte, len(small))
	for i, t := range small {
		if owner[i] != rank {
			continue
		}
		nd, st := clouds.BuildSubtree(b.cfg.Clouds, b.schema, taskRecs[i], t.sample, t.depth, b.nRoot)
		b.stats.Build.RecordReads += st.RecordReads
		b.chargeCPU(st.RecordReads)
		b.stats.Build.AlivePoints += st.AlivePoints
		b.stats.Build.BoundaryEvaluated += st.BoundaryEvaluated
		b.stats.Build.AliveIntervals += st.AliveIntervals
		b.stats.Build.SmallNodes += st.SmallNodes
		b.stats.Build.LargeNodes += st.LargeNodes
		results[i] = tree.Encode(&tree.Tree{Schema: b.schema, Root: nd})
	}
	bspan.End()

	// Exchange the encoded subtrees so every rank attaches the same tree.
	espan := b.rec.Start("small-exchange")
	defer espan.End()
	gathered, err := comm.AllGather(b.c, encodeSubtrees(results))
	if err != nil {
		return err
	}
	attached := 0
	for _, raw := range gathered {
		pairs, err := decodeSubtrees(raw)
		if err != nil {
			return err
		}
		for _, pr := range pairs {
			if pr.idx < 0 || pr.idx >= len(small) {
				return fmt.Errorf("pclouds: subtree index %d out of range", pr.idx)
			}
			t, err := tree.Decode(b.schema, pr.blob)
			if err != nil {
				return err
			}
			small[pr.idx].attach(t.Root)
			attached++
		}
	}
	if attached != len(small) {
		return fmt.Errorf("pclouds: attached %d subtrees, expected %d", attached, len(small))
	}
	return nil
}

// assignTasks maps small nodes to owners, longest-processing-time first by
// global node size; deterministic on every rank.
func assignTasks(tasks []*nodeTask, p int) []int {
	idx := make([]int, len(tasks))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if tasks[idx[a]].n != tasks[idx[b]].n {
			return tasks[idx[a]].n > tasks[idx[b]].n
		}
		return tasks[idx[a]].id < tasks[idx[b]].id
	})
	load := make([]int64, p)
	owner := make([]int, len(tasks))
	for _, i := range idx {
		best := 0
		for r := 1; r < p; r++ {
			if load[r] < load[best] {
				best = r
			}
		}
		owner[i] = best
		load[best] += tasks[i].n
	}
	return owner
}

// encodeTaskRecords frames non-empty buckets as [u32 taskIdx][u32 n][n
// records], into a buffer sized up front.
func encodeTaskRecords(buckets [][]record.Record) []byte {
	size := 0
	for _, recs := range buckets {
		if len(recs) > 0 {
			size += 8
		}
		for _, r := range recs {
			size += 8*len(r.Num) + 4*len(r.Cat) + 4
		}
	}
	out := make([]byte, 0, size)
	var b4 [4]byte
	for i, recs := range buckets {
		if len(recs) == 0 {
			continue
		}
		binary.LittleEndian.PutUint32(b4[:], uint32(i))
		out = append(out, b4[:]...)
		binary.LittleEndian.PutUint32(b4[:], uint32(len(recs)))
		out = append(out, b4[:]...)
		for _, r := range recs {
			out = r.Encode(out)
		}
	}
	return out
}

func decodeTaskRecords(schema *record.Schema, src []byte, into [][]record.Record) error {
	rb := schema.RecordBytes()
	for len(src) > 0 {
		if len(src) < 8 {
			return fmt.Errorf("pclouds: truncated task record frame")
		}
		idx := int(binary.LittleEndian.Uint32(src))
		n := int(binary.LittleEndian.Uint32(src[4:]))
		src = src[8:]
		if idx < 0 || idx >= len(into) {
			return fmt.Errorf("pclouds: task record index %d out of range", idx)
		}
		if n < 0 || len(src)/rb < n {
			return fmt.Errorf("pclouds: truncated task record body")
		}
		recs, err := record.AppendDecoded(schema, into[idx], src[:n*rb])
		if err != nil {
			return err
		}
		into[idx] = recs
		src = src[n*rb:]
	}
	return nil
}

type subtreePair struct {
	idx  int
	blob []byte
}

func encodeSubtrees(results [][]byte) []byte {
	var out []byte
	var b8 [8]byte
	for i, blob := range results {
		if blob == nil {
			continue
		}
		binary.LittleEndian.PutUint32(b8[:4], uint32(i))
		out = append(out, b8[:4]...)
		binary.LittleEndian.PutUint64(b8[:], uint64(len(blob)))
		out = append(out, b8[:]...)
		out = append(out, blob...)
	}
	return out
}

func decodeSubtrees(src []byte) ([]subtreePair, error) {
	var out []subtreePair
	for len(src) > 0 {
		if len(src) < 12 {
			return nil, fmt.Errorf("pclouds: truncated subtree frame")
		}
		idx := int(binary.LittleEndian.Uint32(src))
		n := int(binary.LittleEndian.Uint64(src[4:]))
		src = src[12:]
		if n < 0 || n > len(src) {
			return nil, fmt.Errorf("pclouds: corrupt subtree length %d", n)
		}
		out = append(out, subtreePair{idx: idx, blob: src[:n]})
		src = src[n:]
	}
	return out, nil
}
