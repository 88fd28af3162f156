package stream

import (
	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
	"pclouds/internal/durable"
	"pclouds/internal/record"
)

// Single-rank views of the window checkpoint protocol for codec-level
// tests: writeCkpt is the local half of a commit (no vote, no GC),
// newestCkpt runs the real restore ladder for one rank over a group of one.

func ckptPath(dir string, rank, window int) string {
	return (&durable.Epochs{Dir: dir, Rank: rank}).Path(window)
}

func writeCkpt(dir string, rank int, fp, srcCRC uint32, st *ckptState) error {
	return (&durable.Epochs{Dir: dir, Rank: rank}).Write(st.window, encodeCkpt(fp, srcCRC, st))
}

func newestCkpt(dir string, rank int, schema *record.Schema, fp, srcCRC uint32) (*ckptState, error) {
	c := comm.NewGroup(1, costmodel.Zero())[0]
	return restoreCkpt(c, &durable.Epochs{Dir: dir, Rank: rank}, schema, fp, srcCRC)
}
