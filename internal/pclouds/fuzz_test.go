package pclouds

import (
	"bytes"
	"testing"

	"pclouds/internal/datagen"
	"pclouds/internal/durable"
	"pclouds/internal/tree"
)

// FuzzDecodeManifest hammers the level checkpoint decoder with arbitrary
// bytes: it must reject garbage with an error, never panic, and anything
// it accepts must re-encode byte-identically (the seal admits only bytes
// the encoder wrote).
func FuzzDecodeManifest(f *testing.F) {
	partial := tree.EncodePartial(&tree.Tree{Schema: datagen.Schema(), Root: &tree.Node{
		Splitter:    &tree.Splitter{Kind: tree.NumericSplit, Attr: 0, Threshold: 30},
		N:           200,
		ClassCounts: []int64{120, 80},
	}})
	full, err := encodeManifest(&ckptManifest{
		Version: ckptVersion, Level: 2, Rank: 0, Size: 2, NRoot: 200, NextID: 3,
		Split: "sse", DataCRC: 0xabcd1234,
		Pending: []ckptTask{{ID: "nL", File: "root-1L", N: 120, ClassCounts: []int64{100, 20}, LocalCount: 61}},
		Small:   []ckptTask{{ID: "nR", File: "root-1R", N: 80, ClassCounts: []int64{20, 60}, LocalCount: 39}},
		Tree:    partial,
	})
	if err != nil {
		f.Fatal(err)
	}
	empty, err := encodeManifest(&ckptManifest{Version: ckptVersion, Level: 1, Size: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(empty)
	f.Add(full[:len(full)-1])
	f.Add([]byte{})
	f.Add([]byte(CheckpointMagic))
	f.Add(durable.Seal(CheckpointMagic, []byte(`{"level":`)))
	f.Add(durable.Seal(CheckpointMagic, []byte(`{"pending":[{"n":-1}],"tree":"!!"}`)))

	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := decodeManifest(raw)
		if err != nil {
			return
		}
		re, err := encodeManifest(m)
		if err != nil {
			t.Fatalf("accepted manifest does not re-encode: %v", err)
		}
		if !bytes.Equal(re, raw) {
			t.Fatalf("accepted %d bytes that re-encode to %d different bytes", len(raw), len(re))
		}
	})
}
