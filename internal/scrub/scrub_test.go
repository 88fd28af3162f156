package scrub

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
	"pclouds/internal/datagen"
	"pclouds/internal/durable"
	"pclouds/internal/ooc"
	"pclouds/internal/pclouds"
	"pclouds/internal/stream"
	"pclouds/internal/tree"
)

// writeFixtures populates dir with one clean artifact of every kind the
// scrubber classifies and returns the paths of the checksum-protected ones
// (the files where an injected flip must be detected).
func writeFixtures(t *testing.T, dir string) map[string]string {
	t.Helper()
	g, err := datagen.New(datagen.Config{Function: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	d := g.Generate(500)

	// Checksummed v2 record file.
	var buf bytes.Buffer
	if err := d.WriteBinaryV2(&buf, 11); err != nil {
		t.Fatal(err)
	}
	recPath := filepath.Join(dir, "train.bin")
	if err := os.WriteFile(recPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// ooc frame stream, written through the verifying backend.
	store, err := ooc.NewFileStore(d.Schema, dir, costmodel.Zero(), nil)
	if err != nil {
		t.Fatal(err)
	}
	store.EnableIntegrity(ooc.IntegrityOptions{})
	w, err := store.CreateWriter("frontier")
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range d.Records {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Serialised model with checksum footer.
	modelPath := filepath.Join(dir, "model.pcm")
	tr := &tree.Tree{Schema: d.Schema, Root: &tree.Node{ClassCounts: []int64{3, 1}, N: 4}}
	if err := tree.SaveFile(tr, modelPath); err != nil {
		t.Fatal(err)
	}

	// Stream window checkpoint envelope (magic + body + file checksum).
	body := append([]byte(stream.CheckpointMagic), make([]byte, 64)...)
	ckptPath := filepath.Join(dir, "window-000003.ckpt")
	if err := os.WriteFile(ckptPath, binary.LittleEndian.AppendUint32(body, durable.Checksum(body)), 0o644); err != nil {
		t.Fatal(err)
	}

	// Batch level checkpoint (sealed JSON manifest).
	levelPath := filepath.Join(dir, "rank-001.ck")
	if err := os.WriteFile(levelPath, durable.Seal(pclouds.CheckpointMagic, []byte(`{"version":3,"level":1}`)), 0o644); err != nil {
		t.Fatal(err)
	}

	// Unprotected artifacts: a JSON manifest, a legacy v1 record file, and
	// a file the online path already quarantined.
	if err := os.WriteFile(filepath.Join(dir, "rank0.json"), []byte(`{"version":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "legacy.bin"), bytes.Repeat([]byte{0xff}, 256), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad"+ooc.QuarantineSuffix), []byte("whatever"), 0o644); err != nil {
		t.Fatal(err)
	}

	return map[string]string{
		"record-v2":   recPath,
		"ooc-frames":  filepath.Join(dir, "frontier"),
		"model":       modelPath,
		"stream-ckpt": ckptPath,
		"level-ckpt":  levelPath,
	}
}

func TestScrubCleanFixtures(t *testing.T) {
	dir := t.TempDir()
	writeFixtures(t, dir)
	results, sum, err := Dir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Fail != 0 {
		t.Fatalf("clean fixture dir failed scrub: %+v\n%v", sum, results)
	}
	want := map[string]Status{
		"record-v2": StatusOK, "ooc-frames": StatusOK, "model": StatusOK,
		"stream-ckpt": StatusOK, "json": StatusNote, "unknown": StatusNote,
		"quarantined": StatusSkip, "level-ckpt": StatusOK,
	}
	got := map[string]Status{}
	for _, r := range results {
		got[r.Kind] = r.Status
	}
	for kind, status := range want {
		if got[kind] != status {
			t.Errorf("kind %s: status %s, want %s", kind, got[kind], status)
		}
	}
}

// TestScrubFindsEveryInjectedCorruption is the acceptance criterion: a
// single flipped byte anywhere past the magic in any protected artifact
// must be a FAIL — head, interior, and tail of each file — and a flipped
// magic byte must demote the file to unverifiable, never pass it as OK.
func TestScrubFindsEveryInjectedCorruption(t *testing.T) {
	cleanDir := t.TempDir()
	protected := writeFixtures(t, cleanDir)
	// Offsets past each format's magic: header field, interior, last byte.
	magicLen := map[string]int{"record-v2": 8, "ooc-frames": 4, "model": 4, "stream-ckpt": 8, "level-ckpt": 8}

	badDir := t.TempDir()
	var wantFail int
	for kind, src := range protected {
		raw, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for i, off := range []int{magicLen[kind], len(raw) / 2, len(raw) - 1} {
			bad := append([]byte(nil), raw...)
			bad[off] ^= 0x20
			p := filepath.Join(badDir, kind+string(rune('a'+i)))
			if err := os.WriteFile(p, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			wantFail++
		}
	}
	// Malformed manifest.
	if err := os.WriteFile(filepath.Join(badDir, "rank0.json"), []byte(`{"version":`), 0o644); err != nil {
		t.Fatal(err)
	}
	wantFail++

	results, sum, err := Dir(badDir)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Fail != wantFail {
		t.Errorf("detected %d of %d injected corruptions", sum.Fail, wantFail)
	}
	for _, r := range results {
		if r.Status != StatusFail {
			t.Errorf("%s (%s): %s %s — corruption passed the scrub", r.Path, r.Kind, r.Status, r.Detail)
		}
	}

	// A flip inside the magic itself reclassifies the file as unverifiable;
	// the scrub must report that, not pass it.
	raw, err := os.ReadFile(protected["record-v2"])
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0x01
	p := filepath.Join(t.TempDir(), "wiped-magic.bin")
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if r := File(p); r.Status == StatusOK {
		t.Errorf("wiped magic scrubbed as OK: %+v", r)
	}
}

// TestScrubVerifiesRealCheckpoints: every checkpoint file the batch build
// and the streaming engine actually write scrubs OK, and one flipped bit
// in any of them scrubs FAIL.
func TestScrubVerifiesRealCheckpoints(t *testing.T) {
	const p = 2
	g, err := datagen.New(datagen.Config{Function: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	d := g.Generate(3000)
	dir := t.TempDir()

	bcfg := pclouds.Config{
		Clouds: clouds.Config{Method: clouds.SSE, QRoot: 64, QMin: 8, SmallNodeQ: 4,
			SampleSize: 400, MinNodeSize: 2, MaxDepth: 12, Seed: 7},
		CheckpointDir:  filepath.Join(dir, "batch"),
		StopAfterLevel: 2,
	}
	sample := bcfg.Clouds.SampleFor(d)
	err = comm.Run(p, costmodel.Zero(), func(c *comm.ChannelComm) error {
		store := ooc.NewMemStore(d.Schema, costmodel.Zero(), c.Clock())
		w, err := store.CreateWriter("root")
		if err != nil {
			return err
		}
		for i := c.Rank(); i < d.Len(); i += p {
			if err := w.Write(d.Records[i]); err != nil {
				return err
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
		if _, _, err := pclouds.Build(bcfg, c, store, "root", sample); !errors.Is(err, pclouds.ErrStopped) {
			return fmt.Errorf("batch rank %d: want ErrStopped, got %v", c.Rank(), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	scfg := stream.Config{
		Schema:        datagen.Schema(),
		Clouds:        clouds.Config{Split: clouds.SplitHist, HistBins: 8, MaxDepth: 6, MinNodeSize: 2, Seed: 1},
		WindowRecords: 200, SampleEvery: 2, ReservoirCap: 600, RefreshEvery: 3, GrowMinRecords: 20,
		MaxWindows: 3, CheckpointDir: filepath.Join(dir, "stream"),
	}
	err = comm.Run(p, costmodel.Zero(), func(c *comm.ChannelComm) error {
		src, err := stream.NewSynthetic(datagen.Config{Function: 2, Seed: 42}, 0)
		if err != nil {
			return err
		}
		defer src.Close()
		_, err = stream.Run(scfg, c, src)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	results, sum, err := Dir(dir)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, r := range results {
		kinds[r.Kind]++
		if r.Status != StatusOK {
			t.Errorf("%s (%s): %s %s", r.Path, r.Kind, r.Status, r.Detail)
		}
	}
	// Two retained levels and two retained windows, one file per rank each.
	if kinds["level-ckpt"] != 2*p || kinds["stream-ckpt"] != 2*p || sum.OK != 4*p {
		t.Fatalf("scrubbed %v (%+v), want %d level and %d window checkpoints", kinds, sum, 2*p, 2*p)
	}

	for _, r := range results {
		raw, err := os.ReadFile(r.Path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x01
		bad := filepath.Join(t.TempDir(), filepath.Base(r.Path))
		if err := os.WriteFile(bad, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if got := File(bad); got.Status != StatusFail {
			t.Errorf("flipped %s scrubbed %s (%s)", r.Path, got.Status, got.Detail)
		}
	}
}
