package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"pclouds/internal/comm"
	"pclouds/internal/durable"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// Window checkpoints. After every committed window each rank persists its
// replicated engine state — committed window count, the stream high-water
// mark, the current tree and the sample reservoir — as its epoch file in
// Config.CheckpointDir, through the collective epoch protocol of
// internal/durable (write, commit vote, vote-gated GC, collective agree
// and step-down on resume). The state is identical on every rank (that is
// the engine's core invariant), but each rank writes its own copy so
// recovery never depends on a file written by the rank that died.
//
// File layout: a durable sealed file (magic "PCSTRMW3", body, CRC-32C
// trailer over every preceding byte, so any bit flip is detected at the
// door); the body, little-endian:
//
//	fingerprint  u32  config fingerprint; a mismatch makes the window
//	                  unrestorable
//	sourceCRC    u32  tailed file's v2 header checksum (0 = unbound); a
//	                  mismatch refuses to resume on a swapped dataset
//	window       u32  committed windows
//	nextIdx      i64  global stream index of the first unprocessed record
//	treeLen      u32  tree.Encode bytes (0 = no model yet)
//	tree         treeLen bytes
//	resCount     u32  reservoir records, fixed-width record encoding
//	reservoir    resCount * Schema.RecordBytes() bytes
//	driftPending u8   1 = an adaptive refresh is scheduled
//	detN         i64  Page–Hinkley observation count
//	detSum       f64  Σ error rates (bit-exact, math.Float64bits)
//	detM         f64  cumulative deviation statistic
//	detMin       f64  running minimum of detM
//	lastPubWin   u32  window of the last gate-passed model (0 = none)
//	lastPubLen   u32  tree.Encode bytes of that model (0 = none)
//	lastPub      lastPubLen bytes
//
// The drift detector and last-published model are part of the replicated
// state machine: the publish gate compares every candidate against the
// last model that passed it, so a resume that lost either would fork the
// published sequence. Encoding the detector's floats bit-exactly keeps
// the resumed alarm window identical to the uninterrupted run's.

// CheckpointMagic begins every window checkpoint file.
const CheckpointMagic = "PCSTRMW3"

// ErrSourceMismatch is returned when a checkpoint was written against a
// different dataset than the one this run reads (the bound v2 header
// checksums differ). Unlike ordinary checkpoint damage — which degrades to
// an older window — a swapped dataset is refused outright: replaying a
// different stream from a retained high-water mark would silently train on
// data the checkpointed state never saw.
var ErrSourceMismatch = errors.New("stream: checkpoint bound to a different dataset")

// ckptState is the replicated engine state one checkpoint round-trips.
type ckptState struct {
	window       int
	srcCRC       uint32 // dataset fingerprint stored in the file (0 = unbound)
	nextIdx      int64
	tree         *tree.Tree // nil before the first refresh
	reservoir    []record.Record
	det          phDetector
	driftPending bool
	lastPub      *tree.Tree // last gate-passed model; nil before the first publish
	lastPubWin   int
}

// fingerprint hashes every configuration knob that shapes the deterministic
// state machine. Resuming under a different configuration would silently
// diverge the replay, so it is refused instead.
func (cfg *Config) fingerprint() uint32 {
	h := fnv.New32a()
	fmt.Fprintf(h, "%d|%d|%d|%d|%d|%d|%d|%d|%d|%d",
		cfg.WindowRecords, cfg.SampleEvery, cfg.ReservoirCap, cfg.RefreshEvery,
		cfg.GrowMinRecords, cfg.Clouds.HistBins, cfg.Clouds.Seed, int(cfg.Clouds.Split),
		cfg.Clouds.MaxDepth, cfg.Schema.RecordBytes())
	fmt.Fprintf(h, "|%d|%g|%g|%g",
		cfg.HoldoutEvery, cfg.DriftDelta, cfg.DriftLambda, cfg.GateTolerance)
	return h.Sum32()
}

func encodeCkpt(fp, srcCRC uint32, st *ckptState) []byte {
	var treeBytes []byte
	if st.tree != nil {
		treeBytes = tree.Encode(st.tree)
	}
	var lastPubBytes []byte
	if st.lastPub != nil {
		lastPubBytes = tree.Encode(st.lastPub)
	}
	res := record.EncodeAll(st.reservoir)
	out := make([]byte, 0, 4+4+4+8+4+len(treeBytes)+4+len(res)+1+8+24+4+4+len(lastPubBytes))
	out = binary.LittleEndian.AppendUint32(out, fp)
	out = binary.LittleEndian.AppendUint32(out, srcCRC)
	out = binary.LittleEndian.AppendUint32(out, uint32(st.window))
	out = binary.LittleEndian.AppendUint64(out, uint64(st.nextIdx))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(treeBytes)))
	out = append(out, treeBytes...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(st.reservoir)))
	out = append(out, res...)
	var pending byte
	if st.driftPending {
		pending = 1
	}
	out = append(out, pending)
	out = binary.LittleEndian.AppendUint64(out, uint64(st.det.n))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(st.det.sum))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(st.det.m))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(st.det.min))
	out = binary.LittleEndian.AppendUint32(out, uint32(st.lastPubWin))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(lastPubBytes)))
	out = append(out, lastPubBytes...)
	return durable.Seal(CheckpointMagic, out)
}

func decodeCkpt(schema *record.Schema, fp, srcCRC uint32, src []byte) (*ckptState, error) {
	src, err := durable.Unseal(CheckpointMagic, src)
	if err != nil {
		return nil, fmt.Errorf("stream: window checkpoint: %w", err)
	}
	if len(src) < 4+4+4+8+4 {
		return nil, fmt.Errorf("stream: truncated window checkpoint")
	}
	if got := binary.LittleEndian.Uint32(src); got != fp {
		return nil, fmt.Errorf("stream: checkpoint fingerprint %08x does not match configuration %08x (window size, sampling, seed or split changed)", got, fp)
	}
	stored := binary.LittleEndian.Uint32(src[4:])
	if stored != 0 && srcCRC != 0 && stored != srcCRC {
		return nil, fmt.Errorf("%w: checkpoint bound to dataset fingerprint %08x, this run reads %08x", ErrSourceMismatch, stored, srcCRC)
	}
	st := &ckptState{srcCRC: stored}
	st.window = int(binary.LittleEndian.Uint32(src[8:]))
	st.nextIdx = int64(binary.LittleEndian.Uint64(src[12:]))
	treeLen := int(binary.LittleEndian.Uint32(src[20:]))
	src = src[24:]
	if len(src) < treeLen+4 {
		return nil, fmt.Errorf("stream: truncated checkpoint tree")
	}
	if treeLen > 0 {
		t, err := tree.Decode(schema, src[:treeLen])
		if err != nil {
			return nil, fmt.Errorf("stream: checkpoint tree: %w", err)
		}
		// Validate at the door: a bit-flipped checkpoint that still decodes
		// would otherwise resume and only fail windows later at the commit
		// gate. Rejecting here degrades recovery to an older checkpoint.
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("stream: checkpoint tree: %w", err)
		}
		st.tree = t
	}
	src = src[treeLen:]
	resCount := int(binary.LittleEndian.Uint32(src))
	src = src[4:]
	resLen := resCount * schema.RecordBytes()
	if resCount < 0 || resLen < 0 || len(src) < resLen {
		return nil, fmt.Errorf("stream: checkpoint reservoir: %d bytes for %d records", len(src), resCount)
	}
	recs, err := record.DecodeAll(schema, src[:resLen])
	if err != nil {
		return nil, fmt.Errorf("stream: checkpoint reservoir: %w", err)
	}
	st.reservoir = recs
	src = src[resLen:]
	if len(src) < 1+8+24+4+4 {
		return nil, fmt.Errorf("stream: truncated checkpoint drift state")
	}
	st.driftPending = src[0] != 0
	st.det.n = int64(binary.LittleEndian.Uint64(src[1:]))
	st.det.sum = math.Float64frombits(binary.LittleEndian.Uint64(src[9:]))
	st.det.m = math.Float64frombits(binary.LittleEndian.Uint64(src[17:]))
	st.det.min = math.Float64frombits(binary.LittleEndian.Uint64(src[25:]))
	st.lastPubWin = int(binary.LittleEndian.Uint32(src[33:]))
	lastPubLen := int(binary.LittleEndian.Uint32(src[37:]))
	src = src[41:]
	if lastPubLen < 0 || len(src) != lastPubLen {
		return nil, fmt.Errorf("stream: checkpoint last-published model: %d bytes, header says %d", len(src), lastPubLen)
	}
	if lastPubLen > 0 {
		t, err := tree.Decode(schema, src)
		if err != nil {
			return nil, fmt.Errorf("stream: checkpoint last-published model: %w", err)
		}
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("stream: checkpoint last-published model: %w", err)
		}
		st.lastPub = t
	}
	return st, nil
}

// restoreCkpt runs the collective resume ladder over ep and returns the
// restored state, or nil — on every rank — for a collective fresh start.
// A checkpoint that does not decode (bit flip, changed configuration)
// steps the whole group down to an older window; one bound to a
// *different dataset* is fatal instead, because every older window carries
// the same binding and a silent fresh start would mask a swapped input.
func restoreCkpt(c comm.Communicator, ep *durable.Epochs, schema *record.Schema, fp, srcCRC uint32) (*ckptState, error) {
	var st *ckptState
	w, err := ep.Resume(c, func(w int) error {
		raw, err := ep.Read(w)
		if err != nil {
			return err
		}
		st, err = decodeCkpt(schema, fp, srcCRC, raw)
		switch {
		case errors.Is(err, ErrSourceMismatch):
			return durable.Fatal(err)
		case err == nil && st.window != w:
			return fmt.Errorf("stream: checkpoint window %d in file for window %d", st.window, w)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if w == 0 {
		ep.Wipe()
		return nil, nil
	}
	ep.Retain(w)
	return st, nil
}
