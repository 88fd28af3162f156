// Package durable is the one home of the system's on-disk integrity
// primitives and of its collective checkpoint protocol:
//
//   - Checksum/Update: the single CRC-32C (Castagnoli) table behind every
//     checksummed format — v2 record blocks, ooc pages, wire frames, model
//     footers and sealed checkpoint files.
//   - AtomicWrite: temp file + fsync + rename, so a reader sees either the
//     old complete file or the new complete file, never a torn one.
//   - Seal/Unseal: the sealed file format every checkpoint uses — a magic
//     naming the payload codec (8 bytes by convention), the body, and a
//     CRC-32C trailer over every preceding byte.
//   - Epochs: per-rank epoch files under one directory and the collective
//     commit / agree / restore / keep-N / fresh-start protocol that batch
//     tree levels and streaming windows share (see epochs.go).
package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// castagnoli is hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C of b.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Update extends a running CRC-32C with b.
func Update(crc uint32, b []byte) uint32 { return crc32.Update(crc, castagnoli, b) }

// AtomicWrite replaces path with data all-or-nothing: the bytes go to a
// temporary file in path's directory, are fsynced, and only then renamed
// over path. A failed write leaves path untouched and removes the
// temporary file.
func AtomicWrite(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// Seal frames body as a sealed file: magic, body, CRC-32C of both.
func Seal(magic string, body []byte) []byte {
	out := make([]byte, 0, len(magic)+len(body)+4)
	out = append(out, magic...)
	out = append(out, body...)
	return binary.LittleEndian.AppendUint32(out, Checksum(out))
}

// Unseal verifies a sealed file's magic and trailer and returns its body
// (aliasing raw). Any single bit flip fails it.
func Unseal(magic string, raw []byte) ([]byte, error) {
	if len(raw) < len(magic)+4 || string(raw[:len(magic)]) != magic {
		return nil, fmt.Errorf("durable: not a sealed %q file", magic)
	}
	n := len(raw) - 4
	if want, got := binary.LittleEndian.Uint32(raw[n:]), Checksum(raw[:n]); want != got {
		return nil, fmt.Errorf("durable: %q file checksum mismatch (want %08x got %08x)", magic, want, got)
	}
	return raw[len(magic):n], nil
}
