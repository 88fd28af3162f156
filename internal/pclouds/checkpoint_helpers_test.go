package pclouds

import (
	"path/filepath"

	"pclouds/internal/durable"
)

// Checkpoint layout helpers for tests that inspect or sabotage a level's
// files directly.

func manifestPath(dir string, level, rank int) string {
	return (&durable.Epochs{Dir: dir, Rank: rank}).Path(level)
}

func levelDir(dir string, level int) string {
	return filepath.Dir(manifestPath(dir, level, 0))
}
