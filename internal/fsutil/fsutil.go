// Package fsutil holds the one durable-write primitive every on-disk
// artifact goes through: model checkpoints, drift sidecars, lake re-score
// cursors and watchdog flight records.
package fsutil

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// WriteFile replaces path atomically. It creates a temp file next to path
// (named from pattern, in os.CreateTemp syntax), lets write fill it, then
// fsyncs, closes and renames it over path. A failure at any step removes
// the temp file and leaves the previous contents of path untouched; a crash
// leaves the old file or the new one, never a torn one, plus at worst a
// stray temp file matching pattern for the caller to sweep. The directory
// itself is not fsynced.
//
// perm is the mode of the published file. os.CreateTemp creates 0600, so
// any other mode costs one extra chmod.
func WriteFile(path, pattern string, perm fs.FileMode, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), pattern)
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if perm != 0o600 {
		if err := tmp.Chmod(perm); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmpName, path)
}
