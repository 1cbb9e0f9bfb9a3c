package fsutil

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// dirNames lists dir's entries.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func TestWriteFileReplacesContents(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.bin")
	for _, body := range []string{"first", "second, longer"} {
		if err := WriteFile(path, ".a-*.tmp", 0o644, writeString(body)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != body {
			t.Fatalf("contents = %q, want %q", got, body)
		}
	}
	if names := dirNames(t, dir); len(names) != 1 {
		t.Fatalf("directory holds %v, want only the published file", names)
	}
}

func TestWriteFileMode(t *testing.T) {
	dir := t.TempDir()
	for _, perm := range []os.FileMode{0o600, 0o644} {
		path := filepath.Join(dir, perm.String())
		if err := WriteFile(path, "*.tmp", perm, writeString("x")); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Mode().Perm() != perm {
			t.Fatalf("mode = %v, want %v", st.Mode().Perm(), perm)
		}
	}
}

// TestWriteFileFailedWriteKeepsOldFile: a write callback that fails halfway
// through leaves the previous file's bytes intact and no temp file behind.
func TestWriteFileFailedWriteKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.bin")
	if err := WriteFile(path, ".model-*.tmp", 0o644, writeString("good model")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := WriteFile(path, ".model-*.tmp", 0o644, func(w io.Writer) error {
		if _, err := io.WriteString(w, "half a new mo"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the callback's error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "good model" {
		t.Fatalf("old file clobbered: %q", got)
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "model.bin" {
		t.Fatalf("directory holds %v, want only model.bin", names)
	}
}

func TestWriteFileMissingDir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no", "such", "dir", "x")
	if err := WriteFile(path, "*.tmp", 0o600, writeString("x")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}
