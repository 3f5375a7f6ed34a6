package atomicfile

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	want := []byte(`{"hello":"world"}`)
	if err := WriteFile(path, want, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("contents = %q, want %q", got, want)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Fatalf("perm = %v, want 0644", fi.Mode().Perm())
	}
}

func TestWriteFileReplacesExisting(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("new"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new" {
		t.Fatalf("contents = %q, want new", got)
	}
}

func TestWriteFileLeavesNoTempOnSuccess(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFile(filepath.Join(dir, "a.json"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".atomic-") {
			t.Fatalf("stray temp file %s left behind", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Fatalf("dir has %d entries, want 1", len(entries))
	}
}

func TestWriteFileMissingDirFails(t *testing.T) {
	dir := t.TempDir()
	err := WriteFile(filepath.Join(dir, "no-such-subdir", "a.json"), []byte("x"), 0o644)
	if err == nil {
		t.Fatal("WriteFile into a missing directory succeeded")
	}
}

// TestTempNameNeverMatchesDestination pins the contract directory scanners
// rely on: an in-flight temp file never carries the destination's exact
// name, so a scan keyed on exact names (job.json, *.rec) cannot read a
// torn write.
func TestTempNameNeverMatchesDestination(t *testing.T) {
	dir := t.TempDir()
	f, err := os.CreateTemp(dir, "job.json"+TempPattern)
	if err != nil {
		t.Fatal(err)
	}
	defer os.Remove(f.Name())
	defer f.Close()
	base := filepath.Base(f.Name())
	if base == "job.json" {
		t.Fatal("temp file name equals destination name")
	}
	if !strings.Contains(base, ".atomic-") {
		t.Fatalf("temp name %q does not carry the .atomic- marker", base)
	}
	if strings.HasSuffix(base, ".rec") || strings.HasSuffix(base, ".json") {
		t.Fatalf("temp name %q ends in a scanned suffix", base)
	}
}
