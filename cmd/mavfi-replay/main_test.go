package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPrintInfoReportsUnreadablePaths pins -info over paths that are not
// recordings: a missing file and a text file named like a recording each
// get one error line naming the path, and a recording listed after them in
// the same run still prints in full.
func TestPrintInfoReportsUnreadablePaths(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.rec")
	junk := filepath.Join(dir, "junk.rec")
	if err := os.WriteFile(junk, []byte("not a recording\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cell := filepath.Join(dir, "cell")
	if err := recordCell(cell, "sparse", "", "", "", 0, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, path := range append([]string{missing, junk}, expand([]string{cell})...) {
		printInfo(&out, path)
	}
	lines := strings.Split(out.String(), "\n")
	for i, path := range []string{missing, junk} {
		if !strings.HasPrefix(lines[i], path+": ") || strings.Contains(lines[i+1], path) {
			t.Errorf("%s: want one error line, got:\n%s", path, out.String())
		}
	}
	if want := filepath.Join(cell, "mission-00000.rec") + ": complete"; lines[2] != want {
		t.Errorf("the recording after two bad paths printed %q, want %q", lines[2], want)
	}
}
