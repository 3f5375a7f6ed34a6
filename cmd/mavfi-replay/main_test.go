package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mavfi/internal/campaign"
	"mavfi/internal/campaign/matrix"
	"mavfi/internal/pipeline"
	"mavfi/internal/record"
)

// recordCell records n nominal Sparse missions under dir, seeded 1..n, as
// mavfi's golden campaign does.
func recordCell(t *testing.T, dir string, n int) {
	t.Helper()
	world, err := matrix.World("sparse")
	if err != nil {
		t.Fatal(err)
	}
	cfg := func(i int) pipeline.Config { return pipeline.Config{World: world, Seed: 1 + int64(i)} }
	if _, err := record.RunCampaign(context.Background(), campaign.New(campaign.WithWorkers(1)), dir, "cell", n, cfg); err != nil {
		t.Fatal(err)
	}
}

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
	recordCell(t, cell, 1)
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

// TestVerifyFindsRecordDirLayout pins -verify over a `mavfi -record-dir`
// tree: its recordings sit in DIR/golden and DIR/injection, not in DIR,
// and all of them are found, in lexical order, and verified.
func TestVerifyFindsRecordDirLayout(t *testing.T) {
	dir := t.TempDir()
	recordCell(t, filepath.Join(dir, "golden"), 2)
	recordCell(t, filepath.Join(dir, "injection"), 1)
	if err := os.Mkdir(filepath.Join(dir, "archive.rec"), 0o755); err != nil {
		t.Fatal(err)
	}
	paths := expand([]string{dir})
	want := []string{
		record.MissionPath(filepath.Join(dir, "golden"), 0),
		record.MissionPath(filepath.Join(dir, "golden"), 1),
		record.MissionPath(filepath.Join(dir, "injection"), 0),
	}
	if strings.Join(paths, "\n") != strings.Join(want, "\n") {
		t.Fatalf("expand(%s) = %q, want %q", dir, paths, want)
	}
	var out bytes.Buffer
	if !verifyAll(&out, paths) || !strings.Contains(out.String(), "verified 3 recordings: 3 ok") {
		t.Errorf("verifying a record-dir tree failed:\n%s", out.String())
	}
}

// TestVerifyFailsWithoutRecordings pins that -verify over arguments that
// hold no recording, such as an empty directory, fails instead of passing
// having verified nothing.
func TestVerifyFailsWithoutRecordings(t *testing.T) {
	var out bytes.Buffer
	if verifyAll(&out, expand([]string{t.TempDir()})) {
		t.Errorf("verifying an empty directory passed:\n%s", out.String())
	}
}
