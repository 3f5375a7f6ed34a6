package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckTestCitationsFlagsMissingName runs the citation check on a
// fixture repository whose README cites one test that exists and one that
// does not, and whose docs/ cites the existing one package-qualified, with
// a subtest path and inside a fenced block beside a missing one. ROADMAP.md
// and CHANGES.md cite missing names too, and are exempt. Exactly one
// problem, naming the missing README citation, must come back.
func TestCheckTestCitationsFlagsMissingName(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"pkg/a_test.go": "package pkg\n\nimport \"testing\"\n\nfunc TestExisting(t *testing.T) {}\n",
		"README.md":     "Run `TestExisting` and `TestMissing`; `Testing` is prose.\n",
		"docs/GUIDE.md": "See `internal/pkg.TestExisting/sub`.\n\n```sh\ngo test -run `TestFenced`\n```\n",
		"ROADMAP.md":    "Add `TestPlanned`.\n",
		"CHANGES.md":    "Removed `FuzzDeleted`.\n",
	}
	for name, body := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	problems := checkTestCitations(root)
	if len(problems) != 1 || !strings.Contains(problems[0], "README.md:1: `TestMissing`") {
		t.Fatalf("problems = %q, want exactly one for README.md's `TestMissing`", problems)
	}
}
