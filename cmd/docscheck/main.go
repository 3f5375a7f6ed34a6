// Command docscheck is the CI documentation gate. It fails (exit 1) when
//
//   - any package under internal/ lacks a godoc package comment (every
//     package must say which MAVFI paper stage it reproduces — the
//     convention docs/ARCHITECTURE.md builds on),
//   - any exported top-level symbol (type, function, method on an exported
//     type, const, var) in the packages listed in exportedDocDirs lacks a
//     doc comment — currently internal/planning, the package the PR 4
//     spatial-index refactor rewrote, or
//   - any relative Markdown link in the repo's *.md files (root and docs/)
//     points at a file that does not exist, or
//   - a backticked Test…, Fuzz… or Benchmark… name in README.md or
//     docs/*.md (optionally package-qualified, optionally with a /subtest
//     path) names no top-level function of any _test.go in the repository.
//     ROADMAP.md and CHANGES.md are not checked: they name planned and
//     deleted tests.
//
// External links (http/https/mailto), pure anchors, and links that resolve
// outside the repository root (GitHub-web paths like the CI badge's
// ../../actions/...) are not validated — there is no network in CI and no
// local file to check.
//
// Usage: go run ./cmd/docscheck [-root dir]
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	root := flag.String("root", ".", "repository root to check")
	flag.Parse()

	var problems []string
	problems = append(problems, checkPackageComments(*root)...)
	problems = append(problems, checkExportedDocs(*root)...)
	problems = append(problems, checkMarkdownLinks(*root)...)
	problems = append(problems, checkTestCitations(*root)...)

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: ok")
}

// checkPackageComments requires every package under internal/ (at any
// nesting depth) to carry a package comment on at least one of its non-test
// files.
func checkPackageComments(root string) []string {
	var problems []string
	internalDir := filepath.Join(root, "internal")
	var dirs []string
	err := filepath.WalkDir(internalDir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			dirs = append(dirs, p)
		}
		return nil
	})
	if err != nil {
		return []string{fmt.Sprintf("docscheck: walking %s: %v", internalDir, err)}
	}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			continue
		}
		documented := false
		checked := 0
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			checked++
			// PackageClauseOnly keeps the parse cheap; it still attaches the
			// package doc comment.
			af, err := parser.ParseFile(fset, f, nil, parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s: parse error: %v", f, err))
				continue
			}
			if af.Doc != nil && strings.TrimSpace(af.Doc.Text()) != "" {
				documented = true
				break
			}
		}
		if checked > 0 && !documented {
			rel, relErr := filepath.Rel(root, dir)
			if relErr != nil {
				rel = dir
			}
			problems = append(problems,
				fmt.Sprintf("%s: missing a godoc package comment (add `// Package %s ...` to one file)",
					filepath.ToSlash(rel), filepath.Base(dir)))
		}
	}
	return problems
}

// exportedDocDirs lists the packages (relative to the repository root) whose
// exported top-level symbols must all carry doc comments. Grow this list as
// packages reach documentation-complete status.
var exportedDocDirs = []string{
	"internal/planning",
}

// checkExportedDocs requires a doc comment on every exported top-level
// declaration of the exportedDocDirs packages: types, functions, methods
// whose receiver type is itself exported, and exported const/var names
// (a comment on the enclosing declaration group counts).
func checkExportedDocs(root string) []string {
	var problems []string
	fset := token.NewFileSet()
	for _, dir := range exportedDocDirs {
		files, err := filepath.Glob(filepath.Join(root, filepath.FromSlash(dir), "*.go"))
		if err != nil {
			problems = append(problems, fmt.Sprintf("docscheck: globbing %s: %v", dir, err))
			continue
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			af, err := parser.ParseFile(fset, f, nil, parser.ParseComments)
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s: parse error: %v", f, err))
				continue
			}
			rel, relErr := filepath.Rel(root, f)
			if relErr != nil {
				rel = f
			}
			rel = filepath.ToSlash(rel)
			report := func(pos token.Pos, what string) {
				problems = append(problems, fmt.Sprintf("%s:%d: exported %s lacks a doc comment",
					rel, fset.Position(pos).Line, what))
			}
			for _, decl := range af.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || !receiverExported(d) {
						continue
					}
					if d.Doc == nil {
						report(d.Pos(), "function "+d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
								report(s.Pos(), "type "+s.Name.Name)
							}
						case *ast.ValueSpec:
							for _, name := range s.Names {
								if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
									report(name.Pos(), "name "+name.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return problems
}

// receiverExported reports whether fn is a plain function or a method on an
// exported receiver type; methods on unexported types are not reachable API
// and need no doc.
func receiverExported(fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return true
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.IsExported()
	}
	return true // generic or unusual receivers: require the doc
}

// mdLink matches inline Markdown links/images: [text](target). Reference
// definitions and autolinks are rare in this repo and intentionally out of
// scope.
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// checkMarkdownLinks validates relative link targets in root-level *.md
// files and everything under docs/.
func checkMarkdownLinks(root string) []string {
	var files []string
	rootMD, _ := filepath.Glob(filepath.Join(root, "*.md"))
	files = append(files, rootMD...)
	_ = filepath.WalkDir(filepath.Join(root, "docs"), func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(p, ".md") {
			files = append(files, p)
		}
		return nil
	})

	absRoot, err := filepath.Abs(root)
	if err != nil {
		return []string{fmt.Sprintf("docscheck: resolving root: %v", err)}
	}
	var problems []string
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", f, err))
			continue
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if target == "" ||
				strings.Contains(target, "://") ||
				strings.HasPrefix(target, "mailto:") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(f), filepath.FromSlash(target))
			abs, err := filepath.Abs(resolved)
			if err != nil || !strings.HasPrefix(abs, absRoot+string(filepath.Separator)) {
				continue // escapes the repo (e.g. GitHub-web badge paths)
			}
			if _, err := os.Stat(resolved); err != nil {
				problems = append(problems, fmt.Sprintf("%s: broken link %q", f, m[1]))
			}
		}
	}
	return problems
}

// testCitation matches a code span that is a test function's name: Test,
// Fuzz or Benchmark followed by a non-lowercase character, optionally
// qualified by a package path (internal/pipeline.BenchmarkPlan) and
// optionally followed by a /subtest path. The name is the first group.
var testCitation = regexp.MustCompile(`^(?:[\w./-]+\.)?((?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*)(?:/\S*)?$`)

// codeSpan matches a one-line Markdown code span.
var codeSpan = regexp.MustCompile("`([^`\n]+)`")

// checkTestCitations requires every test, fuzz target and benchmark that
// README.md or a Markdown file under docs/ cites in a code span to be a
// top-level function of some _test.go file under root. Fenced code blocks
// are skipped.
func checkTestCitations(root string) []string {
	defined, err := testFuncs(root)
	if err != nil {
		return []string{fmt.Sprintf("docscheck: collecting test functions: %v", err)}
	}
	files := []string{filepath.Join(root, "README.md")}
	_ = filepath.WalkDir(filepath.Join(root, "docs"), func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(p, ".md") {
			files = append(files, p)
		}
		return nil
	})
	var problems []string
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", f, err))
			continue
		}
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(nil, len(data)+1)
		fenced := false
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			if strings.HasPrefix(strings.TrimSpace(text), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, m := range codeSpan.FindAllStringSubmatch(text, -1) {
				if c := testCitation.FindStringSubmatch(m[1]); c != nil && !defined[c[1]] {
					problems = append(problems, fmt.Sprintf("%s:%d: `%s` names no function of any _test.go", f, line, m[1]))
				}
			}
		}
	}
	return problems
}

// testFuncs returns the names of the top-level functions declared in the
// _test.go files under root, skipping directories whose name starts with a
// dot (.git, build caches).
func testFuncs(root string) (map[string]bool, error) {
	names := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		af, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range af.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				names[fn.Name.Name] = true
			}
		}
		return nil
	})
	return names, err
}
