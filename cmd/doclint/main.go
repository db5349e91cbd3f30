// Command doclint is the repository's documentation gate, run by
// `make docs-lint` as part of the tier-1 `all` target. It enforces two
// invariants that plain `go vet` does not:
//
//   - every package under ./internal/... and ./cmd/... carries a godoc
//     package comment (a doc comment attached to a package clause, or a
//     detached top-of-file comment block in a non-doc.go file — the
//     file-comment idiom several internal packages use);
//   - every relative markdown link in the top-level docs (README.md,
//     ARCHITECTURE.md, DESIGN.md, EXPERIMENTS.md, OPERATIONS.md,
//     ROADMAP.md) resolves to a file that exists, so the doc set cannot
//     silently fracture as files move;
//   - the sections other docs link into by name exist (see
//     requiredHeadings), and the normative protocol docs (DESIGN.md,
//     OPERATIONS.md) carry no TODO/TBD/FIXME markers — a runbook with a
//     hole in it reads as complete right up until the outage;
//   - every Test…, Benchmark… or Fuzz… function the current docs
//     (testNameDocs) cite as evidence is defined in some _test.go file,
//     so a deleted or renamed test cannot stay cited. CHANGES.md and
//     ROADMAP.md are history and may name tests that are gone.
//
// Exit status is non-zero with one line per violation; no output means
// the docs are clean.
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	var problems []string
	pkgProblems, err := lintPackageComments(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "doclint:", err)
		os.Exit(2)
	}
	problems = append(problems, pkgProblems...)
	for _, doc := range []string{"README.md", "ARCHITECTURE.md", "DESIGN.md", "EXPERIMENTS.md", "OPERATIONS.md", "ROADMAP.md"} {
		linkProblems, err := lintLinks(doc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doclint:", err)
			os.Exit(2)
		}
		problems = append(problems, linkProblems...)
	}
	headingProblems, err := lintRequiredHeadings()
	if err != nil {
		fmt.Fprintln(os.Stderr, "doclint:", err)
		os.Exit(2)
	}
	problems = append(problems, headingProblems...)
	markerProblems, err := lintMarkers()
	if err != nil {
		fmt.Fprintln(os.Stderr, "doclint:", err)
		os.Exit(2)
	}
	problems = append(problems, markerProblems...)
	testProblems, err := lintTestNames(".", testNameDocs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "doclint:", err)
		os.Exit(2)
	}
	problems = append(problems, testProblems...)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "doclint: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
}

// requiredHeadings are sections other docs (and operator habits) link
// into by name; deleting or renaming one must fail the gate, not
// silently orphan its references.
var requiredHeadings = map[string][]string{
	"DESIGN.md": {
		"## 13. Logging, correlation, and the flight recorder",
		"## 14. The synthesis fleet: routing, live migration, chaos testing",
		"## 15. The active query planner and the batched Query/Judgment API",
		"## 16. Replication & adoption protocol",
	},
	"README.md": {
		"## Operating the daemon: logs, correlation, flight dumps",
		"## Running a fleet: router, live migration, chaos testing",
		"## Batched queries and the v1 API migration",
	},
	"OPERATIONS.md": {
		"## Fleet bring-up with replication",
		"## Reading the replication metrics",
		"## Forced adoption",
		"## Forced re-replication",
		"## jq one-liners",
	},
}

// markerDocs are the normative docs that must not ship with
// placeholder markers: DESIGN.md is the protocol contract and
// OPERATIONS.md is what an operator follows mid-outage — an
// unfinished step in either is worse than a missing one.
var markerDocs = []string{"DESIGN.md", "OPERATIONS.md"}

var markerRe = regexp.MustCompile(`\b(TODO|TBD|FIXME|XXX)\b`)

// lintMarkers reports every placeholder marker in the normative docs,
// one problem per offending line.
func lintMarkers() ([]string, error) {
	var problems []string
	for _, doc := range markerDocs {
		data, err := os.ReadFile(doc)
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := markerRe.FindString(line); m != "" {
				problems = append(problems, fmt.Sprintf("%s:%d: placeholder marker %q in a normative doc", doc, i+1, m))
			}
		}
	}
	return problems, nil
}

// testNameDocs are the docs whose test citations must resolve.
var testNameDocs = []string{"README.md", "ARCHITECTURE.md", "DESIGN.md", "EXPERIMENTS.md", "OPERATIONS.md"}

// testFuncRe matches the declaration of a test, benchmark or fuzz
// target; testRefRe matches a citation of one in prose (a name such as
// "Testing" or "Benchmarks" needs an upper-case letter after the
// prefix, so it does not match).
var (
	testFuncRe = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	testRefRe  = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`)
)

// lintTestNames reports, one problem per line, every test name the
// docs cite that no _test.go file under root defines. Build and hidden
// directories are skipped.
func lintTestNames(root string, docs []string) ([]string, error) {
	defined := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncRe.FindAllStringSubmatch(string(data), -1) {
			defined[m[1]] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, doc := range docs {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, name := range testRefRe.FindAllString(line, -1) {
				if !defined[name] {
					problems = append(problems, fmt.Sprintf("%s:%d: cites %s, which no _test.go file defines", doc, i+1, name))
				}
			}
		}
	}
	return problems, nil
}

// lintRequiredHeadings reports every required section heading missing
// from its document.
func lintRequiredHeadings() ([]string, error) {
	var problems []string
	for doc, headings := range requiredHeadings {
		data, err := os.ReadFile(doc)
		if err != nil {
			return nil, err
		}
		for _, h := range headings {
			found := false
			for _, line := range strings.Split(string(data), "\n") {
				if strings.TrimSpace(line) == h {
					found = true
					break
				}
			}
			if !found {
				problems = append(problems, fmt.Sprintf("%s: required section %q is missing", doc, h))
			}
		}
	}
	return problems, nil
}

// lintPackageComments walks internal/ and cmd/ under root and reports
// every Go package directory without a package comment.
func lintPackageComments(root string) ([]string, error) {
	var problems []string
	for _, top := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			ok, checked, err := dirHasPackageComment(dir)
			if err != nil {
				return err
			}
			if checked && !ok {
				problems = append(problems, fmt.Sprintf("%s: package has no godoc package comment", dir))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return problems, nil
}

// dirHasPackageComment parses the non-test Go files of one directory.
// checked is false when the directory holds no Go package.
func dirHasPackageComment(dir string) (ok, checked bool, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, false, err
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			return false, false, fmt.Errorf("parse %s: %w", filepath.Join(dir, name), err)
		}
		checked = true
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			return true, true, nil
		}
		// The file-comment idiom: a comment block directly below the
		// package clause (separated by a blank line, so go/doc does not
		// bind it to the clause) still documents the package for readers;
		// accept it anywhere except doc.go, which must use the canonical
		// attached form.
		if name != "doc.go" {
			for _, cg := range f.Comments {
				if fset.Position(cg.Pos()).Line > fset.Position(f.Package).Line &&
					strings.TrimSpace(cg.Text()) != "" {
					return true, true, nil
				}
			}
		}
	}
	return false, checked, nil
}

// mdLink matches inline markdown links; the path group stops before an
// optional #fragment or "title".
var mdLink = regexp.MustCompile(`\]\(([^)#" ]+)[^)]*\)`)

// lintLinks reports every relative link in doc that does not resolve to
// an existing file or directory. Absolute URLs are skipped. A missing
// doc file itself is a problem: the lint list names the files the
// repository promises to have.
func lintLinks(doc string) ([]string, error) {
	raw, err := os.ReadFile(doc)
	if err != nil {
		if os.IsNotExist(err) {
			return []string{fmt.Sprintf("%s: required doc file is missing", doc)}, nil
		}
		return nil, err
	}
	var problems []string
	base := filepath.Dir(doc)
	for _, m := range mdLink.FindAllStringSubmatch(string(raw), -1) {
		target := m[1]
		if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
			continue
		}
		if _, err := os.Stat(filepath.Join(base, target)); err != nil {
			problems = append(problems, fmt.Sprintf("%s: broken link %q", doc, target))
		}
	}
	return problems, nil
}
