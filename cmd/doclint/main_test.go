package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestLintTestNames builds a tree whose doc cites defined and undefined
// tests, plus words that only look like test names, and checks that
// exactly the undefined citations are reported, by line. A test defined
// only under a hidden (build) directory does not count as defined.
func TestLintTestNames(t *testing.T) {
	root := t.TempDir()
	write := func(rel, body string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("pkg/a_test.go", `package pkg

import "testing"

func TestReal(t *testing.T)           {}
func BenchmarkReal(b *testing.B)      {}
func FuzzReal(f *testing.F)           {}
func helperTestLike(t *testing.T)     {}
`)
	write(".build/b_test.go", "package b\n\nfunc TestHidden(t *testing.T) {}\n")
	write("DOC.md", "Testing and Benchmarks: `TestReal`, `BenchmarkReal/sub`.\n"+
		"`go test -run '^FuzzReal$'` and `TestNoSuchThing`.\n"+
		"\n"+
		"`TestHidden` is only in a build directory.\n")

	got, err := lintTestNames(root, []string{"DOC.md"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"DOC.md:2: cites TestNoSuchThing, which no _test.go file defines",
		"DOC.md:4: cites TestHidden, which no _test.go file defines",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("lintTestNames = %q, want %q", got, want)
	}
}
