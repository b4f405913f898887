package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	// citedTest matches a backquoted test, benchmark or fuzz name, alone
	// or leading a command line (`BenchmarkX -benchtime 3x`).
	citedTest = regexp.MustCompile("`((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*)[^`]*`")
	// declaredTest matches a top-level test, benchmark or fuzz function.
	declaredTest = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*)\(`)
)

// TestArchitectureCitesExistingTests: every test, benchmark or fuzz
// function ARCHITECTURE.md names in backquotes is declared in some _test.go
// file of the tree (bench/ included), so a rename or deletion that leaves
// the document citing a name that no longer exists fails here.
func TestArchitectureCitesExistingTests(t *testing.T) {
	doc, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range declaredTest.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := map[string]bool{}
	for _, m := range citedTest.FindAllSubmatch(doc, -1) {
		cited[string(m[1])] = true
	}
	if len(cited) == 0 {
		t.Fatal("ARCHITECTURE.md cites no test, benchmark or fuzz name; the pattern no longer matches it")
	}
	var missing []string
	for name := range cited {
		if !declared[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("ARCHITECTURE.md cites %s, which no _test.go file in the tree declares", name)
	}
	t.Logf("ARCHITECTURE.md cites %d test, benchmark and fuzz names", len(cited))
}
