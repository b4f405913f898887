// Package analysistest runs simlint analyzers over txtar fixture packages
// and checks reported diagnostics against // want annotations, mirroring
// the x/tools analysistest contract on top of the vendored-minimal
// framework.
//
// A fixture is a txtar archive whose member paths are module-relative
// ("internal/sim/a.go"); the harness extracts it under a temp module root,
// typechecks it with the same offline loader the real suite uses, runs the
// analyzers over every package in dependency order, and matches findings
// line-by-line:
//
//	s.After(d, w) // want `schedules events \(After\)`
//
// Each want pattern is a regexp that must match a diagnostic reported on
// that line, every pattern must be satisfied, and no unmatched diagnostics
// may remain. Fixtures declare any helper packages they need (stub
// internal/cycles, fake internal/sim) inside the archive — package-set
// scoping matches on module-relative fragments, so stubs exercise exactly
// the production scoping logic.
package analysistest

import (
	"fmt"
	"go/token"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis/framework"
	"repro/internal/analysis/load"
)

// DefaultModulePath is the fake module path fixtures load under. It is
// deliberately not the real module path: scoping must work by fragment,
// not by hard-coded module name.
const DefaultModulePath = "simlint.example/fixture"

// Run extracts the txtar archive at archivePath, loads every package in
// it, applies the analyzers, and reports mismatches between diagnostics
// and // want annotations as test errors.
func Run(t *testing.T, archivePath string, analyzers ...*framework.Analyzer) {
	t.Helper()
	data, err := os.ReadFile(archivePath)
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	RunArchive(t, string(data), analyzers...)
}

// RunArchive is Run for an in-memory archive.
func RunArchive(t *testing.T, archive string, analyzers ...*framework.Analyzer) {
	t.Helper()
	root := t.TempDir()
	if err := extractTxtar(archive, root); err != nil {
		t.Fatalf("extracting fixture: %v", err)
	}

	l := &load.Loader{Root: root, ModulePath: DefaultModulePath}
	if err := l.Open(); err != nil {
		t.Fatalf("opening loader: %v", err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatalf("loading fixture packages: %v", err)
	}
	diags, err := framework.NewRunner().RunAll(analyzers, pkgs)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}

	wants := collectWants(t, archive)
	checkDiagnostics(t, l.Fset(), root, diags, wants)
}

// want is one expectation: a regexp bound to file:line.
type want struct {
	file    string // module-relative, slash-separated
	line    int
	pattern *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile(`// want (.*)$`)

// collectWants parses // want annotations out of the archive source.
func collectWants(t *testing.T, archive string) []*want {
	t.Helper()
	files, err := parseTxtar(archive)
	if err != nil {
		t.Fatalf("parsing fixture: %v", err)
	}
	var wants []*want
	for _, f := range files {
		if !strings.HasSuffix(f.name, ".go") {
			continue
		}
		for i, line := range strings.Split(f.data, "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			patterns, err := splitWantPatterns(m[1])
			if err != nil {
				t.Fatalf("%s:%d: %v", f.name, i+1, err)
			}
			for _, p := range patterns {
				re, err := regexp.Compile(p)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", f.name, i+1, p, err)
				}
				wants = append(wants, &want{file: f.name, line: i + 1, pattern: re})
			}
		}
	}
	return wants
}

// splitWantPatterns parses the backquoted patterns of one want comment:
// `a` `b` ...
func splitWantPatterns(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '`' {
			return nil, fmt.Errorf("want patterns must be backquoted: %q", s)
		}
		end := strings.IndexByte(s[1:], '`')
		if end < 0 {
			return nil, fmt.Errorf("unterminated want pattern: %q", s)
		}
		out = append(out, s[1:1+end])
		s = strings.TrimSpace(s[end+2:])
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("want comment with no patterns")
	}
	return out, nil
}

// checkDiagnostics matches findings against expectations both ways.
func checkDiagnostics(t *testing.T, fset *token.FileSet, root string, diags []framework.Diagnostic, wants []*want) {
	t.Helper()
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		rel := strings.TrimPrefix(strings.TrimPrefix(pos.Filename, root), string(os.PathSeparator))
		rel = strings.ReplaceAll(rel, string(os.PathSeparator), "/")
		matched := false
		for _, w := range wants {
			if w.matched || w.file != rel || w.line != pos.Line {
				continue
			}
			if w.pattern.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s:%d: %s [%s]", rel, pos.Line, d.Message, d.Analyzer)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("no diagnostic matched want %q at %s:%d", w.pattern, w.file, w.line)
		}
	}
}
