// Package linttest is an analysistest-style harness for the lvmlint suite:
// it type-checks a testdata package, runs one analyzer over it, and compares
// the diagnostics against `// want "regexp"` comments in the sources.
//
// Expectations follow golang.org/x/tools/go/analysis/analysistest:
//
//	q := a + b // want `raw \+ arithmetic`
//
// A line may carry several expectations (`// want "x" "y"`), each a Go
// string literal holding a regular expression matched against the
// diagnostic message. Suppression comments (//lint:allow) are honored
// exactly as in production, so suppressed violations need no want — and get
// reported as unexpected diagnostics if suppression ever breaks.
package linttest

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"lvm/internal/lint"
)

var wantRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// expectation is one // want entry: a line and a message pattern.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads the package in dir under import path asPath (analyzers scope
// rules by import path, so testdata can impersonate e.g. lvm/internal/sim),
// applies the analyzer, and reports any mismatch between diagnostics and
// want comments as test errors.
func Run(t *testing.T, a *lint.Analyzer, dir, asPath string) {
	t.Helper()
	loader, err := lint.NewLoader(dir)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := loader.LoadDir(dir, asPath)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages in %s", dir)
	}
	for _, pkg := range pkgs {
		expects := collectWants(t, pkg)
		// Whole-program analyzers see a one-package program: calls into
		// other module packages have no body here and are judged by the
		// facts layer's assumptions.
		for _, d := range lint.RunSuite([]*lint.Package{pkg}, []*lint.Analyzer{a}) {
			if !consume(expects, d) {
				t.Errorf("unexpected diagnostic: %s", d)
			}
		}
		for _, e := range expects {
			if !e.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.pattern)
			}
		}
	}
}

// collectWants parses every // want comment in the package.
func collectWants(t *testing.T, pkg *lint.Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// "// want" may trail other comment content (e.g. an
				// //lint:allow under test), so search anywhere in the text.
				i := strings.Index(c.Text, "// want ")
				if i < 0 {
					continue
				}
				text := c.Text[i+len("// want "):]
				pos := pkg.Fset.Position(c.Pos())
				for _, lit := range wantRE.FindAllString(text, -1) {
					pat, err := strconv.Unquote(lit)
					if err != nil {
						t.Fatalf("%s:%d: bad want literal %s: %v", pos.Filename, pos.Line, lit, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	return out
}

// consume matches d against the unmatched expectations on its line.
func consume(expects []*expectation, d lint.Diagnostic) bool {
	for _, e := range expects {
		if !e.matched && e.file == d.Pos.Filename && e.line == d.Pos.Line && e.pattern.MatchString(d.Message) {
			e.matched = true
			return true
		}
	}
	return false
}
