// Package analysistest runs one analyzer over a testdata source tree
// and checks its diagnostics against `// want "regexp"` expectations —
// the golang.org/x/tools/go/analysis/analysistest convention, rebuilt
// on this module's dependency-free loader.
//
// Layout convention: <analyzer>/testdata/src/<pkg>/... — each <pkg> is
// importable by its bare directory name. Every line that should be
// flagged carries a trailing `// want "re"` comment whose regexp must
// match the diagnostic message reported on that line; lines without a
// want comment must report nothing. Diagnostics are routed through the
// same //nowlint:allow filter as the CLI, so testdata exercises the
// waiver semantics too: detfree's testdata/src/a/waiver.go holds a
// justified directive, a too-short justification and a directive naming
// another analyzer.
package analysistest

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

var wantRE = regexp.MustCompile(`// want (` + "`[^`]*`" + `|"(?:[^"\\]|\\.)*")`)

// Run loads each named package from testdataDir/src, applies the
// analyzer, and reports any mismatch between diagnostics and the
// `// want` expectations as test errors.
func Run(t *testing.T, testdataDir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	l, err := load.NewLoader("", testdataDir+"/src")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	for _, pkgPath := range pkgs {
		if _, err := l.Import(pkgPath); err != nil {
			t.Fatalf("load %s: %v", pkgPath, err)
		}
	}
	for _, pkgPath := range pkgs {
		pkg := mustPkg(t, l, pkgPath)
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			t.Fatalf("%s: %s: %v", a.Name, pkgPath, err)
		}
		diags := analysis.ApplyAllows(pkg.Fset, pkg.Files, a.Name, pass.Diagnostics())
		check(t, a.Name, pkg, diags)
	}
}

func mustPkg(t *testing.T, l *load.Loader, path string) *load.Package {
	t.Helper()
	pkgs, err := l.Load(path)
	if err != nil || len(pkgs) != 1 {
		t.Fatalf("load %s: %v", path, err)
	}
	return pkgs[0]
}

type key struct {
	file string
	line int
}

func check(t *testing.T, name string, pkg *load.Package, diags []analysis.Diagnostic) {
	t.Helper()

	// Gather expectations per line.
	wants := map[key][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
					lit := m[1]
					var pat string
					if strings.HasPrefix(lit, "`") {
						pat = strings.Trim(lit, "`")
					} else {
						var err error
						pat, err = strconv.Unquote(lit)
						if err != nil {
							t.Fatalf("bad want literal %s: %v", lit, err)
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("bad want regexp %q: %v", pat, err)
					}
					p := pkg.Fset.Position(c.Slash)
					k := key{p.Filename, p.Line}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}

	// Match diagnostics against expectations.
	matched := map[key][]bool{}
	for k, res := range wants {
		matched[k] = make([]bool, len(res))
	}
	for _, d := range diags {
		p := pkg.Fset.Position(d.Pos)
		k := key{p.Filename, p.Line}
		ok := false
		for i, re := range wants[k] {
			if !matched[k][i] && re.MatchString(d.Message) {
				matched[k][i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic at %s:%d: %s", name, p.Filename, p.Line, d.Message)
		}
	}
	var missing []string
	for k, res := range wants {
		for i, re := range res {
			if !matched[k][i] {
				missing = append(missing, fmt.Sprintf("%s:%d: no diagnostic matching %q", k.file, k.line, re.String()))
			}
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s: %s", name, m)
	}
}
