// Package analysis is a self-contained, stdlib-only reimplementation of
// the go/analysis Analyzer/Pass shape, sized for this repository's needs.
//
// The real golang.org/x/tools/go/analysis framework is the obvious
// vehicle for the protocol lints in ../analysis/*, but this module is
// deliberately dependency-free (the simulation builds and runs offline),
// so the framework surface the analyzers program against is redefined
// here: an Analyzer with a Run function over a Pass carrying the parsed
// and type-checked package. The API mirrors go/analysis closely enough
// that the analyzers could be ported to a vet-style multichecker by
// swapping the import.
//
// Suppression. A diagnostic can be waived only by an explicit,
// justified directive on the flagged line or the line above it:
//
//	//nowlint:allow <analyzer> -- <justification>
//
// The justification is mandatory (and must be a real sentence, not a
// token): the analyzers encode soundness arguments, and a waiver is a
// claim that a site satisfies the argument some other way — that claim
// belongs next to the code. An allow with a missing or trivial
// justification does not suppress; it is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// An Analyzer is one static check over a single package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //nowlint:allow directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run reports diagnostics through the pass.
	Run func(*Pass) error
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Pass carries one type-checked package to one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostics returns the findings recorded so far, in report order.
func (p *Pass) Diagnostics() []Diagnostic { return p.diags }

// ---------------------------------------------------------------------
// Allow directives.
// ---------------------------------------------------------------------

var allowRE = regexp.MustCompile(`^//nowlint:allow\s+([A-Za-z0-9_,-]+)\s*(?:--\s*(.*))?$`)

// minJustification is the least substantive justification accepted: a
// waiver must say why the invariant still holds, not just switch the
// check off.
const minJustification = 12

type allowDirective struct {
	analyzers []string
	reason    string
	pos       token.Pos
}

// allowIndex maps file → line → directive for one package.
type allowIndex map[string]map[int]allowDirective

func buildAllowIndex(fset *token.FileSet, files []*ast.File) allowIndex {
	ix := allowIndex{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRE.FindStringSubmatch(strings.TrimSpace(c.Text))
				if m == nil {
					continue
				}
				p := fset.Position(c.Slash)
				byLine := ix[p.Filename]
				if byLine == nil {
					byLine = map[int]allowDirective{}
					ix[p.Filename] = byLine
				}
				byLine[p.Line] = allowDirective{
					analyzers: strings.Split(m[1], ","),
					reason:    strings.TrimSpace(m[2]),
					pos:       c.Slash,
				}
			}
		}
	}
	return ix
}

func (d allowDirective) covers(name string) bool {
	for _, a := range d.analyzers {
		if a == name {
			return true
		}
	}
	return false
}

// ApplyAllows filters diagnostics through the package's //nowlint:allow
// directives: a covered diagnostic on the directive's line or the line
// below it is dropped if the directive carries a substantive
// justification, and converted into a complaint about the directive if
// it does not. Both the CLI driver and the analysistest harness route
// every analyzer's output through here, so the waiver semantics are
// identical in CI and in tests.
func ApplyAllows(fset *token.FileSet, files []*ast.File, name string, diags []Diagnostic) []Diagnostic {
	ix := buildAllowIndex(fset, files)
	var out []Diagnostic
	for _, d := range diags {
		p := fset.Position(d.Pos)
		byLine := ix[p.Filename]
		var dir allowDirective
		found := false
		if byLine != nil {
			if a, ok := byLine[p.Line]; ok && a.covers(name) {
				dir, found = a, true
			} else if a, ok := byLine[p.Line-1]; ok && a.covers(name) {
				dir, found = a, true
			}
		}
		if !found {
			out = append(out, d)
			continue
		}
		if len(dir.reason) < minJustification {
			d.Message = fmt.Sprintf("nowlint:allow %s needs a substantive justification (-- why the invariant still holds), got %q", name, dir.reason)
			out = append(out, d)
		}
		// Justified directive: diagnostic waived.
	}
	return out
}

// ---------------------------------------------------------------------
// Type and callee resolution helpers shared by the analyzers.
// ---------------------------------------------------------------------

// CalleeOf resolves the function or method a call expression invokes,
// or nil for indirect calls (function values, interface methods the
// checker cannot pin down, conversions, builtins).
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// NamedOf unwraps pointers and aliases down to the defined type, or nil.
func NamedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// IsMethodOn reports whether fn is a method with one of the given names
// on the named type typeName defined in a package whose BASE name is
// pkgName. Matching by base name (not full import path) lets the
// analyzers apply equally to the real tree and to the small stub
// packages in their analysistest testdata.
func IsMethodOn(fn *types.Func, pkgName, typeName string, names ...string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != pkgName {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named := NamedOf(sig.Recv().Type())
	if named == nil || named.Obj().Name() != typeName {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// IsPkgFunc reports whether fn is a package-level function (no
// receiver) named one of names in a package with base name pkgName. An
// empty names list matches any function of the package.
func IsPkgFunc(fn *types.Func, pkgName string, names ...string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != pkgName {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	if len(names) == 0 {
		return true
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// MentionsRecover reports whether body contains a call to the recover
// builtin (at any depth, including nested literals).
func MentionsRecover(body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "recover" {
				found = true
			}
		}
		return !found
	})
	return found
}
