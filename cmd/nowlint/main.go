// Command nowlint is the multichecker for the repository's protocol
// analyzers (clockcharge, detfree, lockorder, tripwire).
// See README.md's "Static analysis" section for what each invariant is
// and why it holds.
//
// Two modes:
//
//	nowlint [packages]        direct mode — loads packages itself
//	                          (default ./... from the module root) and
//	                          prints findings; exit 1 if any.
//	go vet -vettool=$(nowlint) ./...
//	                          unit mode — speaks go vet's unitchecker
//	                          protocol (-V=full / -flags / a lone *.cfg
//	                          argument), type-checking each unit against
//	                          the export data go vet supplies, fully
//	                          offline.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/checker"
	"repro/internal/analysis/clockcharge"
	"repro/internal/analysis/detfree"
	"repro/internal/analysis/load"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/tripwire"
)

var analyzers = []*analysis.Analyzer{
	clockcharge.Analyzer,
	detfree.Analyzer,
	lockorder.Analyzer,
	tripwire.Analyzer,
}

func main() {
	// go vet probes its -vettool with -V=full before anything else and
	// parses a trailing buildID= field as the tool's cache identity.
	if len(os.Args) == 2 && strings.HasPrefix(os.Args[1], "-V") {
		fmt.Printf("%s version devel nowlint-1 buildID=%x\n", filepath.Base(os.Args[0]), toolID())
		return
	}
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		fmt.Println("[]")
		return
	}
	if len(os.Args) == 2 && strings.HasSuffix(os.Args[1], ".cfg") {
		os.Exit(unitMode(os.Args[1]))
	}

	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	os.Exit(directMode(flag.Args()))
}

// ---------------------------------------------------------------------
// Direct mode.
// ---------------------------------------------------------------------

func directMode(patterns []string) int {
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nowlint:", err)
		return 2
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	l, err := load.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nowlint:", err)
		return 2
	}
	pkgs, err := l.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nowlint:", err)
		return 2
	}
	findings, err := checker.Run(analyzers, pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nowlint:", err)
		return 2
	}
	checker.Print(os.Stdout, findings)
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// toolID is the cache identity go vet stores for this tool's results: a
// content hash of the executable, so editing an analyzer invalidates
// cached findings.
func toolID() []byte {
	exe, err := os.Executable()
	if err == nil {
		if raw, err := os.ReadFile(exe); err == nil {
			sum := sha256.Sum256(raw)
			return sum[:8]
		}
	}
	return []byte("nowlint0")
}

// moduleRoot walks up from the working directory to the enclosing
// go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// ---------------------------------------------------------------------
// go vet unit mode (the unitchecker .cfg protocol).
// ---------------------------------------------------------------------

// vetConfig is the subset of go vet's per-unit JSON config nowlint
// consumes.
type vetConfig struct {
	ID          string
	ImportPath  string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
	VetxOnly    bool
	VetxOutput  string
}

func unitMode(cfgPath string) int {
	raw, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nowlint:", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "nowlint: %s: %v\n", cfgPath, err)
		return 2
	}
	// nowlint computes no cross-unit facts, but vet requires the vetx
	// file to exist for dependent units.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "nowlint:", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		// Skip test files, matching direct mode: the invariants govern
		// protocol code, and test scaffolding legitimately holds both
		// ends of the wire (an echo helper may block on a request send).
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nowlint:", err)
			return 2
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return 0
	}
	// Resolve imports through the export data go vet already compiled:
	// ImportMap maps source import paths to package paths, PackageFile
	// maps package paths to export data files.
	lookup := func(path string) (io.ReadCloser, error) {
		if p, ok := cfg.ImportMap[path]; ok {
			path = p
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nowlint: %s: %v\n", cfg.ImportPath, err)
		return 2
	}

	findings, err := checker.Run(analyzers, []*load.Package{{
		Path: cfg.ImportPath, Fset: fset, Files: files, Types: tpkg, Info: info,
	}})
	if err != nil {
		fmt.Fprintln(os.Stderr, "nowlint:", err)
		return 2
	}
	if len(findings) > 0 {
		checker.Print(os.Stderr, findings)
		return 2
	}
	return 0
}
