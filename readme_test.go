package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// A Makefile rule: "name:" at the start of a line (not ":=").
	makeRuleRE = regexp.MustCompile(`(?m)^([A-Za-z0-9_.-]+):(?:[^=]|$)`)
	// A results path as the README cites it; '*' is a glob.
	resultsRE = regexp.MustCompile(`results/[A-Za-z0-9_.*/-]*`)
	// A make invocation inside code.
	makeCmdRE = regexp.MustCompile(`\bmake\s+([a-z][a-z0-9-]*)`)
	// Fenced blocks and inline code spans (which may wrap a line).
	fenceRE = regexp.MustCompile("(?s)```.*?```")
	spanRE  = regexp.MustCompile("`[^`]+`")
	// A go run of one of the repository's commands, to the end of its line
	// or its comment; its flags, -name or -name=value; and a flag a command
	// defines, flag.Kind("name", …) or flag.KindVar(&v, "name", …).
	goRunRE   = regexp.MustCompile(`go run (?:-\S+ )*\./cmd/([a-z]+)([^\n#]*)`)
	flagArgRE = regexp.MustCompile(`(?:^|\s)--?([A-Za-z][A-Za-z0-9-]*)`)
	quoteRE   = regexp.MustCompile(`'[^']*'|"[^"]*"`)
	flagDefRE = regexp.MustCompile(`flag\.[A-Za-z0-9]+\((?:&\w+,\s*)?"([^"]+)"`)
)

// readmeCode returns README's code: fenced blocks and inline spans, the
// places a make command is written as one.
func readmeCode(readme string) []string {
	code := fenceRE.FindAllString(readme, -1)
	return append(code, spanRE.FindAllString(fenceRE.ReplaceAllString(readme, ""), -1)...)
}

// TestReadmeCitesWhatExists: every results/ path README.md cites exists,
// and every make target it names in code is a Makefile target. A command
// run at another commit (`git checkout <ref> && make …`) names that
// commit's targets and is skipped.
func TestReadmeCitesWhatExists(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeRuleRE.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}

	for _, p := range resultsRE.FindAllString(readme, -1) {
		p = strings.TrimRight(p, ".")
		if matches, _ := filepath.Glob(p); len(matches) == 0 {
			t.Errorf("README cites %s, which does not exist", p)
		}
	}
	names := 0
	for _, c := range readmeCode(readme) {
		if strings.Contains(c, "git checkout") {
			continue
		}
		for _, m := range makeCmdRE.FindAllStringSubmatch(c, -1) {
			names++
			if !targets[m[1]] {
				t.Errorf("README names `make %s`, which is not a Makefile target", m[1])
			}
		}
	}
	if names == 0 {
		t.Error("found no make commands in README: the scan is broken")
	}
}

// TestReadmeRunsDefinedFlags: every flag a `go run ./cmd/<name>` in README
// code passes (a backslash continues the line; quoted arguments are values)
// is one that cmd/<name> defines.
func TestReadmeRunsDefinedFlags(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]map[string]bool{} // command → its flags
	flagsOf := func(cmd string) map[string]bool {
		if f, ok := defined[cmd]; ok {
			return f
		}
		f := map[string]bool{}
		srcs, _ := filepath.Glob(filepath.Join("cmd", cmd, "*.go"))
		for _, src := range srcs {
			if strings.HasSuffix(src, "_test.go") {
				continue
			}
			b, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range flagDefRE.FindAllStringSubmatch(string(b), -1) {
				f[m[1]] = true
			}
		}
		defined[cmd] = f
		return f
	}
	runs := 0
	for _, c := range readmeCode(string(raw)) {
		if strings.Contains(c, "git checkout") {
			continue
		}
		c = strings.ReplaceAll(c, "\\\n", " ")
		for _, m := range goRunRE.FindAllStringSubmatch(c, -1) {
			runs++
			if _, err := os.Stat(filepath.Join("cmd", m[1])); err != nil {
				t.Errorf("README runs ./cmd/%s, which does not exist", m[1])
				continue
			}
			for _, f := range flagArgRE.FindAllStringSubmatch(quoteRE.ReplaceAllString(m[2], ""), -1) {
				if !flagsOf(m[1])[f[1]] {
					t.Errorf("README runs `go run ./cmd/%s -%s`, a flag the command does not define", m[1], f[1])
				}
			}
		}
	}
	if runs == 0 {
		t.Error("found no go run commands in README: the scan is broken")
	}
}

// readmeMaxLines is the README's length ratchet: sections state the current
// rule and one current table, and their parent → head history moves to
// results/PR_<n>.md. Lower it when a section moves; never raise it.
const readmeMaxLines = 2148

// TestReadmeLengthRatchet: README.md is no longer than readmeMaxLines.
func TestReadmeLengthRatchet(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(raw), "\n"); n > readmeMaxLines {
		t.Errorf("README.md is %d lines, past the %d-line ratchet: move history to results/PR_<n>.md", n, readmeMaxLines)
	}
}
