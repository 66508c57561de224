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
