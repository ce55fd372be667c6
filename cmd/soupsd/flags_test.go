package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// TestFlagTableMatchesFlags checks that the flag table in docs/OPERATIONS.md
// and the flags soupsd registers name the same set: every flag has a row,
// and every row names a flag.
func TestFlagTableMatchesFlags(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "\n| Flag | Default | What it controls |\n| --- | --- | --- |\n")
	if !ok {
		t.Fatal("docs/OPERATIONS.md has no flag table")
	}
	rows := map[string]bool{}
	for _, line := range strings.Split(table, "\n") {
		row, ok := strings.CutPrefix(line, "| `-")
		if !ok {
			break // the table ends at its first line that is not a flag row
		}
		name, _, _ := strings.Cut(row, "`")
		rows[name] = true
	}
	flag.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") {
			return // the test binary's own flags
		}
		if !rows[f.Name] {
			t.Errorf("soupsd registers -%s, but the flag table in docs/OPERATIONS.md has no row for it", f.Name)
		}
		delete(rows, f.Name)
	})
	for name := range rows {
		t.Errorf("the flag table in docs/OPERATIONS.md has a row for -%s, which soupsd does not register", name)
	}
}
