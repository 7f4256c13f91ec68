package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"caltrain/internal/serve"
)

var update = flag.Bool("update", false, "rewrite testdata/flags.golden with the current flag set")

// TestFlagsGolden pins the command line as -h prints it: every flag's
// name, type, default and help text. A change to any of them is a diff
// of testdata/flags.golden, regenerated with
//
//	go test -run TestFlagsGolden -update .
func TestFlagsGolden(t *testing.T) {
	fs, _, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	fs.SetOutput(&got)
	fs.PrintDefaults()
	golden := filepath.Join("testdata", "flags.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("the flag set no longer prints %s (after an intentional change: go test -run TestFlagsGolden -update .):\n%s", golden, got.Bytes())
	}
}

// TestKnobTable holds README's knob table to the flags BindFlags binds
// from serve.Config's tags. After an intentional change:
//
//	go test -run TestKnobTable -update .
func TestKnobTable(t *testing.T) {
	fs, _, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	readmeSection(t, "caltrain-router knobs", serve.KnobTable(fs, "topology."))
}

// readmeSection holds the lines of README.md between <!-- name --> and
// <!-- end name --> to want; -update rewrites them.
func readmeSection(t *testing.T, name, want string) {
	const path = "../../README.md"
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	begin, end := "<!-- "+name+" -->\n", "<!-- end "+name+" -->"
	head, rest, ok := strings.Cut(string(doc), begin)
	got, tail, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("%s has no %q … %q section", path, begin, end)
	}
	if *update {
		if err := os.WriteFile(path, []byte(head+begin+want+end+tail), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got != want {
		t.Errorf("%s's %s table is stale (go test -run TestKnobTable -update .); want\n%s", path, name, want)
	}
}
