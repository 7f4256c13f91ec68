package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
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
