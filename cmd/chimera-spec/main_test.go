package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The conformance corpus passes through the command (a failing file
// exits non-zero, ending the test binary).
func TestRunsCorpus(t *testing.T) {
	files, err := filepath.Glob("../../internal/spec/testdata/*.spec")
	if err != nil || len(files) == 0 {
		t.Fatalf("no spec files: %v", err)
	}
	flag.CommandLine = flag.NewFlagSet("chimera-spec", flag.ExitOnError)
	os.Args = append([]string{"chimera-spec", "-v"}, files...)
	main()
}
