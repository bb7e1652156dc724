package main

import (
	"flag"
	"os"
	"testing"
)

// A script runs through the shell without error (an error exits
// non-zero in script mode, ending the test binary).
func TestRunsScript(t *testing.T) {
	flag.CommandLine = flag.NewFlagSet("chimerash", flag.ExitOnError)
	os.Args = []string{"chimerash", "-trace", "-f", "../../examples/scripts/inventory.chimera"}
	main()
}
