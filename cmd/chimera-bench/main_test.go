package main

import (
	"flag"
	"os"
	"testing"
)

// runMain runs main with the given command-line arguments.
func runMain(args ...string) {
	flag.CommandLine = flag.NewFlagSet(args[0], flag.ExitOnError)
	os.Args = args
	main()
}

// The cheapest experiments run end to end, as a table and as CSV.
func TestRunsExperiments(t *testing.T) {
	runMain("chimera-bench", "-exp", "B6")
	runMain("chimera-bench", "-exp", "B4", "-format", "csv")
}
