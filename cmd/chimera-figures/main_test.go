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

func TestPrintsFigures(t *testing.T) {
	runMain("chimera-figures")
	runMain("chimera-figures", "-fig", "1")
}
