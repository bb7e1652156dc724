package main

import (
	"flag"
	"os"
	"strings"
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

// -json writes one experiment's results, so it needs an explicit -exp;
// the retired B8 experiment has no -json output any more.
func TestJSONNeedsExperiment(t *testing.T) {
	for _, exp := range []string{"", "B8"} {
		if _, _, err := jsonResults(exp, false); err == nil {
			t.Errorf("-json with -exp %q: no error", exp)
		}
	}
	if _, _, err := jsonResults("", false); !strings.Contains(err.Error(), "-exp") {
		t.Errorf("missing -exp error does not name the flag: %v", err)
	}
}
