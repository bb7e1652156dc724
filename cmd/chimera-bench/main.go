// Command chimera-bench runs the measured experiments of EXPERIMENTS.md
// (B1..B7 and B9..B16; B8 is retired) and prints their tables. Each
// experiment exercises a performance claim Section 5 of the paper makes
// qualitatively.
//
// Usage:
//
//	chimera-bench                          # run everything
//	chimera-bench -exp B1                  # run one experiment
//	chimera-bench -exp B9 -json eb.json    # machine-readable B9 soak
//	chimera-bench -metrics                 # B10 overhead run -> BENCH_obs.json
//	chimera-bench -exp B11 -json BENCH_cse.json        # shared-plan sweep
//	chimera-bench -exp B12 -json BENCH_mt.json         # multi-session sweep
//	chimera-bench -exp B13 -json BENCH_col.json        # columnar triggering-scan sweep
//	chimera-bench -exp B14 -json BENCH_wal.json        # WAL ingest + recovery
//	chimera-bench -exp B16 -json BENCH_ro.json         # snapshot reads + group commit
//	chimera-bench -exp B11 -smoke -json smoke.json     # reduced CI sweep
//	chimera-bench -exp B9 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"chimera/internal/bench"
)

func main() {
	exp := flag.String("exp", "", "experiment id (B1..B7, B9..B16); empty runs all")
	format := flag.String("format", "table", "output format: table or csv")
	jsonOut := flag.String("json", "", "write machine-readable results to this file (requires -exp B9..B16)")
	metricsRun := flag.Bool("metrics", false, "run the B10 observability-overhead experiment and write BENCH_obs.json")
	smoke := flag.Bool("smoke", false, "with -exp B11..B16: run the reduced CI-sized sweep instead of the full one")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "chimera-bench: %v\n", err)
		os.Exit(1)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		// Written after the run (deferred) so the profile reflects what the
		// experiments leave live, not startup state.
		f, err := os.Create(*memProfile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "chimera-bench: %v\n", err)
			}
		}()
	}

	render := func(t bench.Table) string {
		if *format == "csv" {
			return "# " + t.ID + " — " + t.Title + "\n" + t.CSV()
		}
		return t.String()
	}
	if *metricsRun {
		// -metrics is shorthand for -exp B10 -json BENCH_obs.json.
		*exp = "B10"
		if *jsonOut == "" {
			*jsonOut = "BENCH_obs.json"
		}
	}
	if *jsonOut != "" {
		data, table, err := jsonResults(*exp, *smoke)
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fail(err)
		}
		fmt.Println(render(table))
		return
	}
	if *exp == "" {
		for _, t := range bench.All() {
			fmt.Println(render(t))
		}
		return
	}
	t, ok := bench.ByID(*exp)
	if !ok {
		fail(fmt.Errorf("unknown experiment %q (B1..B7, B9..B16)", *exp))
	}
	fmt.Println(render(t))
}

// jsonResults runs one experiment with machine-readable results and
// returns them as indented JSON together with the rendered table, so
// the -json path does not run the experiment twice. smoke selects the
// reduced CI sweep of B11..B16.
func jsonResults(exp string, smoke bool) ([]byte, bench.Table, error) {
	var results any
	var table bench.Table
	switch strings.ToUpper(exp) {
	case "":
		return nil, table, fmt.Errorf("-json needs an explicit -exp (B9 through B16)")
	case "B9":
		r := bench.B9Results()
		results, table = r, bench.B9FromResults(r)
	case "B10":
		r := bench.B10Results()
		results, table = r, bench.B10FromResults(r)
	case "B11":
		var r []bench.B11Result
		if smoke {
			r = bench.B11SmokeResults()
		} else {
			r = bench.B11Results()
		}
		results, table = r, bench.B11FromResults(r)
	case "B12":
		var r []bench.B12Result
		if smoke {
			r = bench.B12SmokeResults()
		} else {
			r = bench.B12Results()
		}
		results, table = r, bench.B12FromResults(r)
	case "B13":
		var r []bench.B13Result
		if smoke {
			r = bench.B13SmokeResults()
		} else {
			r = bench.B13Results()
		}
		results, table = r, bench.B13FromResults(r)
	case "B14":
		var r bench.B14Result
		if smoke {
			r = bench.B14SmokeResults()
		} else {
			r = bench.B14Results()
		}
		results, table = r, bench.B14FromResults(r)
	case "B15":
		var r bench.B15Result
		if smoke {
			r = bench.B15SmokeResults()
		} else {
			r = bench.B15Results()
		}
		results, table = r, bench.B15FromResults(r)
	case "B16":
		var r bench.B16Result
		if smoke {
			r = bench.B16SmokeResults()
		} else {
			r = bench.B16Results()
		}
		results, table = r, bench.B16FromResults(r)
	default:
		return nil, table, fmt.Errorf("-json supports experiments B9 through B16, not %q", exp)
	}
	data, err := json.MarshalIndent(results, "", "  ")
	return data, table, err
}
