// Command perfbench is chimera's end-to-end benchmark: three workloads
// (durable OLTP, streaming CEP, snapshot reads beside a writer) driven
// through the engine's public API on engine.DefaultOptions plus the
// settings each workload names. It checks the outputs against
// correctness gates, prints every end-to-end metric by name and unit,
// and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the JSON carries the end-to-end metrics of
// BENCHMARK.json; with --trace 1 the workload runs twice, untraced and
// then with a layer tracer, the metrics registry and a timed segment
// store, and the JSON carries the per-layer metrics. LAYERS.md lists
// every metric and the layer it belongs to.
//
// Usage (from the root of the checkout):
//
//	bash perfbench/run.sh --workload oltp-inventory --seed 1 --seconds 10 --trace 0 [--out report.json]
//	bash perfbench/run.sh compare [--force] old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type named struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type gate struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// outcome is what one run of a workload produced.
type outcome struct {
	attempted, failed int64
	gates             []gate
	// e2e are the workload's end-to-end metrics under their own names
	// (txn_per_s, stream_eps, read_p99_us, ...); gated holds those
	// BENCHMARK.json gates on, under its workload-neutral names.
	e2e   []named
	gated map[string]metric
	// layers are the per-layer metrics of a traced run; account is its
	// blocking-path accounting, printed as is.
	layers  []named
	account []string
	// known are comparisons that expose a known engine defect: printed,
	// never gating.
	known []string
	// cpuPerOp is the CPU cost per operation the tracing overhead is
	// judged on.
	cpuPerOp float64
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.gates = append(o.gates, gate{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (o *outcome) metric(name string, v float64, unit string) {
	o.e2e = append(o.e2e, named{name, v, unit})
}

func (o *outcome) layer(name string, v float64, unit string) {
	o.layers = append(o.layers, named{name, v, unit})
}

// spec is the part of BENCHMARK.json the benchmark reads: the metrics
// the JSON line must carry, and the bounds compare applies.
type spec struct {
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec() (spec, error) {
	var sp spec
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return sp, err
	}
	return sp, json.Unmarshal(b, &sp)
}

var workloads = map[string]func(config, bool) (*outcome, error){
	"oltp-inventory": runOLTP,
	"stream-fraud":   runFraud,
	"rw-snapshot":    runRW,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var cfg config
	var traceFlag int
	var out string
	flag.StringVar(&cfg.workload, "workload", "", "workload: oltp-inventory, stream-fraud or rw-snapshot")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&out, "out", "", "also write the full report (host header included) to this file")
	flag.Parse()
	cfg.trace = traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n",
			cfg.workload, cfg.seconds, traceFlag)
		os.Exit(2)
	}

	sp, err := readSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	h := readHost()
	fmt.Printf("# host %s\n", h)
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, traceFlag)

	o, err := run(cfg, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	res := result{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	gates := o.gates
	var layers []named
	if cfg.trace {
		t, err := run(cfg, true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s (traced): %v\n", cfg.workload, err)
			os.Exit(1)
		}
		for _, g := range t.gates {
			g.Name += " (traced)"
			gates = append(gates, g)
		}
		res.Attempted += t.attempted
		res.Failed += t.failed
		overhead := 0.0
		if o.cpuPerOp > 0 {
			overhead = 100 * (t.cpuPerOp/o.cpuPerOp - 1)
		}
		t.layer("trace.overhead_pct", overhead, "%")
		layers = t.layers
		byName := map[string]named{}
		for _, l := range layers {
			byName[l.Name] = l
		}
		// A layer the workload bypasses reports no counter: it reads 0.
		for _, m := range sp.PerLayer {
			l, ok := byName[m.Name]
			if !ok {
				l = named{m.Name, 0, m.Unit}
			}
			if l.Unit != m.Unit {
				fmt.Fprintf(os.Stderr, "perfbench: layer metric %s has unit %s, want %s\n", m.Name, l.Unit, m.Unit)
				os.Exit(1)
			}
			res.Metrics[m.Name] = metric{l.Value, l.Unit}
		}
		o.account = t.account
	} else {
		for _, m := range sp.EndToEnd {
			v, ok := o.gated[m.Name]
			if !ok || v.Unit != m.Unit {
				fmt.Fprintf(os.Stderr, "perfbench: end-to-end metric %s (%s) missing\n", m.Name, m.Unit)
				os.Exit(1)
			}
			res.Metrics[m.Name] = v
		}
	}

	res.Correct = true
	for _, g := range gates {
		status := "ok"
		if !g.OK {
			status = "FAIL"
			res.Correct = false
		}
		fmt.Printf("gate   %-34s %-4s %s\n", g.Name, status, g.Detail)
	}
	for _, k := range o.known {
		fmt.Printf("known  %s\n", k)
	}
	fmt.Printf("metric %-34s %14.6g %s\n", "fail_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")
	for _, m := range o.e2e {
		fmt.Printf("metric %-34s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range layers {
		fmt.Printf("layer  %-34s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, a := range o.account {
		fmt.Printf("account %s\n", a)
	}
	if out != "" {
		rep := report{Host: h, Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds,
			Trace: cfg.trace, Gates: gates, EndToEnd: o.e2e, Layers: layers, Result: res}
		if err := writeReport(out, rep); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// report is the full record --out writes and compare reads.
type report struct {
	Host     host    `json:"host"`
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  int     `json:"seconds"`
	Trace    bool    `json:"trace"`
	Gates    []gate  `json:"gates"`
	EndToEnd []named `json:"end_to_end"`
	Layers   []named `json:"layers,omitempty"`
	Result   result  `json:"result"`
}

func writeReport(path string, r report) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	return r, json.Unmarshal(b, &r)
}

// compareMain compares two --out reports metric by metric. Reports from
// different hosts are refused unless --force, which compares them under
// a warning banner.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	force := fs.Bool("force", false, "compare reports from different hosts anyway (with a warning)")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [--force] old.json new.json")
		return 2
	}
	a, err := readReport(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	b, err := readReport(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if diffs := a.Host.differs(b.Host); len(diffs) > 0 {
		if !*force {
			fmt.Fprintf(os.Stderr, "perfbench: refusing to compare reports from different hosts: %s (use --force)\n",
				strings.Join(diffs, ", "))
			return 3
		}
		banner := strings.Repeat("!", 72)
		fmt.Printf("%s\n!! WARNING: HOSTS DIFFER (%s)\n!! the deltas below mix code and host changes\n%s\n",
			banner, strings.Join(diffs, ", "), banner)
	}
	if a.Workload != b.Workload {
		fmt.Fprintf(os.Stderr, "perfbench: workloads differ (%s vs %s)\n", a.Workload, b.Workload)
		return 2
	}
	fmt.Printf("%s: %s (%s) -> %s (%s)\n", a.Workload, a.Host.Commit, a.Host.Source, b.Host.Commit, b.Host.Source)
	old := map[string]named{}
	for _, m := range append(a.EndToEnd, a.Layers...) {
		old[m.Name] = m
	}
	var names []string
	cur := map[string]named{}
	for _, m := range append(b.EndToEnd, b.Layers...) {
		cur[m.Name] = m
		if _, ok := old[m.Name]; ok {
			names = append(names, m.Name)
		}
	}
	sort.Strings(names)
	// End-to-end metrics get a verdict against their BENCHMARK.json bound.
	bounds := map[string]string{}
	boundOf := map[string]float64{}
	if sp, err := readSpec(); err == nil {
		for _, m := range sp.EndToEnd {
			bounds[m.Name], boundOf[m.Name] = m.Better, m.Bound
		}
	}
	worse := 0
	for _, n := range names {
		o, c := old[n], cur[n]
		delta, verdict := "n/a", ""
		if o.Value != 0 {
			r := c.Value/o.Value - 1
			delta = fmt.Sprintf("%+.1f%%", 100*r)
			if better, ok := bounds[n]; ok {
				if better == "higher" {
					r = -r
				}
				verdict = "within bound"
				if r > boundOf[n] {
					verdict = fmt.Sprintf("WORSE than the %.0f%% bound", 100*boundOf[n])
					worse++
				}
			}
		}
		fmt.Printf("  %-34s %14.6g -> %14.6g %-6s %-8s %s\n", n, o.Value, c.Value, c.Unit, delta, verdict)
	}
	if worse > 0 {
		return 1
	}
	return 0
}
