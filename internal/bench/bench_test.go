package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chimera/internal/rules"
)

func TestTableRendering(t *testing.T) {
	tbl := Table{
		ID: "T", Title: "demo",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	s := tbl.String()
	for _, want := range []string{"== T — demo ==", "long-header", "333", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

// Small-configuration smoke runs of every experiment driver: the
// invariants the tables assert (semantic transparency of the filters,
// boundary-only missing at most what the formal probe finds) must hold
// at any scale.
func TestRunB1Transparency(t *testing.T) {
	r := RunB1Config(20, 0.2, 10, 4)
	if !r.TriggeringsOK {
		t.Fatal("V(E) optimization changed the triggering outcome")
	}
	if r.OptTsEvals > r.NaiveTsEvals {
		t.Fatalf("filtered run evaluated more: %d > %d", r.OptTsEvals, r.NaiveTsEvals)
	}
}

func TestRunB4Shapes(t *testing.T) {
	r := RunB4(20, 10, 4)
	if r.LegacyNs <= 0 || r.CalculusNs <= 0 {
		t.Fatalf("timings missing: %+v", r)
	}
	if r.Triggerings == 0 {
		t.Fatal("no triggerings in the legacy run")
	}
}

func TestRunB6BoundaryNeverExceedsFormal(t *testing.T) {
	r := RunB6(10, 15, 4)
	if r.BoundaryTriggerings > r.FormalTriggerings {
		t.Fatalf("boundary-only fired more than the formal semantics: %+v", r)
	}
	if r.BoundaryTsEvals > r.FormalTsEvals {
		t.Fatalf("boundary-only evaluated more: %+v", r)
	}
}

func TestRunB7AllTransparent(t *testing.T) {
	none, mentioned, relevant := RunB7(20, 15, 4)
	if none.Triggerings != mentioned.Triggerings || mentioned.Triggerings != relevant.Triggerings {
		t.Fatalf("filter settings diverged: %d / %d / %d",
			none.Triggerings, mentioned.Triggerings, relevant.Triggerings)
	}
	if relevant.TsEvaluations > mentioned.TsEvaluations ||
		mentioned.TsEvaluations > none.TsEvaluations {
		t.Fatalf("filters increased work: %d / %d / %d",
			none.TsEvaluations, mentioned.TsEvaluations, relevant.TsEvaluations)
	}
}

func TestRunB5Modes(t *testing.T) {
	ns := RunB5(B5Config{Coupling: rules.Immediate, Consumption: rules.Consuming}, 2, 5, 2)
	if ns <= 0 {
		t.Fatal("no timing")
	}
}

func TestB2B3Builders(t *testing.T) {
	env, e, now := B2Eval(3)
	if env == nil || e == nil || now == 0 {
		t.Fatal("B2Eval incomplete")
	}
	env.TS(e, now) // must not panic
	env, e, now = B3Eval(8)
	env.TS(e, now)
}

func TestByID(t *testing.T) {
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown experiment accepted")
	}
	// Case-insensitive lookup resolves without running (cheap ids only
	// would still run the experiment; just check the miss path plus the
	// registry size via All's length elsewhere).
}

func TestTableCSV(t *testing.T) {
	tbl := Table{ID: "T", Title: "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", `x,"y`}}}
	got := tbl.CSV()
	want := "a,b\n1,\"x,\"\"y\"\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestB15MicroRun(t *testing.T) {
	// A tiny end-to-end pass over the real experiment code: the speedup
	// math keys off each configuration's baseline row, and the soak's
	// flatness bit must hold even at micro scale.
	sweep := B15ThroughputResults(300, 1, []int{64})
	if len(sweep) != 8 {
		t.Fatalf("sweep has %d cells, want 8 (4 configs x {per-txn, 64})", len(sweep))
	}
	for _, c := range sweep {
		if c.EventsPerSec <= 0 {
			t.Fatalf("non-positive throughput in %+v", c)
		}
		if c.Batch == 0 && c.Speedup != 1 {
			t.Fatalf("baseline row speedup = %v, want 1", c.Speedup)
		}
	}
	soak := B15SoakResults(30_000)
	if !soak.Flat {
		t.Fatalf("micro soak not flat: %+v", soak)
	}
	if !soak.FloorAdvanced {
		t.Fatal("micro soak never advanced the compaction floor")
	}
	tab := B15FromResults(B15Result{Throughput: sweep, Soak: soak})
	if tab.ID != "B15" || len(tab.Rows) != 9 {
		t.Fatalf("unexpected table shape: id=%s rows=%d", tab.ID, len(tab.Rows))
	}
}

// The cheap paper experiments produce their full tables.
func TestPaperExperimentTables(t *testing.T) {
	for _, tab := range []Table{B3(), B4(), B6(), B7()} {
		if len(tab.Rows) == 0 || len(tab.Header) == 0 {
			t.Errorf("%s: empty table", tab.ID)
		}
	}
}

// Every committed results file decodes into its experiment's result
// type and renders as that experiment's table: the writers and readers
// of BENCH_*.json agree on the schema. BENCH_trigger.json is frozen
// history of the retired B8 experiment and has no reader.
func TestCommittedResultsRender(t *testing.T) {
	load := func(name string, into any) {
		t.Helper()
		data, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, into); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	var (
		b9  []B9Result
		b10 []B10Result
		b11 []B11Result
		b12 []B12Result
		b13 []B13Result
		b14 B14Result
		b15 B15Result
		b16 B16Result
	)
	load("BENCH_eb.json", &b9)
	load("BENCH_obs.json", &b10)
	load("BENCH_cse.json", &b11)
	load("BENCH_mt.json", &b12)
	load("BENCH_col.json", &b13)
	load("BENCH_wal.json", &b14)
	load("BENCH_stream.json", &b15)
	load("BENCH_ro.json", &b16)
	tables := []Table{
		B9FromResults(b9), B10FromResults(b10),
		B11FromResults(b11), B12FromResults(b12), B13FromResults(b13),
		B14FromResults(b14), B15FromResults(b15), B16FromResults(b16),
	}
	for i, tab := range tables {
		if want := fmt.Sprintf("B%d", i+9); tab.ID != want || len(tab.Rows) == 0 {
			t.Errorf("table %s (want %s) has %d rows", tab.ID, want, len(tab.Rows))
		}
		if tab.String() == "" || tab.CSV() == "" {
			t.Errorf("%s renders empty", tab.ID)
		}
	}
}
