package main

import (
	"flag"
	"os"
	"testing"
)

// Every committed baseline compares cleanly with itself in strict mode
// (a regression or a schema mismatch exits non-zero).
func TestBaselinesCompareWithThemselves(t *testing.T) {
	files := map[string]string{
		"B11": "BENCH_cse.json", "B12": "BENCH_mt.json", "B13": "BENCH_col.json",
		"B14": "BENCH_wal.json", "B15": "BENCH_stream.json", "B16": "BENCH_ro.json",
	}
	for _, e := range experiments {
		f, ok := files[e.id]
		if !ok {
			t.Fatalf("no committed baseline named for %s", e.id)
		}
		path := "../../" + f
		flag.CommandLine = flag.NewFlagSet("chimera-benchcmp", flag.ExitOnError)
		os.Args = []string{"chimera-benchcmp", "-strict", "-exp", e.id, path, path}
		main()
	}
}

func TestRegressionRule(t *testing.T) {
	cases := []struct {
		old, new float64
		higher   bool
		want     bool
	}{
		{100, 111, false, true}, {100, 109, false, false},
		{100, 89, true, true}, {100, 91, true, false},
		{0, 5, false, false},
	}
	for _, c := range cases {
		if got := regressed(c.old, c.new, c.higher, 0.10); got != c.want {
			t.Errorf("regressed(%v, %v, higher=%v) = %v, want %v", c.old, c.new, c.higher, got, c.want)
		}
	}
	if d := delta(100, 150); d != 50 {
		t.Errorf("delta(100, 150) = %v%%, want 50%%", d)
	}
	for unit, want := range map[string]string{"x": "1.50x", "/s": "2/s", "KB": "2KB", "ms": "1.500ms", "ratio": "1.500"} {
		if got := formatVal(1.5, unit); got != want {
			t.Errorf("formatVal(1.5, %q) = %q, want %q", unit, got, want)
		}
	}
}
