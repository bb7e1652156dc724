package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/rules"
	"chimera/internal/workload"
)

// ---------------------------------------------------------------------
// B13 — the columnar Event Base's triggering scan: raw single-thread
// triggering throughput and allocation volume of the ts hot loop.
//
// The timed side runs the production support (V(E) filter + shared
// plan) over the columnar segments (parallel timestamp/type-id/OID-id
// arrays probed directly by the batched scan). The workload is the
// adversarial A + -B shape of B6/B7: non-monotone rules the ∃t' probe
// must walk arrival for arrival, so the scan itself — not rule
// management — is what the cell times. The recursive reference support
// (filter and plan off) replays the identical stream once, untimed, and
// must report the same triggerings.

// B13Result carries one rule-count cell; the JSON tags feed the
// machine-readable BENCH_col.json emitted by chimera-bench -exp B13
// -json.
type B13Result struct {
	Rules int     `json:"rules"`
	ColMs float64 `json:"columnar_ms"`
	// ColAllocKB is the allocation volume of one full drive (heap bytes
	// allocated, not retained), averaged over the counted reps.
	ColAllocKB int64 `json:"columnar_alloc_kb"`
	// TrigPerSec is the triggering throughput — the acceptance metric.
	TrigPerSec  float64 `json:"triggerings_per_sec"`
	Triggerings int64   `json:"triggerings"`
	// SameOutcomes reports whether the recursive reference support
	// counted the same triggerings on the same stream.
	SameOutcomes bool `json:"same_triggerings"`
}

// RunB13 measures one rule-count cell over Vocabulary(32), 16 objects
// and seeds 41/42 (the geometry of the retired B8 sharding experiment,
// so BENCH_trigger.json describes the same regime).
func RunB13(nRules, blocks, eventsPerBlock int) B13Result {
	vocab := workload.Vocabulary(32)
	r := rand.New(rand.NewSource(41))
	defs := make([]rules.Def, nRules)
	for i := range defs {
		a := vocab[r.Intn(len(vocab))]
		b := vocab[r.Intn(len(vocab))]
		defs[i] = rules.Def{
			Name:     fmt.Sprintf("r%05d", i),
			Event:    calculus.Conj(calculus.P(a), calculus.Neg(calculus.P(b))),
			Priority: i,
		}
	}
	reps := 20000 / nRules
	if reps < 3 {
		reps = 3
	}
	if reps > 30 {
		reps = 30
	}
	// drive runs one full drive under opts and returns its result (the
	// support's cumulative counters) with the measured part's wall time
	// and allocated bytes.
	drive := func(opts rules.Options) (workload.RunResult, int64, int64) {
		var m0, m1 runtime.MemStats
		c := clock.New()
		b := event.NewBase()
		s := rules.NewSupport(b, opts)
		s.BeginTransaction(c.Now())
		for _, d := range defs {
			if err := s.Define(d); err != nil {
				panic(err)
			}
		}
		// A short untimed drive first, so the measured one prices the
		// steady-state scan: one-time side structures (type interners,
		// mention bitsets, arena slabs, plan memo tables) warm up here.
		warm := workload.Stream(rand.New(rand.NewSource(43)), c, b, workload.StreamOptions{
			Blocks: 5, EventsPerBlock: eventsPerBlock, Objects: 16, Vocab: vocab,
		})
		workload.Drive(s, c, warm, true)
		stream := workload.Stream(rand.New(rand.NewSource(42)), c, b, workload.StreamOptions{
			Blocks: blocks, EventsPerBlock: eventsPerBlock, Objects: 16, Vocab: vocab,
		})
		runtime.ReadMemStats(&m0)
		start := time.Now()
		res := workload.Drive(s, c, stream, true)
		ns := time.Since(start).Nanoseconds()
		runtime.ReadMemStats(&m1)
		return res, ns, int64(m1.TotalAlloc - m0.TotalAlloc)
	}
	var col workload.RunResult
	var totalNs, totalAlloc int64
	for i := 0; i <= reps; i++ {
		res, ns, alloc := drive(rules.Options{UseFilter: true, SharedPlan: true})
		col = res
		if i > 0 {
			totalNs += ns
			totalAlloc += alloc
		}
	}
	colNs := totalNs / int64(reps)
	ref, _, _ := drive(rules.Options{})
	return B13Result{
		Rules:        nRules,
		ColMs:        float64(colNs) / 1e6,
		ColAllocKB:   totalAlloc / int64(reps) / 1024,
		TrigPerSec:   float64(col.Triggerings) / (float64(colNs) / 1e9),
		Triggerings:  col.Triggerings,
		SameOutcomes: ref.Triggerings == col.Triggerings,
	}
}

// B13Results runs the full rule-count sweep.
func B13Results() []B13Result {
	var out []B13Result
	for _, nRules := range []int{100, 1000, 10000} {
		out = append(out, RunB13(nRules, 30, 12))
	}
	return out
}

// B13SmokeResults is the reduced sweep for CI (make bench-smoke): the
// acceptance-relevant 1000-rule cell at the full sweep's stream
// geometry, so chimera-benchcmp can hold the smoke run against the
// committed BENCH_col.json cell for cell.
func B13SmokeResults() []B13Result {
	return []B13Result{RunB13(1000, 30, 12)}
}

// B13FromResults renders the table for a precomputed sweep, so the
// -json emission path does not run the experiment twice.
func B13FromResults(rs []B13Result) Table {
	t := Table{
		ID:     "B13",
		Title:  "columnar Event Base: single-thread triggering scan",
		Header: []string{"rules", "columnar ms", "col alloc KB", "trig/s", "same triggerings"},
	}
	for _, r := range rs {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.Rules),
			fmt.Sprintf("%.2f", r.ColMs),
			fmt.Sprint(r.ColAllocKB),
			fmt.Sprintf("%.0f", r.TrigPerSec),
			fmt.Sprint(r.SameOutcomes),
		})
	}
	t.Notes = append(t.Notes,
		"V(E) filter + shared plan on non-monotone A + -B rules, scanning parallel timestamp/type-id columns with interned-type bitset mention tests",
		"'alloc KB' is heap bytes allocated (not retained) by the measured drive, after an untimed warm-up drive has built the one-time side structures (interners, mention bitsets, arena slabs, memo tables) — what remains is consideration re-arms and segment seals; the quiet boundary check itself is allocation-free (zero-alloc assertions in internal/rules)",
		"'same triggerings' replays the identical stream once, untimed, through the recursive reference support (filter and plan off) and compares the two supports' triggering counts")
	return t
}

// B13 runs and renders the triggering-scan experiment.
func B13() Table { return B13FromResults(B13Results()) }
