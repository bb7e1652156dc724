package bench

import (
	"fmt"
	"math/rand"
	"time"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/rules"
	"chimera/internal/workload"
)

// ---------------------------------------------------------------------
// B11 — shared trigger plans: rule-set-wide common-subexpression
// elimination with memoized ts evaluation.

// B11Result carries one (rules, overlap) cell; the JSON tags feed the
// machine-readable BENCH_cse.json emitted by chimera-bench -json.
type B11Result struct {
	Rules   int `json:"rules"`
	Overlap int `json:"overlap"`
	// BaseMs is the per-rule recursive probe with the V(E) filter on the
	// same workload.
	BaseMs   float64 `json:"baseline_ms"`
	SharedMs float64 `json:"shared_ms"`
	Speedup  float64 `json:"speedup"`
	// BaseTsEvals counts root-level probe evaluations (a different
	// unit); SharedTsEvals counts the shared plan's node-level
	// evaluations and MemoHits the node results its memo served instead
	// (see MemoHitRatio).
	BaseTsEvals   int64 `json:"baseline_ts_evals"`
	SharedTsEvals int64 `json:"shared_ts_evals"`
	MemoHits      int64 `json:"memo_hits"`
	// DedupRatio is expression tree nodes over live DAG nodes for the
	// generated rule set (static sharing; see analysis.AnalyzeSharing).
	DedupRatio   float64 `json:"dedup_ratio"`
	SameOutcomes bool    `json:"same_triggerings"`
}

// MemoHitRatio is the share of node results the shared plan's memo
// served: memo_hits / (memo_hits + shared_ts_evals), the fraction of
// node evaluations common-subexpression sharing avoids.
func (r B11Result) MemoHitRatio() float64 {
	if n := r.MemoHits + r.SharedTsEvals; n > 0 {
		return float64(r.MemoHits) / float64(n)
	}
	return 0
}

// RunB11 measures one (rules, overlap) cell. Rules are conjunctions of
// depth-3 fragments drawn from a shared pool sized so each fragment
// serves ~overlap rules (workload.OverlapRules); fragments include
// negation and precedence, so the ∃t' probe walks arrival instants and
// the per-instant memo generation is genuinely shared across the group.
func RunB11(nRules, overlap, blocks, eventsPerBlock int) B11Result {
	vocab := workload.Vocabulary(6)
	defs := workload.OverlapRules(rand.New(rand.NewSource(71)), workload.OverlapRuleSetOptions{
		Rules: nRules, Vocab: vocab, Overlap: overlap,
		FragmentsPerRule: 2, Depth: 3,
		Negation: true, Precedence: true,
		// Conjunctive rules are selective: they are probed block after
		// block without firing, so most of the set keeps the shared
		// transaction-start horizon and the per-group memo sees the whole
		// batch (fire-happy disjunctions decide at their first probe and
		// fragment horizons as considerations re-arm them).
		Conjunctive: true,
	})

	// Static sharing for this rule set: tree nodes vs interned DAG nodes.
	var treeNodes int
	for _, d := range defs {
		treeNodes += calculus.Size(d.Event)
	}
	dedup := func() float64 {
		s := rules.NewSupport(event.NewBase(), rules.Options{SharedPlan: true})
		for _, d := range defs {
			if err := s.Define(d); err != nil {
				panic(err)
			}
		}
		if live := s.Plan().Live(); live > 0 {
			return float64(treeNodes) / float64(live)
		}
		return 1
	}()

	reps := 20000 / nRules
	if reps < 3 {
		reps = 3
	}
	if reps > 30 {
		reps = 30
	}
	run := func(opts rules.Options) (workload.RunResult, int64) {
		var res workload.RunResult
		var total int64
		for i := 0; i <= reps; i++ {
			c := clock.New()
			b := event.NewBase()
			s := rules.NewSupport(b, opts)
			s.BeginTransaction(c.Now())
			for _, d := range defs {
				if err := s.Define(d); err != nil {
					panic(err)
				}
			}
			stream := workload.Stream(rand.New(rand.NewSource(42)), c, b, workload.StreamOptions{
				Blocks: blocks, EventsPerBlock: eventsPerBlock, Objects: 16, Vocab: vocab,
			})
			start := time.Now()
			res = workload.Drive(s, c, stream, true)
			if i > 0 {
				total += time.Since(start).Nanoseconds()
			}
		}
		return res, total / int64(reps)
	}

	base, baseNs := run(rules.Options{UseFilter: true})
	shared, sharedNs := run(rules.Options{UseFilter: true, SharedPlan: true})
	return B11Result{
		Rules: nRules, Overlap: overlap,
		BaseMs:        float64(baseNs) / 1e6,
		SharedMs:      float64(sharedNs) / 1e6,
		Speedup:       float64(baseNs) / float64(sharedNs),
		BaseTsEvals:   base.TsEvaluations,
		SharedTsEvals: shared.TsEvaluations,
		MemoHits:      shared.MemoHits,
		DedupRatio:    dedup,
		SameOutcomes:  base.Triggerings == shared.Triggerings,
	}
}

// B11Results runs the full sweep (#rules × overlap).
func B11Results() []B11Result {
	var out []B11Result
	for _, nRules := range []int{10, 50, 100} {
		for _, overlap := range []int{1, 4, 8} {
			out = append(out, RunB11(nRules, overlap, 30, 8))
		}
	}
	return out
}

// B11SmokeResults is the reduced sweep for CI (make bench-smoke): just
// the acceptance-relevant (rules, overlap) cell, at the full sweep's
// stream geometry so chimera-benchcmp can hold the smoke run against
// the committed BENCH_cse.json cell for cell.
func B11SmokeResults() []B11Result {
	return []B11Result{RunB11(50, 4, 30, 8)}
}

// B11FromResults renders the table for a precomputed sweep, so the
// -json emission path does not run the experiment twice.
func B11FromResults(rs []B11Result) Table {
	t := Table{
		ID:     "B11",
		Title:  "shared trigger plans: per-rule evaluation vs interned DAG with memoized ts",
		Header: []string{"rules", "overlap", "base ms", "shared ms", "speedup", "ts-evals shared", "memo hits", "memo hit ratio", "dedup", "same triggerings"},
	}
	for _, r := range rs {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.Rules), fmt.Sprint(r.Overlap),
			fmt.Sprintf("%.2f", r.BaseMs), fmt.Sprintf("%.2f", r.SharedMs),
			fmt.Sprintf("%.2fx", r.Speedup),
			fmt.Sprint(r.SharedTsEvals),
			fmt.Sprint(r.MemoHits),
			fmt.Sprintf("%.3f", r.MemoHitRatio()),
			fmt.Sprintf("%.2fx", r.DedupRatio),
			fmt.Sprint(r.SameOutcomes),
		})
	}
	t.Notes = append(t.Notes,
		"rules are 2-fragment conjunctions over a shared fragment pool; 'overlap' is the expected number of rules reusing each fragment",
		"'base' is the per-rule recursive probe with the V(E) filter; 'shared' adds the interned DAG with memoized ts (the production configuration)",
		"'memo hit ratio' is memo hits / (memo hits + node-level ts evaluations): the share of node results sharing served without re-evaluation (the baseline's root-level TsEvaluations is a different unit and is reported only in the JSON)",
		"'dedup' is static sharing: expression tree nodes over live interned DAG nodes",
		"'same triggerings' checks the shared plan is semantically transparent on this workload")
	return t
}

// B11 compares the per-rule evaluators against the shared trigger plan.
func B11() Table { return B11FromResults(B11Results()) }
