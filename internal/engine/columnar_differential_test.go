package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"chimera/internal/act"
	"chimera/internal/calculus"
	"chimera/internal/cond"
	"chimera/internal/event"
	"chimera/internal/rules"
	"chimera/internal/schema"
	"chimera/internal/types"
)

// Event Base differentials at the engine level: the production
// configuration at the default segment size and at tiny segments must
// produce byte-identical databases and identical rule-execution counts
// to the naive reference support (recursive probe, no filter or plan)
// on an uncompacted base — segmentation, compaction and the
// columnar scan may only change how the triggering scan reads arrivals,
// never what the rules do.

func TestDifferentialSegmentedVsReference(t *testing.T) {
	prod := rules.Options{UseFilter: true, SharedPlan: true}
	for trial := 0; trial < 15; trial++ {
		seed := int64(7000 + trial)
		ops := genWorkload(rand.New(rand.NewSource(seed)), 60)

		ref := buildDiffDB(t, Options{Support: rules.Options{}, DisableCompaction: true}, seed)
		runDiffWorkload(t, ref, ops)

		col := buildDiffDB(t, Options{Support: prod}, seed)
		runDiffWorkload(t, col, ops)

		// Tiny segments force the columnar scan across seals + compaction.
		small := buildDiffDB(t, Options{Support: prod, SegmentSize: 4}, seed)
		runDiffWorkload(t, small, ops)

		fpRef, fpCol, fpSmall := fingerprint(ref), fingerprint(col), fingerprint(small)
		if fpRef != fpCol {
			t.Fatalf("trial %d: production database diverged from the reference:\n--- reference\n%s--- production\n%s",
				trial, fpRef, fpCol)
		}
		if fpRef != fpSmall {
			t.Fatalf("trial %d: small-segment database diverged from the reference", trial)
		}
		for _, db := range []*DB{col, small} {
			if got, want := db.Stats().RuleExecutions, ref.Stats().RuleExecutions; got != want {
				t.Fatalf("trial %d: rule executions diverged: reference %d vs %d", trial, want, got)
			}
		}
	}
}

// TestMultiSessionSegmentedMatchesReference drives concurrent
// transaction lines (each line has its own Event Base and Trigger
// Support session) under the production options at the default segment
// size, at tiny segments, and under the naive reference support: every
// line's rule work must land identically. This is the multi-session leg
// of the Event Base differential.
func TestMultiSessionSegmentedMatchesReference(t *testing.T) {
	run := func(mut func(*Options)) [][]int64 {
		const lines, perLine = 4, 8
		opts := DefaultOptions()
		opts.MaxSessions = lines
		opts.LockWait = 5 * time.Second
		mut(&opts)
		db := multiStockDB(t, opts, lines)

		var wg sync.WaitGroup
		for i := 0; i < lines; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				class := fmt.Sprintf("stock%d", i)
				for j := 0; j < perLine; j++ {
					err := db.Run(func(tx *Txn) error {
						_, err := tx.Create(class, map[string]types.Value{
							"quantity": types.Int(int64(30 + 20*j)), "maxquantity": types.Int(70),
						})
						return err
					})
					if err != nil {
						t.Errorf("line %d txn %d: %v", i, j, err)
						return
					}
				}
			}(i)
		}
		wg.Wait()

		// Per-class quantities, sorted by the store's Select order, plus
		// the global stats: the configurations must agree on all of it.
		out := make([][]int64, 0, lines+1)
		for i := 0; i < lines; i++ {
			oids, _ := db.Store().Select(fmt.Sprintf("stock%d", i))
			qs := make([]int64, 0, len(oids))
			for _, oid := range oids {
				o, ok := db.Store().Get(oid)
				if !ok {
					t.Fatalf("object %v lost", oid)
				}
				qs = append(qs, o.MustGet("quantity").AsInt())
			}
			out = append(out, qs)
		}
		st := db.Stats()
		out = append(out, []int64{st.RuleExecutions, st.Events, st.Blocks})
		return out
	}

	ref := run(func(o *Options) { o.Support = rules.Options{} })
	for _, cfg := range []struct {
		name string
		mut  func(*Options)
	}{
		{"default segments", func(*Options) {}},
		{"4-entry segments", func(o *Options) { o.SegmentSize = 4 }}, // seal + compact within each line
	} {
		got := run(cfg.mut)
		for i := range ref {
			if len(ref[i]) != len(got[i]) {
				t.Fatalf("%s part %d: lengths differ: reference %v vs %v", cfg.name, i, ref[i], got[i])
			}
			for j := range ref[i] {
				if ref[i][j] != got[i][j] {
					t.Errorf("%s part %d[%d]: reference %d, got %d", cfg.name, i, j, ref[i][j], got[i][j])
				}
			}
		}
	}
}

// multiStockDB builds a multi-session database with one capped stock
// class and capping rule per line (the TestMultiSessionParallelTriggering
// shape, parameterized on Options).
func multiStockDB(t *testing.T, opts Options, lines int) *DB {
	t.Helper()
	db := New(opts)
	for i := 0; i < lines; i++ {
		class := fmt.Sprintf("stock%d", i)
		if err := db.DefineClass(class,
			schema.Attribute{Name: "quantity", Kind: types.KindInt},
			schema.Attribute{Name: "maxquantity", Kind: types.KindInt},
		); err != nil {
			t.Fatal(err)
		}
		err := db.DefineRule(
			rules.Def{
				Name:     "cap" + class,
				Target:   class,
				Event:    calculus.P(event.Create(class)),
				Coupling: rules.Immediate,
			},
			Body{
				Condition: cond.Formula{Atoms: []cond.Atom{
					cond.Class{Class: class, Var: "S"},
					cond.Occurred{Event: calculus.P(event.Create(class)), Var: "S"},
					cond.Compare{
						L:  cond.Attr{Var: "S", Attr: "quantity"},
						Op: cond.CmpGt,
						R:  cond.Attr{Var: "S", Attr: "maxquantity"},
					},
				}},
				Action: act.Action{Statements: []act.Statement{
					act.Modify{Class: class, Attr: "quantity", Var: "S",
						Value: cond.Attr{Var: "S", Attr: "maxquantity"}},
				}},
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	return db
}
