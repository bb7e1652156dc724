package rules

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/types"
)

// replayBase is replay with the Event Base (and its segmentation)
// selectable: the segmentation differentials drive identical workloads
// through a segmented base and a flat uncompacted one and compare
// firings bit for bit.
func replayBase(t *testing.T, o Options, defs []Def, vocab []event.Type, seed int64, blocks int, mkBase func() *event.Base, compact bool) [][]firing {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	b := mkBase()
	c := clock.New()
	s := NewSupport(b, o)
	s.BeginTransaction(c.Now())
	for _, d := range defs {
		if err := s.Define(d); err != nil {
			t.Fatal(err)
		}
	}
	var rounds [][]firing
	for block := 0; block < blocks; block++ {
		n := 1 + r.Intn(4)
		var occs []event.Occurrence
		for i := 0; i < n; i++ {
			occ, err := b.Append(vocab[r.Intn(len(vocab))], types.OID(1+r.Intn(3)), c.Tick())
			if err != nil {
				t.Fatal(err)
			}
			occs = append(occs, occ)
		}
		s.NotifyArrivals(occs)
		fired := s.CheckTriggered(c.Now())
		round := make([]firing, len(fired))
		for i, name := range fired {
			st, ok := s.Rule(name)
			if !ok {
				t.Fatalf("fired unknown rule %q", name)
			}
			round[i] = firing{name: name, at: st.TriggeredAt}
		}
		rounds = append(rounds, round)
		for _, name := range fired {
			if _, err := s.Consider(name, c.Tick()); err != nil {
				t.Fatal(err)
			}
		}
		if compact {
			b.CompactBelow(s.Watermark())
		}
	}
	return rounds
}

// flatBase returns a single-segment base large enough for a replay of
// blocks blocks (at most four arrivals per block): the uncompacted
// storage reference the segmented runs are pinned against.
func flatBase(blocks int) func() *event.Base {
	return func() *event.Base { return event.NewBaseSize(4*blocks + 1) }
}

// TestColumnarMatchesFlatReference is the segmentation differential:
// over random rule sets (negation, instance lifts, precedence, forced
// subexpression overlap) every check-path configuration — recursive
// reference with and without the filter, shared plan — run on the
// default-size segmented base must fire the identical rule set at
// identical activation instants as the recursive reference support on a
// flat, uncompacted base.
func TestColumnarMatchesFlatReference(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	vocab := calculus.DefaultVocabulary()
	gen := calculus.GenOptions{Types: vocab, MaxDepth: 3,
		AllowNegation: true, AllowInstance: true, AllowPrecedence: true}
	fragGen := calculus.GenOptions{Types: vocab, MaxDepth: 2,
		AllowNegation: true, AllowInstance: true, AllowPrecedence: true}

	configs := []Options{
		{}, // recursive reference
		{UseFilter: true},
		{SharedPlan: true},
		{UseFilter: true, SharedPlan: true}, // production
	}

	for trial := 0; trial < 8; trial++ {
		pool := make([]calculus.Expr, 4)
		for i := range pool {
			pool[i] = calculus.GenExpr(r, fragGen)
		}
		defs := make([]Def, 40)
		for i := range defs {
			e := calculus.GenExpr(r, gen)
			if i%2 == 0 {
				e = calculus.Disj(e, pool[r.Intn(len(pool))])
			}
			defs[i] = Def{Name: fmt.Sprintf("r%02d", i), Event: e, Priority: i % 5}
		}
		seed := r.Int63()
		ref := replayBase(t, Options{}, defs, vocab, seed, 6, flatBase(6), false)
		for _, cfg := range configs {
			got := replayBase(t, cfg, defs, vocab, seed, 6,
				func() *event.Base { return event.NewBase() }, false)
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("trial %d cfg %+v: diverged from the flat reference\nref: %v\ngot: %v", trial, cfg, ref, got)
			}
		}
	}
}

// TestColumnarCompactingMatchesFlatReference runs the segmentation
// differential with tiny segments and per-block low-watermark
// compaction on the production configuration, so the columnar probe
// loops are exercised across segment seals and retirements, against the
// recursive reference support on a flat, uncompacted base.
func TestColumnarCompactingMatchesFlatReference(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	vocab := calculus.DefaultVocabulary()
	gen := calculus.GenOptions{Types: vocab, MaxDepth: 3,
		AllowNegation: true, AllowInstance: true, AllowPrecedence: true}
	for trial := 0; trial < 6; trial++ {
		defs := make([]Def, 40)
		for i := range defs {
			defs[i] = Def{Name: fmt.Sprintf("r%02d", i), Event: calculus.GenExpr(r, gen), Priority: i % 7}
		}
		seed := r.Int63()
		cfg := Options{UseFilter: true, SharedPlan: true}
		ref := replayBase(t, Options{}, defs, vocab, seed, 8, flatBase(8), false)
		got := replayBase(t, cfg, defs, vocab, seed, 8,
			func() *event.Base { return event.NewBaseSize(4) }, true)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("trial %d: compacting run diverged from the flat reference\nref: %v\ngot: %v", trial, ref, got)
		}
	}
}

// TestColumnarSteadyStateAllocs mirrors TestCheckTriggeredSteadyStateAllocs
// for each check-path configuration: the quiet boundary check must
// allocate nothing on the columnar base.
func TestColumnarSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"classic", Options{}},
		{"shared", Options{SharedPlan: true}},
		{"shared-filtered", Options{SharedPlan: true, UseFilter: true}},
	} {
		t.Run("columnar/"+tc.name, func(t *testing.T) {
			b := event.NewBase()
			c := clock.New()
			s := NewSupport(b, tc.opts)
			s.BeginTransaction(c.Now())
			mono := calculus.Conj(calculus.P(createStock), calculus.P(modShowQty))
			nonMono := calculus.Conj(calculus.P(createStock), calculus.Neg(calculus.P(createStock)))
			for i := 0; i < 6; i++ {
				e := mono
				if i%2 == 1 {
					e = nonMono
				}
				if err := s.Define(Def{Name: fmt.Sprintf("r%d", i), Event: e}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 10; i++ {
				if _, err := b.Append(createStock, 1, c.Tick()); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ {
				s.CheckTriggered(c.Tick())
			}
			allocs := testing.AllocsPerRun(50, func() {
				s.CheckTriggered(c.Tick())
			})
			if allocs != 0 {
				t.Errorf("steady-state CheckTriggered allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
	// 64 pending non-monotone rules over two consideration horizons, with
	// the deprecated Workers field set: the determination stays on the
	// calling goroutine and allocates nothing, so the field is inert.
	t.Run("columnar/two-horizons", func(t *testing.T) {
		b := event.NewBase()
		c := clock.New()
		s := NewSupport(b, Options{SharedPlan: true, UseFilter: true, Workers: 4})
		s.BeginTransaction(c.Now())
		vocab := []event.Type{createStock, modStockQty, modShowQty, event.Delete("stock")}
		for i := 0; i < 64; i++ {
			// A ∧ ¬B never settles to triggered once B arrived, so every
			// rule stays in the batch check after check.
			e := calculus.Conj(calculus.P(vocab[i%4]), calculus.Neg(calculus.P(vocab[(i+1)%4])))
			if err := s.Define(Def{Name: fmt.Sprintf("r%02d", i), Event: e}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 40; i++ {
			if _, err := b.Append(vocab[i%4], types.OID(i%3+1), c.Tick()); err != nil {
				t.Fatal(err)
			}
		}
		s.CheckTriggered(c.Tick())
		// Consider every odd rule at one instant: the batch now spans two
		// horizons.
		at := c.Tick()
		for i := 1; i < 64; i += 2 {
			if _, err := s.Consider(fmt.Sprintf("r%02d", i), at); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			if _, err := b.Append(vocab[i%4], types.OID(i%3+1), c.Tick()); err != nil {
				t.Fatal(err)
			}
		}
		check := func() {
			for _, st := range s.ordered {
				st.Triggered = false
				st.pending = true
			}
			s.CheckTriggered(c.Tick())
		}
		for i := 0; i < 3; i++ {
			check()
		}
		s.mu.Lock()
		horizons := len(s.sinceBuf)
		s.mu.Unlock()
		if horizons != 2 {
			t.Fatalf("batch spans %d horizons, want 2", horizons)
		}
		goroutines := runtime.NumGoroutine()
		allocs := testing.AllocsPerRun(50, check)
		if allocs != 0 {
			t.Errorf("steady-state CheckTriggered allocates %.1f objects/op, want 0", allocs)
		}
		if g := runtime.NumGoroutine(); g != goroutines {
			t.Errorf("goroutines %d -> %d across the checks", goroutines, g)
		}
	})
}

// TestColumnarProbeScanSteadyStateAllocs pins the zero-allocation
// property of the batched columnar scan itself: with every rule's probe
// cursor rewound to the window start, CheckTriggered re-scans hundreds
// of arrivals across several segments through ChunkCols, NoteArrivalTID
// and the mention bitsets — and allocates nothing once warm. (The quiet
// boundary check above never enters the scan loop; this rewind drives
// it at full depth every run.)
func TestColumnarProbeScanSteadyStateAllocs(t *testing.T) {
	b := event.NewBase()
	c := clock.New()
	s := NewSupport(b, Options{UseFilter: true, SharedPlan: true})
	s.BeginTransaction(c.Now())
	vocab := []event.Type{createStock, modStockQty, modShowQty, event.Delete("stock")}
	// Never-triggering non-monotone rules: A ∧ ¬A is inactive at every
	// instant, so the rules stay undecided through the whole scan and
	// every arrival exercises the mention test and probe bookkeeping.
	for i, ty := range vocab {
		e := calculus.Conj(calculus.P(ty), calculus.Neg(calculus.P(ty)))
		if err := s.Define(Def{Name: fmt.Sprintf("r%d", i), Event: e}); err != nil {
			t.Fatal(err)
		}
	}
	origin := c.Now()
	for i := 0; i < 600; i++ { // spans 3 segments at the default size
		if _, err := b.Append(vocab[i%len(vocab)], types.OID(i%5+1), c.Tick()); err != nil {
			t.Fatal(err)
		}
	}
	now := c.Tick()
	rewind := func() {
		for _, st := range s.ordered {
			st.lastProbe = origin
			st.pending = true
		}
	}
	for i := 0; i < 3; i++ {
		rewind()
		s.CheckTriggered(now)
	}
	allocs := testing.AllocsPerRun(20, func() {
		rewind()
		s.CheckTriggered(now)
	})
	if allocs != 0 {
		t.Errorf("columnar probe scan allocates %.1f objects/op in steady state, want 0", allocs)
	}
}
