package calculus

// This file implements the incremental ∃t' sweep: a compiled evaluator
// that decides the triggering quantifier of Section 4.4 by walking the
// arrivals of R exactly once, instead of re-evaluating ts(E, t')
// recursively against the Event Base at every probe instant.
//
// The key observations making the sweep sound:
//
//  1. ts(E, t') can change sign only when an event occurrence arrives
//     (already exploited by Env.TriggeredAfter), and — sharper — only
//     when an occurrence of a type *mentioned by E* arrives: with the
//     window content fixed, every value in the calculus is ±(occurrence
//     time stamp) or ±t', and a ±t' drift never crosses zero as t'
//     grows. Probe instants carrying no mentioned arrival therefore
//     reuse the previous activation sign unchanged. (The one exception
//     is an instance lift over the full object domain, where an arrival
//     of any type can enlarge the domain; such expressions are marked
//     sensitive and evaluated at every probe.)
//
//  2. At an evaluated probe, every primitive's ts is the cursor of its
//     most recent swept occurrence — no Event Base search — so one
//     evaluation costs O(|E|) with zero allocations.
//
//  3. The precedence operator needs the *sign* of its left operand at
//     the right operand's activation instant, which lies in the past of
//     the sweep. Every activation time stamp is either the current
//     probe or a mentioned occurrence's time stamp, and mentioned
//     occurrences are exactly the evaluated probes, so recording each
//     Seq node's left-operand sign per evaluated probe answers every
//     historical query exactly.
//
// A Sweeper holds per-rule state that persists across CheckTriggered
// calls within one consideration window; the Trigger Support discards
// it whenever the window restarts (consideration, transaction begin,
// rebind). The reference evaluation remains Env.TriggeredAfter; the
// differential tests in sweep_test.go and internal/rules pin the two
// to identical outcomes.

import (
	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/metrics"
)

// SweepMetrics is the sweep's instrument set: probes (full-tree
// evaluations), cached-sign hits (arrivals settled without one) and
// Advance calls. One set is shared by every Sweeper of a Trigger
// Support — the counters are atomic, so the sharded determination's
// workers report into them concurrently. All nil (the zero value /
// a nil pointer) is the disabled configuration.
type SweepMetrics struct {
	Advances  *metrics.Counter
	Probes    *metrics.Counter
	CacheHits *metrics.Counter
}

// NewSweepMetrics resolves the sweep instruments from a registry; a nil
// registry yields nil (disabled) instruments.
func NewSweepMetrics(r *metrics.Registry) *SweepMetrics {
	if r == nil {
		return nil
	}
	return &SweepMetrics{
		Advances:  r.Counter("chimera_sweep_advances_total"),
		Probes:    r.Counter("chimera_sweep_probes_total"),
		CacheHits: r.Counter("chimera_sweep_cache_hits_total"),
	}
}

type sweepOp uint8

const (
	swPrim sweepOp = iota
	swNot
	swAnd
	swOr
	swSeq
	swLift
)

// sweepNode is one compiled node of the expression tree.
type sweepNode struct {
	op      sweepOp
	x, l, r *sweepNode

	// swPrim: the cursor — time stamp of the most recent swept
	// occurrence of the type, clock.Never before the first. tid is the
	// type's interned id in the Event Base the sweeper last advanced
	// against (see Sweeper.ensureTIDs): the columnar walk matches
	// arrivals by one int32 compare instead of a Type struct compare.
	t    event.Type
	tid  int32
	last clock.Time

	// swLift: the maximal instance-rooted subexpression, evaluated
	// against the Event Base with its lift parameters precomputed.
	sub   Expr
	prims []event.Type
	safe  bool

	// val is the node's ts value at the most recent evaluated probe.
	val TS

	// swSeq: left-operand sign history, one entry per evaluated probe
	// (parallel slices, ascending time stamps).
	histT []clock.Time
	histS []bool
}

// SweepResult reports one Advance call.
type SweepResult struct {
	// Fired is set when ts(E, t') turned active at probe instant At.
	Fired bool
	At    clock.Time
	// Evals counts full-tree evaluations performed; Skipped counts probe
	// instants settled from the cached sign without an evaluation. Their
	// sum is the arrivals swept (plus the boundary probe when evaluated).
	Evals   int64
	Skipped int64
}

// Sweeper incrementally decides ∃t' ∈ (since, now]: ts(E, t') > 0 as
// now advances. It is single-goroutine state: the sharded Trigger
// Support gives every rule its own Sweeper and never checks one rule
// from two workers at once.
//
// The primitive cursors and Seq operator nodes live in small slices, not
// maps: expressions mention a handful of types, so a linear scan per
// occurrence beats map hashing, and the compiled tree plus its
// scratch slices are fully reusable — Reset rewinds a Sweeper for a new
// consideration window with zero allocations.
type Sweeper struct {
	root      *sweepNode
	prims     []*sweepNode // every swPrim node (the cursor list)
	seqs      []*sweepNode // every swSeq node (the history owners)
	liftTypes []event.Type // types mentioned inside instance lifts
	liftTIDs  []int32      // liftTypes as interned ids (columnar walk)
	tidBase   *event.Base  // base the interned ids were resolved against
	since     clock.Time
	probed    clock.Time // newest instant already swept
	lastEval  clock.Time // newest evaluated probe
	seen      int64      // occurrences swept (the R ≠ ∅ guard)
	sensitive bool       // some lift ranges over the full object domain
	active    bool       // root sign at the most recent probe
	m         *SweepMetrics
}

// NewSweeper compiles e for the window starting (exclusively) at since.
// restrictDomain must match the Env the sweeper will be advanced with:
// it decides which instance lifts depend on the full object domain and
// must therefore be re-evaluated on every arrival.
func NewSweeper(e Expr, since clock.Time, restrictDomain bool) *Sweeper {
	sw := &Sweeper{since: since, probed: since}
	sw.root = sw.build(e, restrictDomain)
	// Initial signs over the still-empty window. With no occurrences
	// every sign is independent of the probe instant, so any instant past
	// since serves; since+1 keeps the history time stamps in-window.
	sw.evalAll(nil, since+1, true)
	return sw
}

// Since returns the (exclusive) window start the sweeper was compiled or
// last Reset for.
func (sw *Sweeper) Since() clock.Time { return sw.since }

// Reset rewinds the sweeper to a fresh window starting (exclusively) at
// since, reusing the compiled tree and every scratch slice. The Trigger
// Support calls it after a consideration restarts a rule's window —
// considerations are frequent on busy systems, and re-compiling there
// would dominate the sweep's own saving.
func (sw *Sweeper) Reset(since clock.Time) {
	for _, pn := range sw.prims {
		pn.last = clock.Never
	}
	for _, sn := range sw.seqs {
		sn.histT = sn.histT[:0]
		sn.histS = sn.histS[:0]
	}
	sw.since = since
	sw.probed = since
	sw.seen = 0
	sw.evalAll(nil, since+1, true)
}

func (sw *Sweeper) build(e Expr, restrictDomain bool) *sweepNode {
	if IsInstanceRooted(e) {
		n := &sweepNode{op: swLift, sub: e, prims: Primitives(e), safe: restrictionSafe(e)}
		if !restrictDomain || !n.safe {
			// Full-domain lift: an arrival of any type can enlarge the
			// object domain and flip the lift's sign.
			sw.sensitive = true
		}
		// A lift's own types are mentioned without owning cursor nodes
		// (the lift re-reads the Event Base); record them for the
		// mention scan of Advance.
		sw.liftTypes = append(sw.liftTypes, n.prims...)
		return n
	}
	switch x := e.(type) {
	case Prim:
		n := &sweepNode{op: swPrim, t: x.T, last: clock.Never}
		sw.prims = append(sw.prims, n)
		return n
	case Not:
		return &sweepNode{op: swNot, x: sw.build(x.X, restrictDomain)}
	case And:
		return &sweepNode{op: swAnd, l: sw.build(x.L, restrictDomain), r: sw.build(x.R, restrictDomain)}
	case Or:
		return &sweepNode{op: swOr, l: sw.build(x.L, restrictDomain), r: sw.build(x.R, restrictDomain)}
	case Seq:
		n := &sweepNode{op: swSeq, l: sw.build(x.L, restrictDomain), r: sw.build(x.R, restrictDomain)}
		sw.seqs = append(sw.seqs, n)
		return n
	}
	panic("calculus: unknown expression node in Sweeper build")
}

// SetMetrics installs the sweep instruments (nil disables reporting).
// The sweeper itself is single-goroutine state; the shared instrument
// set is atomic, so sweepers of different shards may share one.
func (sw *Sweeper) SetMetrics(m *SweepMetrics) { sw.m = m }

// Advance sweeps the arrivals in (probed, now], returning the earliest
// probe instant at which ts(E, t') is active, exactly as
// Env.TriggeredAfter(e, probed, now) would report it. env supplies the
// Event Base, window and scratch buffers; env.Since must equal the
// sweeper's window start and env.RestrictDomain the compile-time flag.
func (sw *Sweeper) Advance(env *Env, now clock.Time) SweepResult {
	res := sw.advance(env, now)
	if sw.m != nil {
		sw.m.Advances.Inc()
		sw.m.Probes.Add(res.Evals)
		sw.m.CacheHits.Add(res.Skipped)
	}
	return res
}

func (sw *Sweeper) advance(env *Env, now clock.Time) SweepResult {
	var res SweepResult
	if now <= sw.probed {
		return res
	}
	// Walk the window chunk by chunk: each chunk aliases one segment of
	// the Event Base, so the sweep stays allocation-free across segment
	// boundaries, and because sw.probed never trails the rule's window
	// start (which in turn never trails the compaction watermark) the
	// walk is never rebased onto retired data. The walk touches only the
	// timestamp and interned-type-id columns.
	sw.ensureTIDs(env.Base)
	if sw.sweepCols(env, now, &res) {
		return res
	}
	sw.probed = now
	// Boundary probe, mirroring the reference's final ts(E, now). The
	// window content is unchanged since the last arrival, so this is
	// expected to confirm the cached sign; it is kept because the
	// reference semantics probe it and it costs one evaluation per check.
	if sw.seen > 0 && now > sw.lastEval {
		sw.evalAll(env, now, false)
		res.Evals++
		if sw.active {
			res.Fired, res.At = true, now
		}
	}
	return res
}

// sweepCols is the chunk walk: the mention scan loads the 8-byte
// timestamp and 4-byte interned-id columns only and matches cursors with
// int32 compares — no Occurrence materialization, no string comparison.
// Returns true when the sweep fired.
func (sw *Sweeper) sweepCols(env *Env, now clock.Time, res *SweepResult) bool {
	for {
		cols := env.Base.ChunkCols(sw.probed, now)
		n := len(cols.TS)
		if n == 0 {
			return false
		}
		for i := 0; i < n; i++ {
			at := cols.TS[i]
			tid := cols.TIDs[i]
			sw.seen++
			mentioned := false
			for _, pn := range sw.prims {
				if pn.tid == tid {
					pn.last = at
					mentioned = true
				}
			}
			if !mentioned {
				for _, lt := range sw.liftTIDs {
					if lt == tid {
						mentioned = true
						break
					}
				}
			}
			if sw.sensitive || mentioned {
				sw.evalAll(env, at, false)
				res.Evals++
			} else {
				// Sign unchanged: no mentioned arrival, no full-domain lift.
				res.Skipped++
			}
			if sw.active {
				// sw.seen > 0 by construction: R is non-empty here.
				sw.probed = at
				res.Fired, res.At = true, at
				return true
			}
		}
		sw.probed = cols.TS[n-1]
	}
}

// ensureTIDs resolves the cursor and lift types to the base's interned
// ids, once per base (rebinding a rule discards its sweepers, so one
// sweeper only ever meets one base; the check still keys on identity).
// Interning is eager — a prim type that has not occurred yet gets its id
// now — so the walk needs no existence checks.
func (sw *Sweeper) ensureTIDs(base *event.Base) {
	if sw.tidBase == base {
		return
	}
	for _, pn := range sw.prims {
		pn.tid = base.InternType(pn.t)
	}
	sw.liftTIDs = sw.liftTIDs[:0]
	for _, t := range sw.liftTypes {
		sw.liftTIDs = append(sw.liftTIDs, base.InternType(t))
	}
	sw.tidBase = base
}

// Active reports the root sign at the most recent probe.
func (sw *Sweeper) Active() bool { return sw.active }

// evalAll re-evaluates the whole tree at probe instant t. empty marks
// the initial evaluation before any occurrence, where lifts short-cut to
// their empty-domain value instead of consulting the (possibly already
// populated, but not yet swept) Event Base.
func (sw *Sweeper) evalAll(env *Env, t clock.Time, empty bool) {
	// One charge per full-tree evaluation (the unit SweepResult.Evals
	// counts); the lifts inside re-enter Env and charge per node. env is
	// nil only for the budget-free initial empty-window evaluation.
	if env != nil {
		env.Budget.Charge()
	}
	sw.evalNode(sw.root, env, t, empty)
	sw.active = sw.root.val.Active()
	sw.lastEval = t
}

func (sw *Sweeper) evalNode(n *sweepNode, env *Env, t clock.Time, empty bool) {
	switch n.op {
	case swPrim:
		if n.last != clock.Never {
			n.val = TS(n.last)
		} else {
			n.val = -TS(t)
		}
	case swNot:
		sw.evalNode(n.x, env, t, empty)
		n.val = -n.x.val
	case swAnd:
		sw.evalNode(n.l, env, t, empty)
		sw.evalNode(n.r, env, t, empty)
		n.val = andTS(n.l.val, n.r.val)
	case swOr:
		sw.evalNode(n.l, env, t, empty)
		sw.evalNode(n.r, env, t, empty)
		n.val = orTS(n.l.val, n.r.val)
	case swSeq:
		sw.evalNode(n.l, env, t, empty)
		sw.evalNode(n.r, env, t, empty)
		n.val = -TS(t)
		if b := n.r.val; b.Active() {
			lActive := n.l.val.Active() // b.Time() == t: the live sign
			if bt := b.Time(); bt != t {
				lActive = n.histLookup(bt)
			}
			if lActive {
				n.val = b
			}
		}
		n.histT = append(n.histT, t)
		n.histS = append(n.histS, n.l.val.Active())
	case swLift:
		if empty {
			// The empty-window lift: the universal instance negation is
			// vacuously active, every existential lift vacuously inactive.
			if nn, ok := n.sub.(Not); ok && nn.Inst {
				n.val = TS(t)
			} else {
				n.val = -TS(t)
			}
		} else {
			n.val = env.liftCached(n.sub, n.prims, n.safe, t)
		}
	}
}

// histLookup returns the left-operand sign recorded at the newest
// evaluated probe not after bt. Activation time stamps always lie at
// evaluated probes (or the current one, handled by the caller), so the
// lookup is exact.
func (n *sweepNode) histLookup(bt clock.Time) bool {
	// Binary search for the rightmost histT entry ≤ bt.
	lo, hi := 0, len(n.histT)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.histT[mid] <= bt {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		// Before the first evaluated probe: the empty-window sign.
		return n.histS[0]
	}
	return n.histS[lo-1]
}
