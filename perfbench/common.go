package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"chimera"
)

// referenceOptions is the gates' reference engine: in memory, with the
// V(E) filter, the incremental sweep, the shared plan and sharding off —
// the naive evaluation every optimisation is pinned to.
func referenceOptions() chimera.Options {
	o := chimera.DefaultOptions()
	o.Support.UseFilter = false
	o.Support.Incremental = false
	o.Support.SharedPlan = false
	o.Support.Workers = 1
	return o
}

func openDB(opts chimera.Options) (*chimera.DB, error) {
	if opts.Durability.Store != nil {
		return chimera.OpenDurable(opts)
	}
	return chimera.OpenWith(opts), nil
}

// loadProgram runs chimera.Load and returns its duration in ms.
func loadProgram(db *chimera.DB, src string) (float64, error) {
	t := time.Now()
	if err := chimera.Load(db, src); err != nil {
		return 0, err
	}
	return float64(since(t)) / 1e6, nil
}

// fingerprint digests the committed object state: every object of every
// class in OID order, plus the OID allocation point.
func fingerprint(db *chimera.DB) string {
	var b strings.Builder
	fmt.Fprintf(&b, "nextOID=%d\n", db.Store().NextOID())
	for _, class := range db.Schema().Names() {
		oids, _ := db.Store().Select(class)
		for _, oid := range oids {
			if o, ok := db.Store().Get(oid); ok && o.Class().Name() == class {
				b.WriteString(o.String())
				b.WriteByte('\n')
			}
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// setupCost is what set-up took, in seconds: setupS is the sum over the
// set-up's steps of each step's shortest time across the repeated
// set-ups, and medianS the median time of a whole set-up; loadMs is the
// median time of the Load call, in ms.
//
// The minimum per step is what makes setupS repeatable: on a shared
// host, co-tenants slow a core by up to about 1.8x in episodes that
// switch on and off within milliseconds, so the median of whole set-ups
// moves with the slow share of the moment, while a step of a few
// milliseconds runs at full speed in at least one of the repetitions.
type setupCost struct{ setupS, medianS, loadMs float64 }

// setupTimes runs setup n times (collecting garbage before each, outside
// the timing), closes all but the last result with discard and returns
// the last with the costs. setup calls step at the end of each of its
// steps but the last; every set-up must take the same steps.
func setupTimes[T any](n int, setup func(step func()) (T, float64, error), discard func(T)) (T, setupCost, error) {
	var last T
	var best []time.Duration
	var whole, loads []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		var steps []time.Duration
		start := time.Now()
		mark := start
		v, loadMs, err := setup(func() {
			now := time.Now()
			steps = append(steps, now.Sub(mark))
			mark = now
		})
		end := time.Now()
		steps = append(steps, end.Sub(mark))
		whole = append(whole, end.Sub(start).Seconds())
		if err != nil {
			return last, setupCost{}, err
		}
		if i == 0 {
			best = steps
		} else if len(steps) != len(best) {
			return last, setupCost{}, fmt.Errorf("set-up took %d steps, the first took %d", len(steps), len(best))
		}
		for j, d := range steps {
			best[j] = min(best[j], d)
		}
		loads = append(loads, loadMs)
		if i < n-1 {
			discard(v)
		} else {
			last = v
		}
	}
	var sum time.Duration
	for _, d := range best {
		sum += d
	}
	return last, setupCost{sum.Seconds(), medianFloat(whole), medianFloat(loads)}, nil
}

func noStep() {}

// costs records the metrics every workload shares: set-up, process CPU
// time per operation (cpu over ops), bytes allocated per operation
// (allocBytes over allocOps, which may count another operation when
// that is what allocation scales with) and the live heap at the end.
// Set-up, allocation and heap go to BENCHMARK.json's names; CPU time is
// printed only (see LAYERS.md).
func (o *outcome) costs(su setupCost, cpu time.Duration, ops int64, allocBytes uint64, allocOps int64, heapMB float64) {
	cpuUs := float64(cpu) / 1e3 / float64(max(ops, 1))
	allocKB := float64(allocBytes) / 1024 / float64(max(allocOps, 1))
	o.cpuPerOp = cpuUs
	o.metric("setup_s", su.setupS, "s")
	o.metric("setup_median_s", su.medianS, "s")
	o.metric("cpu_us_per_op", cpuUs, "us")
	o.metric("alloc_kb_per_op", allocKB, "KiB")
	o.metric("heap_mb", heapMB, "MB")
	o.gated = map[string]metric{
		"setup_s":         {su.setupS, "s"},
		"alloc_kb_per_op": {allocKB, "KiB"},
		"heap_mb":         {heapMB, "MB"},
	}
}

// counters reads registry counters by name.
type counters map[string]int64

var counterNames = []string{
	"chimera_trigger_ts_evals_total",
	"chimera_plan_memo_hits_total",
	"chimera_plan_memo_misses_total",
	"chimera_eb_appends_total",
	"chimera_eb_occurrences_retired_total",
	"chimera_eb_segments_allocated_total",
	"chimera_engine_events_total",
	"chimera_engine_commits_total",
	"chimera_engine_published_objects_total",
	"chimera_wal_bytes_total",
	"chimera_wal_records_total",
	"chimera_wal_fsyncs_total",
	"chimera_ckpt_total",
}

func readCounters(reg *chimera.MetricsRegistry) counters {
	c := counters{}
	for _, n := range counterNames {
		c[n] = reg.Counter(n).Value()
	}
	h := reg.Histogram("chimera_engine_commit_wait_ns")
	c["commit_wait_n"], c["commit_wait_ns"] = h.Count(), h.Sum()
	return c
}

func (c counters) sub(o counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - o[k]
	}
	return d
}

func ratio(a, b int64) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// registryLayers reports the per-layer metrics read from the metrics
// registry over a measured phase: d is the counter delta, ops the
// phase's operations and txns its committed write transactions.
func registryLayers(o *outcome, d counters, ops, txns int64) {
	evals := d["chimera_trigger_ts_evals_total"]
	hits, misses := d["chimera_plan_memo_hits_total"], d["chimera_plan_memo_misses_total"]
	o.layer("calculus.ts_evals_per_event", ratio(evals, d["chimera_engine_events_total"]), "count")
	o.layer("calculus.memo_hit_ratio", ratio(hits, hits+misses), "ratio")
	o.layer("event.appends_per_op", ratio(d["chimera_eb_appends_total"], ops), "count")
	o.layer("event.retired_per_op", ratio(d["chimera_eb_occurrences_retired_total"], ops), "count")
	o.layer("event.segments_alloc_per_op", ratio(d["chimera_eb_segments_allocated_total"], ops), "count")
	commits := d["chimera_engine_commits_total"]
	o.layer("object.published_per_commit", ratio(d["chimera_engine_published_objects_total"], commits), "count")
	o.layer("wal.bytes_per_txn", ratio(d["chimera_wal_bytes_total"], txns), "B")
	o.layer("wal.records_per_txn", ratio(d["chimera_wal_records_total"], txns), "count")
	o.layer("wal.fsyncs_per_commit", ratio(d["chimera_wal_fsyncs_total"], commits), "count")
	o.layer("engine.commit_wait_us", ratio(d["commit_wait_ns"], d["commit_wait_n"])/1e3, "us")
	o.layer("ckpt.count", float64(d["chimera_ckpt_total"]), "count")
}

func runtimeLayers(o *outcome, rt rtDelta) {
	o.layer("runtime.gc_cpu_share", rt.gcCPUShare, "ratio")
	o.layer("runtime.gc_pause_p99_us", rt.gcPauseP99Us, "us")
}

// traceLayers reports the per-layer metrics derived from the layer
// tracer over a measured phase whose blocking path took pathNs.
func traceLayers(o *outcome, s traceSnap, pathNs, ops int64) {
	us := func(b bucket) float64 { return float64(s.self[b]) / 1e3 }
	share := func(b bucket) float64 { return ratio(s.self[b], pathNs) }
	o.layer("rules.notify_us", perOp(us(bNotify), s.blocks), "us")
	o.layer("rules.sweep_us", perOp(us(bSweep), s.sweeps), "us")
	o.layer("rules.sweep_share", share(bNotify)+share(bSweep), "ratio")
	o.layer("rules.examined_per_sweep", ratio(s.examined, s.sweeps), "count")
	o.layer("rules.fire_ratio", ratio(s.fired, s.examined), "ratio")
	o.layer("cond.consider_us", perOp(us(bCond), s.considered), "us")
	o.layer("cond.share", share(bCond), "ratio")
	o.layer("cond.considerations_per_op", ratio(s.considered, ops), "count")
	o.layer("cond.hold_ratio", ratio(s.held, s.considered), "ratio")
	o.layer("act.exec_us", perOp(us(bAct), s.executed), "us")
	o.layer("act.executions_per_op", ratio(s.executed, ops), "count")
	o.layer("event.compact_us", perOp(us(bCompact), s.blocks), "us")
}

// accountingTolerance bounds the blocking-path time the layer spans may
// leave unexplained, as a share of the end-to-end time.
const accountingTolerance = 0.05

// account adds up the self times of the span-delimited buckets on one
// blocking path (what, end to end pathNs) and checks they explain it
// within accountingTolerance; extra adds layer time measured outside the
// tracer (per-layer totals keyed by layer). What the spans leave over is
// named bucket by bucket: the catch-all buckets (engine.api, client,
// stream.ingest) and whatever no bucket saw. It then names the top layer
// and compares it with the prediction, if there is one.
func account(o *outcome, what string, s traceSnap, pathNs int64, extra map[string]int64, predicted string) {
	layers := map[string]int64{}
	var sum int64
	var parts, rest []string
	pct := func(ns int64) float64 { return 100 * ratio(ns, pathNs) }
	for b := bucket(0); b < nBuckets; b++ {
		if b == bOutside || s.self[b] == 0 {
			continue
		}
		if !bucketSpan[b] {
			rest = append(rest, fmt.Sprintf("%s=%.1f%%", bucketName[b], pct(s.self[b])))
			continue
		}
		sum += s.self[b]
		parts = append(parts, fmt.Sprintf("%s=%.1f%%", bucketName[b], pct(s.self[b])))
		layers[bucketLayer[b]] += s.self[b]
	}
	for l, ns := range extra {
		sum += ns
		layers[l] += ns
		parts = append(parts, fmt.Sprintf("%s=%.1f%%", l, pct(ns)))
	}
	seen := sum
	for b := bucket(0); b < nBuckets; b++ {
		if b != bOutside && !bucketSpan[b] {
			seen += s.self[b]
		}
	}
	if other := pathNs - seen; other != 0 {
		rest = append(rest, fmt.Sprintf("untimed=%.1f%%", pct(other)))
	}
	un := pathNs - sum
	verdict := "within"
	if float64(abs(un)) > accountingTolerance*float64(pathNs) {
		verdict = "OUTSIDE"
	}
	o.account = append(o.account,
		fmt.Sprintf("%s: end-to-end %.3fs; layer spans %s; unaccounted %.1f%% (%s the %.0f%% tolerance): %s",
			what, float64(pathNs)/1e9, strings.Join(parts, " "), pct(un), verdict, 100*accountingTolerance,
			strings.Join(rest, " ")))
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
	if len(names) == 0 {
		return
	}
	top := names[0]
	match := "matches the prediction"
	if predicted == "" {
		match = "no prediction"
	} else if top != predicted {
		match = fmt.Sprintf("MISMATCH: predicted %s (%.1f%%)", predicted, pct(layers[predicted]))
	}
	o.account = append(o.account, fmt.Sprintf("%s: top layer %s (%.1f%% of end-to-end), %s",
		what, top, pct(layers[top]), match))
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
