package main

import (
	"fmt"
	"runtime"
	"time"

	"chimera"
)

// oltp-inventory: one closed-loop client committing short inventory
// transactions against a durable store (MemStore, fsync per commit,
// automatic checkpoints) over a constant catalog of 1,000 stock items
// picked Zipf-skewed. The rule set is the paper's stock example written
// paper-style, class atom first, so every consideration scans the
// catalog: the condition, action, WAL and checkpoint layers do the work.
const oltpProgram = `
class stock(name: string, quantity: integer, minquantity: integer, maxquantity: integer, reorders: integer)

define immediate clamp for stock priority 1
events modify(quantity)
condition stock(S), occurred(modify(quantity), S), S.quantity > S.maxquantity
action modify(stock.quantity, S, S.maxquantity)
end

define immediate reorder for stock priority 2
events modify(minquantity) <= modify(quantity)
condition stock(S), occurred(modify(minquantity) <= modify(quantity), S), S.quantity < S.minquantity
action modify(stock.quantity, S, S.maxquantity); modify(stock.reorders, S, S.reorders + 1)
end

define deferred floor for stock
events modify(quantity)
condition stock(S), occurred(modify(quantity), S), S.quantity < 0
action modify(stock.quantity, S, 0)
end`

const (
	// oltpCheckpointEvery is the automatic checkpoint cadence in blocks
	// (a transaction closes about five).
	oltpCheckpointEvery = 1000
	// oltpPrefixTxns is the seeded prefix the gates replay on the
	// reference engine and the crash image recovery starts from.
	oltpPrefixTxns = 400
	oltpSetups     = 20
	recoverReps    = 5
)

func oltpOptions(store chimera.SegmentStore) chimera.Options {
	o := chimera.DefaultOptions()
	o.Durability = chimera.DurabilityOptions{
		Store:           store,
		Fsync:           chimera.FsyncPerCommit,
		CheckpointEvery: oltpCheckpointEvery,
	}
	return o
}

type oltpDB struct {
	db   *chimera.DB
	oids []chimera.OID
}

// oltpSetup opens the database, loads the program and seeds the catalog
// (two steps, the first ending at step).
func oltpSetup(in *oltpInput, opts chimera.Options, step func()) (oltpDB, float64, error) {
	db, err := openDB(opts)
	if err != nil {
		return oltpDB{}, 0, err
	}
	loadMs, err := loadProgram(db, oltpProgram)
	if err != nil {
		return oltpDB{}, 0, err
	}
	step()
	oids := make([]chimera.OID, len(in.items))
	err = db.Run(func(tx *chimera.Txn) error {
		for i, it := range in.items {
			var err error
			oids[i], err = tx.Create("stock", chimera.Values{
				"name":        chimera.Str(fmt.Sprintf("item%04d", i)),
				"quantity":    chimera.Int(it.quantity),
				"minquantity": chimera.Int(it.minquantity),
				"maxquantity": chimera.Int(it.maxquantity),
				"reorders":    chimera.Int(0),
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	return oltpDB{db, oids}, loadMs, err
}

// oltpTxn runs one inventory transaction: per line, read the item, write
// one attribute, close the line; then commit. tr, when set, receives
// marks around every API call.
func oltpTxn(s oltpDB, lines []oltpLine, tr *layerTracer) error {
	if tr != nil {
		tr.opStart()
		defer tr.opEnd()
		tr.begin(callBegin)
	}
	tx, err := s.db.Begin()
	if tr != nil {
		tr.end()
	}
	if err != nil {
		return err
	}
	for _, l := range lines {
		oid := s.oids[l.item]
		if tr != nil {
			tr.begin(callGet)
		}
		o, ok := tx.Get(oid)
		if tr != nil {
			tr.end()
		}
		if !ok {
			tx.Rollback() //nolint:errcheck // reporting the missing item
			return fmt.Errorf("stock item %d missing", l.item)
		}
		attr, v := "quantity", o.MustGet("quantity").AsInt()
		switch l.kind {
		case lineSale:
			v -= int64(l.amount)
		case lineRestock:
			v += int64(l.amount)
		case lineMinRaise:
			attr, v = "minquantity", int64(l.amount)
		}
		if tr != nil {
			tr.begin(callModify)
		}
		err := tx.Modify(oid, attr, chimera.Int(v))
		if tr != nil {
			tr.end()
			tr.begin(callEndLine)
		}
		if err == nil {
			err = tx.EndLine()
		}
		if tr != nil {
			tr.end()
		}
		if err != nil {
			tx.Rollback() //nolint:errcheck // the line error is reported
			return err
		}
	}
	if tr != nil {
		tr.begin(callCommit)
	}
	err = tx.Commit()
	if tr != nil {
		tr.end()
	}
	return err
}

// oltpGates runs the seeded prefix on the production configuration and
// on the reference engine, then recovers clones of the production
// store's crash image. It returns the median recovery time and the
// report of the median run.
func oltpGates(o *outcome, in *oltpInput) (float64, *chimera.RecoveryReport, error) {
	store := chimera.NewMemStore()
	prod, _, err := oltpSetup(in, oltpOptions(store), noStep)
	if err != nil {
		return 0, nil, err
	}
	defer prod.db.Close()
	ref, _, err := oltpSetup(in, referenceOptions(), noStep)
	if err != nil {
		return 0, nil, err
	}
	defer ref.db.Close()
	for i := 0; i < oltpPrefixTxns; i++ {
		if err := oltpTxn(prod, in.txn(i), nil); err != nil {
			return 0, nil, fmt.Errorf("prefix txn %d: %w", i, err)
		}
		if err := oltpTxn(ref, in.txn(i), nil); err != nil {
			return 0, nil, fmt.Errorf("reference prefix txn %d: %w", i, err)
		}
	}
	fp, refFP := fingerprint(prod.db), fingerprint(ref.db)
	execs, refExecs := prod.db.Stats().RuleExecutions, ref.db.Stats().RuleExecutions
	o.check("prefix matches reference engine", fp == refFP && execs == refExecs,
		"%d txns: fingerprint %s vs %s, rule executions %d vs %d", oltpPrefixTxns, fp, refFP, execs, refExecs)

	secs := make([]float64, 0, recoverReps)
	reports := make([]*chimera.RecoveryReport, 0, recoverReps)
	ok := true
	for i := 0; i < recoverReps; i++ {
		opts := oltpOptions(store.Clone())
		runtime.GC()
		t := time.Now()
		rdb, open, rep, err := chimera.Recover(opts)
		secs = append(secs, time.Since(t).Seconds())
		if err != nil {
			return 0, nil, fmt.Errorf("recover: %w", err)
		}
		if open != nil {
			ok = false
			open.Rollback() //nolint:errcheck // reported by the gate
		}
		if got := fingerprint(rdb); got != fp {
			ok = false
		}
		rdb.Close()
		reports = append(reports, rep)
	}
	o.check("recovered state equals committed state", ok,
		"%d recoveries of the prefix crash image, fingerprint %s", recoverReps, fp)
	med := medianFloat(secs)
	rep := reports[0]
	for i, s := range secs {
		if s == med {
			rep = reports[i]
		}
	}
	return med, rep, nil
}

func runOLTP(cfg config, traced bool) (*outcome, error) {
	in := genOLTP(cfg.seed)
	o := &outcome{}
	recoverS, rep, err := oltpGates(o, in)
	if err != nil {
		return nil, err
	}

	var ts *timedStore
	var reg *chimera.MetricsRegistry
	var tr *layerTracer
	s, su, err := setupTimes(oltpSetups, func(step func()) (oltpDB, float64, error) {
		var store chimera.SegmentStore = chimera.NewMemStore()
		if traced {
			ts = &timedStore{inner: store}
			store = ts
			reg = chimera.NewMetricsRegistry()
		}
		opts := oltpOptions(store)
		opts.Metrics = reg
		return oltpSetup(in, opts, step)
	}, func(s oltpDB) { s.db.Close() })
	if err != nil {
		return nil, err
	}
	defer s.db.Close()
	var before counters
	var storeBefore storeSnap
	if traced {
		tr = newLayerTracer()
		s.db.SetTracer(tr)
		before = readCounters(reg)
		storeBefore = ts.snap()
	}

	lat := make([]int64, 0, 100_000)
	var attempted, failed int64
	var firstErr error
	var liveMax int64
	var pathNs int64
	rt := startRT()
	cpu0 := cpuNow()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds) * time.Second)
	for i := 0; ; i++ {
		t := time.Now()
		if !t.Before(deadline) {
			break
		}
		err := oltpTxn(s, in.txn(i), tr)
		d := since(t)
		lat = append(lat, d)
		pathNs += d
		attempted++
		if err != nil {
			failed++
			firstErr = fmt.Errorf("txn %d: %w", i, err)
			break
		}
		if traced {
			liveMax = max(liveMax, reg.Gauge("chimera_eb_live_occurrences").Value())
		}
	}
	elapsed := time.Since(start).Seconds()
	cpu := cpuNow() - cpu0
	rtd := rt.stop()

	committed := attempted - failed
	o.check("transactions commit", failed == 0, "%d committed (failure: %v)", committed, firstErr)

	// Output check: the rules keep every item within [0, maxquantity].
	bad := 0
	for _, oid := range s.oids {
		obj, ok := s.db.Store().Get(oid)
		if !ok {
			bad++
			continue
		}
		q := obj.MustGet("quantity").AsInt()
		if q < 0 || q > obj.MustGet("maxquantity").AsInt() {
			bad++
		}
	}
	o.check("catalog within [0, maxquantity]", bad == 0, "%d of %d items out of range after %d txns", bad, len(s.oids), committed)
	o.check("rules fired", s.db.Stats().RuleExecutions > 0, "%d rule executions", s.db.Stats().RuleExecutions)

	sum := summarize(lat)
	lat = nil
	in = nil
	heap := liveHeapMB()
	runtime.KeepAlive(s)

	o.attempted, o.failed = attempted, failed
	o.costs(su, cpu, attempted, rtd.allocBytes, attempted, heap)
	o.metric("txn_per_s", float64(committed)/elapsed, "txn/s")
	o.metric("txn_p50_us", sum.p50/1e3, "us")
	o.metric("txn_p99_us", sum.high/1e3, "us")
	if sum.highLabel != "p99" {
		o.metric("txn_p99_us is "+sum.highLabel, float64(sum.n), "samples")
	}
	o.metric("recover_s", recoverS, "s")

	if traced {
		st := tr.snap()
		d := readCounters(reg).sub(before)
		o.layer("lang.load_ms", su.loadMs, "ms")
		o.layer("engine.modify_us", st.callUs(callModify), "us")
		o.layer("engine.endline_us", st.callUs(callEndLine), "us")
		o.layer("engine.commit_us", st.callUs(callCommit), "us")
		traceLayers(o, st, pathNs, attempted)
		o.layer("event.live_max", float64(liveMax), "count")
		registryLayers(o, d, attempted, committed)
		storageLayers(o, ts.snap().sub(storeBefore), d["chimera_engine_commits_total"])
		o.layer("recover.segment_load_ms", float64(rep.SegmentLoad)/1e6, "ms")
		o.layer("recover.replay_ms", float64(rep.Replay)/1e6, "ms")
		o.layer("recover.records", float64(rep.Records), "count")
		runtimeLayers(o, rtd)
		account(o, "txn path", st, pathNs, nil, "cond")
	}
	return o, nil
}
