package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"chimera"
)

// rw-snapshot: one writer line in multi-session mode commits
// pair-preserving transfers over 100,000 accounts on a fixed schedule,
// while one reader goroutine runs closed-loop read-only transactions
// (BeginRead): Zipf point reads of a transfer pair, and now and then a
// class Select. Every read checks that its pair still sums to the same
// total. The object store's snapshot publication does the work; the
// two rules only watch for low balances.
const rwProgram = `
class branch(name: string)
class account(branch: integer, balance: integer, low: integer)

define immediate lowbalance for account
events modify(balance)
condition occurred(modify(balance), A), A.balance < 100, A.low = 0
action modify(account.low, A, 1)
end

define immediate recovered for account
events modify(balance)
condition occurred(modify(balance), A), A.balance >= 100, A.low = 1
action modify(account.low, A, 0)
end`

const (
	// rwWriteRate is the writer's fixed schedule, in transfers per second.
	rwWriteRate = 1000
	rwSetups    = 7
	// rwSeedChunk accounts are created per seeding transaction, a set-up
	// step of a few milliseconds.
	rwSeedChunk = 500
	// readSampleEvery: one read latency in this many is kept.
	readSampleEvery = 8
)

func rwOptions() chimera.Options {
	o := chimera.DefaultOptions()
	o.MaxSessions = 2
	return o
}

type rwDB struct {
	db       *chimera.DB
	accounts []chimera.OID // pair p is accounts[2p], accounts[2p+1]
}

// rwSetup opens the database, loads the program and seeds branches and
// accounts, then takes the first read; each seeding transaction ends a
// step.
func rwSetup(in *rwInput, opts chimera.Options, step func()) (rwDB, float64, error) {
	db := chimera.OpenWith(opts)
	loadMs, err := loadProgram(db, rwProgram)
	if err != nil {
		return rwDB{}, 0, err
	}
	err = db.Run(func(tx *chimera.Txn) error {
		for b := 0; b < rwBranches; b++ {
			if _, err := tx.Create("branch", chimera.Values{"name": chimera.Str(fmt.Sprintf("b%02d", b))}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return rwDB{}, 0, err
	}
	step()
	s := rwDB{db: db, accounts: make([]chimera.OID, rwAccounts)}
	for lo := 0; lo < rwAccounts; lo += rwSeedChunk {
		err := db.Run(func(tx *chimera.Txn) error {
			for i := lo; i < min(lo+rwSeedChunk, rwAccounts); i++ {
				bal := in.first[i/2]
				if i%2 == 1 {
					bal = rwPairSum - bal
				}
				var err error
				s.accounts[i], err = tx.Create("account", chimera.Values{
					"branch": chimera.Int(int64(i % rwBranches)), "balance": chimera.Int(bal), "low": chimera.Int(0),
				})
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return rwDB{}, 0, err
		}
		step()
	}
	// The first read materializes the whole snapshot: part of set-up.
	r := db.BeginRead()
	if r.Len() != rwAccounts+rwBranches {
		return rwDB{}, 0, fmt.Errorf("snapshot holds %d objects, want %d", r.Len(), rwAccounts+rwBranches)
	}
	r.Close()
	return s, loadMs, nil
}

// transfer moves w.amount between the two accounts of pair w.pair,
// clamped so that neither balance goes negative.
func (s rwDB) transfer(w rwWrite, tr *layerTracer) error {
	a, b := s.accounts[2*w.pair], s.accounts[2*w.pair+1]
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
	fail := func(err error) error {
		tx.Rollback() //nolint:errcheck // the first error is reported
		return err
	}
	if tr != nil {
		tr.begin(callGet)
	}
	oa, okA := tx.Get(a)
	ob, okB := tx.Get(b)
	if tr != nil {
		tr.end()
	}
	if !okA || !okB {
		return fail(fmt.Errorf("pair %d missing", w.pair))
	}
	balA, balB := oa.MustGet("balance").AsInt(), ob.MustGet("balance").AsInt()
	amt := max(-balB, min(balA, int64(w.amount)))
	for _, m := range []struct {
		oid chimera.OID
		bal int64
	}{{a, balA - amt}, {b, balB + amt}} {
		if tr != nil {
			tr.begin(callModify)
		}
		err := tx.Modify(m.oid, "balance", chimera.Int(m.bal))
		if tr != nil {
			tr.end()
		}
		if err != nil {
			return fail(err)
		}
	}
	if tr != nil {
		tr.begin(callEndLine)
	}
	err = tx.EndLine()
	if tr != nil {
		tr.end()
	}
	if err != nil {
		return fail(err)
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

// readStats is what the reader goroutine measured.
type readStats struct {
	reads, selects, broken int64
	lat                    []int64
	pathNs                 int64
	// Traced runs time the steps of every read; begin keeps a sample of
	// the BeginRead times.
	beginNs, getNs, getN, selectNs int64
	begin                          []int64
}

func (s rwDB) reader(in *rwInput, stop *atomic.Bool, traced bool) *readStats {
	st := &readStats{lat: make([]int64, 0, 1<<21)}
	if traced {
		st.begin = make([]int64, 0, 1<<21)
	}
	for j := 0; !stop.Load(); j++ {
		rd := in.reads[j%len(in.reads)]
		t0 := time.Now()
		r := s.db.BeginRead()
		var t1 time.Time
		if traced {
			t1 = time.Now()
			d := int64(t1.Sub(t0))
			st.beginNs += d
			if j%readSampleEvery == 0 {
				st.begin = append(st.begin, d)
			}
		}
		if rd.selekt {
			oids, err := r.Select("branch")
			if err != nil || len(oids) != rwBranches {
				st.broken++
			}
			st.selects++
			if traced {
				st.selectNs += since(t1)
			}
		} else {
			oa, okA := r.Get(s.accounts[2*rd.pair])
			ob, okB := r.Get(s.accounts[2*rd.pair+1])
			if !okA || !okB || oa.MustGet("balance").AsInt()+ob.MustGet("balance").AsInt() != rwPairSum {
				st.broken++
			}
			if traced {
				st.getNs += since(t1)
				st.getN += 2
			}
		}
		r.Close()
		d := since(t0)
		st.pathNs += d
		if j%readSampleEvery == 0 {
			st.lat = append(st.lat, d)
		}
		st.reads++
	}
	return st
}

func runRW(cfg config, traced bool) (*outcome, error) {
	in := genRW(cfg.seed)
	o := &outcome{}
	var reg *chimera.MetricsRegistry
	s, su, err := setupTimes(rwSetups, func(step func()) (rwDB, float64, error) {
		opts := rwOptions()
		if traced {
			reg = chimera.NewMetricsRegistry()
			opts.Metrics = reg
		}
		return rwSetup(in, opts, step)
	}, func(s rwDB) { s.db.Close() })
	if err != nil {
		return nil, err
	}
	defer s.db.Close()
	var tr *layerTracer
	var before counters
	if traced {
		tr = newLayerTracer()
		s.db.SetTracer(tr)
		before = readCounters(reg)
	}

	var stop atomic.Bool
	var rs *readStats
	var wg sync.WaitGroup
	rt := startRT()
	cpu0 := cpuNow()
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		rs = s.reader(in, &stop, traced)
	}()

	// The writer: transfer i is due at start + i/rwWriteRate; its latency
	// runs from the due time to the end of Commit.
	dur := time.Duration(cfg.seconds) * time.Second
	interval := time.Second / rwWriteRate
	n := int(dur / interval)
	txnLat := make([]int64, 0, n)
	var wPath, failed, liveMax int64
	var firstErr error
	for i := 0; i < n; i++ {
		due := time.Duration(i) * interval
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		t := time.Now()
		if err := s.transfer(in.writes[i%len(in.writes)], tr); err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("transfer %d: %w", i, err)
			}
		}
		wPath += since(t)
		txnLat = append(txnLat, int64(time.Since(start)-due))
		if traced {
			liveMax = max(liveMax, reg.Gauge("chimera_eb_live_occurrences").Value())
		}
	}
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	cpu := cpuNow() - cpu0
	rtd := rt.stop()

	o.check("transfers commit", failed == 0, "%d of %d failed (first: %v)", failed, n, firstErr)
	// Output checks: every read saw its pair intact, and so does the
	// final committed state.
	o.check("reads see whole transfers", rs.broken == 0,
		"%d of %d reads saw a pair whose sum changed or a short branch list", rs.broken, rs.reads)
	bad := 0
	for p := 0; p < rwPairs; p++ {
		a, okA := s.db.Store().Get(s.accounts[2*p])
		b, okB := s.db.Store().Get(s.accounts[2*p+1])
		if !okA || !okB || a.MustGet("balance").AsInt()+b.MustGet("balance").AsInt() != rwPairSum {
			bad++
		}
	}
	o.check("pairs intact after the run", bad == 0, "%d of %d pairs changed their sum", bad, rwPairs)

	readSum, txnSum := summarize(rs.lat), summarize(txnLat)
	beginSum := summarize(rs.begin)
	rs.lat, rs.begin, txnLat, in = nil, nil, nil, nil
	heap := liveHeapMB()
	runtime.KeepAlive(s)

	ops := rs.reads + int64(n)
	o.attempted = ops
	o.failed = failed + rs.broken
	// Reads allocate nothing; allocation scales with the transfers (their
	// own work and the snapshot rebuilds their commits cause).
	o.costs(su, cpu, rs.reads, rtd.allocBytes, int64(n), heap)
	o.metric("txn_p50_us", txnSum.p50/1e3, "us")
	o.metric("txn_p99_us", txnSum.high/1e3, "us")
	o.metric("read_p50_us", readSum.p50/1e3, "us")
	o.metric("read_p99_us", readSum.high/1e3, "us")
	o.metric("reads_per_s", float64(rs.reads)/elapsed, "reads/s")

	if traced {
		st := tr.snap()
		d := readCounters(reg).sub(before)
		o.layer("lang.load_ms", su.loadMs, "ms")
		o.layer("engine.modify_us", st.callUs(callModify), "us")
		o.layer("engine.endline_us", st.callUs(callEndLine), "us")
		o.layer("engine.commit_us", st.callUs(callCommit), "us")
		traceLayers(o, st, wPath, int64(n))
		o.layer("event.live_max", float64(liveMax), "count")
		registryLayers(o, d, int64(n), int64(n))
		o.layer("object.begin_read_us", perOp(float64(rs.beginNs)/1e3, rs.reads), "us")
		o.layer("object.begin_read_p99_us", beginSum.high/1e3, "us")
		o.layer("object.get_us", perOp(float64(rs.getNs)/1e3, rs.getN), "us")
		o.layer("object.select_us", perOp(float64(rs.selectNs)/1e3, rs.selects), "us")
		runtimeLayers(o, rtd)
		account(o, "writer txn path", st, wPath, nil, "")
		account(o, "read path", traceSnap{}, rs.pathNs, map[string]int64{
			"object": rs.beginNs + rs.getNs + rs.selectNs,
		}, "object")
	}
	return o, nil
}
