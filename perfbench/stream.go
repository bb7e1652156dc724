package main

import (
	"fmt"
	"runtime"
	"time"

	"chimera"
)

// stream-fraud: one in-memory stream session (default StreamOptions
// plus a retention Window) over 2,000 cards and 50 merchants, with 20
// rules mixing set and instance operators. Swipes and merchant volume
// updates make up the stream; rare limit, country, PIN and risk changes
// and external signals complete the composite patterns, so rules fire
// on a small share of batches and their actions create alerts.
// Conditions start from the event formula, so the stream, Event Base
// and triggering layers do the work.
const fraudProgram = `
class card(holder: string, spent: integer, limit: integer, flagged: integer, country: string, pin: integer)
class merchant(name: string, volume: integer, risk: integer)
class alert(kind: string, holder: string)

define immediate probe priority 1
events external(declined) < modify(card.spent)
condition occurred(modify(card.spent), C), C.flagged = 1
action create once(alert, kind = "probe", holder = C.holder)
end

define immediate travel for card priority 2
events modify(country) <= modify(spent)
condition occurred(modify(country) <= modify(spent), C), C.flagged = 1
action create once(alert, kind = "travel", holder = C.holder)
end

define immediate limitraise for card priority 3
events modify(limit) <= modify(spent)
condition occurred(modify(limit) <= modify(spent), C), C.spent > C.limit
action create once(alert, kind = "limit-raise", holder = C.holder)
end

define immediate pinreset for card priority 4
events modify(pin) <= modify(spent)
condition occurred(modify(pin) <= modify(spent), C), C.flagged = 1
action create once(alert, kind = "pin-reset", holder = C.holder)
end

define immediate chargeback priority 5
events external(chargeback) + -external(refund)
action create once(alert, kind = "chargeback", holder = "-")
end

define immediate riskymerchant for merchant priority 6
events modify(risk) <= modify(volume)
condition occurred(modify(risk) <= modify(volume), M), M.risk > 6
action create once(alert, kind = "risky-merchant", holder = M.name)
end

define immediate quietmerchants priority 7
events external(tick) + -modify(merchant.volume)
action create once(alert, kind = "quiet", holder = "-")
end

define immediate flagspend for card priority 8
events modify(flagged) <= modify(spent)
condition occurred(modify(flagged) <= modify(spent), C), C.flagged = 1
action create once(alert, kind = "flag-spend", holder = C.holder)
end

define immediate limitcountry for card priority 9
events modify(limit) += modify(country)
condition occurred(modify(limit) += modify(country), C)
action create once(alert, kind = "limit-country", holder = C.holder)
end

define immediate declinedrisk priority 10
events external(declined) + modify(merchant.risk)
condition occurred(modify(merchant.risk), M), M.risk > 8
action create once(alert, kind = "declined-risk", holder = M.name)
end

define immediate chargebackspend priority 11
events external(chargeback) < modify(card.spent)
condition occurred(modify(card.spent), C), C.flagged = 1, C.spent > C.limit
action create once(alert, kind = "chargeback-spend", holder = C.holder)
end

define immediate pinlimit for card priority 12
events modify(pin) += modify(limit)
condition occurred(modify(pin) += modify(limit), C)
action create once(alert, kind = "pin-limit", holder = C.holder)
end

define immediate countryrisk priority 13
events modify(card.country) + modify(merchant.risk)
condition occurred(modify(card.country), C), C.flagged = 1
action create once(alert, kind = "country-risk", holder = C.holder)
end

define immediate refundvolume priority 14
events external(refund) < modify(merchant.volume)
condition occurred(modify(merchant.volume), M), M.risk > 8
action create once(alert, kind = "refund-volume", holder = M.name)
end

define immediate riskpin priority 15
events modify(merchant.risk) < modify(card.pin)
condition occurred(modify(card.pin), C), C.flagged = 1
action create once(alert, kind = "risk-pin", holder = C.holder)
end

define immediate nodecline priority 16
events modify(card.limit) + -external(declined)
condition occurred(modify(card.limit), C), C.spent > C.limit
action create once(alert, kind = "limit-no-decline", holder = C.holder)
end

define immediate countryflag for card priority 17
events modify(country) <= modify(flagged)
condition occurred(modify(country) <= modify(flagged), C)
action create once(alert, kind = "country-flag", holder = C.holder)
end

define immediate cleantick priority 18
events external(tick) + -modify(card.limit)
action create once(alert, kind = "clean-tick", holder = "-")
end

define deferred preserving sessionaudit priority 19
events external(chargeback) < external(refund)
action create once(alert, kind = "session-audit", holder = "-")
end

define immediate bigspender for card priority 20
events modify(spent) <= modify(limit)
condition occurred(modify(spent) <= modify(limit), C), C.spent > C.limit
action create once(alert, kind = "big-spender", holder = C.holder)
end`

const (
	// fraudWindow is the session's retention window in logical ticks
	// (one tick per event): about sixteen default-sized batches.
	fraudWindow = 4096
	// fraudRate is the open-loop phase's offered load in events/s: at
	// most about half the saturated stream_eps measured on a 2-core host
	// (LAYERS.md).
	fraudRate = 40_000
	// fraudSatPerSecond events per run second make the saturated phase:
	// a fixed count, so that the state the rules build (alerts) does not
	// grow with the host's speed; it takes about half the run on a 2-core
	// host.
	fraudSatPerSecond = 45_000
	// fraudPrefixBatches full batches of the default size make the gate's
	// prefix.
	fraudPrefixBatches = 64
	fraudBatch         = 256
	fraudSetups        = 20
	// emitSampleEvery: one Emit in this many is timed (traced runs).
	emitSampleEvery = 16
	// pollEvery paces the open-loop producer.
	pollEvery = 250 * time.Microsecond
	// drainLimit bounds how long the open-loop phase waits for its last
	// events, so a stalled session fails the run instead of hanging it.
	drainLimit = 30 * time.Second
)

var fraudTypes = [evKinds]chimera.EventType{
	evSpend:      chimera.ModifyOf("card", "spent"),
	evVolume:     chimera.ModifyOf("merchant", "volume"),
	evLimit:      chimera.ModifyOf("card", "limit"),
	evCountry:    chimera.ModifyOf("card", "country"),
	evPin:        chimera.ModifyOf("card", "pin"),
	evFlag:       chimera.ModifyOf("card", "flagged"),
	evRisk:       chimera.ModifyOf("merchant", "risk"),
	evDeclined:   chimera.ExternalOf("declined"),
	evChargeback: chimera.ExternalOf("chargeback"),
	evRefund:     chimera.ExternalOf("refund"),
	evTick:       chimera.ExternalOf("tick"),
}

type fraudDB struct {
	db     *chimera.DB
	cards  []chimera.OID
	merchs []chimera.OID
}

func (f fraudDB) oid(ev fraudEvent) chimera.OID {
	switch ev.kind {
	case evVolume, evRisk:
		return f.merchs[ev.obj]
	case evDeclined, evChargeback, evRefund, evTick:
		return 0
	}
	return f.cards[ev.obj]
}

// fraudSetup opens the database, loads the rules and seeds cards and
// merchants (two steps, each ending at step).
func fraudSetup(in *fraudInput, opts chimera.Options, step func()) (fraudDB, float64, error) {
	db := chimera.OpenWith(opts)
	loadMs, err := loadProgram(db, fraudProgram)
	if err != nil {
		return fraudDB{}, 0, err
	}
	step()
	f := fraudDB{db: db, cards: make([]chimera.OID, len(in.cards)), merchs: make([]chimera.OID, len(in.merchRisk))}
	err = db.Run(func(tx *chimera.Txn) error {
		for i, c := range in.cards {
			flagged := int64(0)
			if c.flagged {
				flagged = 1
			}
			var err error
			f.cards[i], err = tx.Create("card", chimera.Values{
				"holder": chimera.Str(fmt.Sprintf("h%04d", i)), "spent": chimera.Int(c.spent),
				"limit": chimera.Int(c.limit), "flagged": chimera.Int(flagged),
				"country": chimera.Str("FR"), "pin": chimera.Int(int64(i % 10_000)),
			})
			if err != nil {
				return err
			}
		}
		for i, risk := range in.merchRisk {
			var err error
			f.merchs[i], err = tx.Create("merchant", chimera.Values{
				"name": chimera.Str(fmt.Sprintf("m%02d", i)), "volume": chimera.Int(0), "risk": chimera.Int(risk),
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	step()
	return f, loadMs, err
}

// fraudPrefix runs a prefix of full batches with the workload's
// retention window, and returns the store fingerprint and rule-execution
// count. Streamed, it goes through a session on a manual clock, so batch
// boundaries depend on the input alone; otherwise it replays the same
// batches as transaction lines, as the stream closes them.
func fraudPrefix(in *fraudInput, opts chimera.Options, streamed bool) (fp string, execs int64, err error) {
	f, _, err := fraudSetup(in, opts, noStep)
	if err != nil {
		return
	}
	defer f.db.Close()
	if streamed {
		var s *chimera.Stream
		s, err = chimera.OpenStream(f.db, chimera.StreamOptions{
			Window: fraudWindow, MaxBatch: fraudBatch,
			Clock: chimera.NewManualClock(time.Unix(0, 0)),
		})
		if err != nil {
			return
		}
		for _, ev := range in.events[:fraudPrefixBatches*fraudBatch] {
			if err = s.Emit(fraudTypes[ev.kind], f.oid(ev)); err != nil {
				return
			}
		}
		if err = s.Close(); err != nil {
			return
		}
		if b := s.Stats().Batches; b != fraudPrefixBatches {
			err = fmt.Errorf("prefix swept in %d batches, want %d", b, fraudPrefixBatches)
			return
		}
	} else {
		var tx *chimera.Txn
		if tx, err = f.db.Begin(); err != nil {
			return
		}
		if err = tx.SetRetention(fraudWindow); err != nil {
			return
		}
		for b := 0; b < fraudPrefixBatches; b++ {
			if err = tx.ResetRuleGuard(); err != nil {
				return
			}
			for _, ev := range in.events[b*fraudBatch : (b+1)*fraudBatch] {
				if err = tx.Emit(fraudTypes[ev.kind], f.oid(ev)); err != nil {
					return
				}
			}
			if err = tx.EndLine(); err != nil {
				return
			}
		}
		if err = tx.Commit(); err != nil {
			return
		}
	}
	return fingerprint(f.db), f.db.Stats().RuleExecutions, nil
}

// fraudGates checks the measured configuration's prefix: streamed, it
// must match the same batches replayed as lines on the same engine. Its
// comparison with the reference engine is printed as a known defect and
// does not gate: with the retention Window the optimised Trigger Support
// executes fewer rules than the reference on most seeds (the V(E) filter
// and the shared plan assume a rule's triggering changes only when a
// relevant event arrives, but retention retiring a negated occurrence
// changes it too). It becomes a gate once the engine fixes that.
func fraudGates(o *outcome, in *fraudInput) error {
	n := fraudPrefixBatches * fraudBatch
	fp, execs, err := fraudPrefix(in, chimera.DefaultOptions(), true)
	if err != nil {
		return err
	}
	lineFP, lineExecs, err := fraudPrefix(in, chimera.DefaultOptions(), false)
	if err != nil {
		return err
	}
	o.check("prefix stream matches line replay", fp == lineFP && execs == lineExecs,
		"%d events in %d batches, window %d: fingerprint %s vs %s, rule executions %d vs %d",
		n, fraudPrefixBatches, fraudWindow, fp, lineFP, execs, lineExecs)
	refFP, refExecs, err := fraudPrefix(in, referenceOptions(), false)
	if err != nil {
		return err
	}
	verdict := "agree"
	if fp != refFP || execs != refExecs {
		verdict = "DIVERGE"
	}
	o.known = append(o.known, fmt.Sprintf("prefix vs reference engine (not a gate until retention is exact): %s (window %d: fingerprint %s vs %s, rule executions %d vs %d)",
		verdict, fraudWindow, fp, refFP, execs, refExecs))
	return nil
}

type fraudSession struct {
	fraudDB
	s  *chimera.Stream
	tr *layerTracer
}

func runFraud(cfg config, traced bool) (*outcome, error) {
	in := genFraud(cfg.seed)
	o := &outcome{}
	if err := fraudGates(o, in); err != nil {
		return nil, err
	}
	var reg *chimera.MetricsRegistry
	fs, su, err := setupTimes(fraudSetups, func(step func()) (fraudSession, float64, error) {
		opts := chimera.DefaultOptions()
		var tr *layerTracer
		if traced {
			reg = chimera.NewMetricsRegistry()
			opts.Metrics = reg
		}
		f, loadMs, err := fraudSetup(in, opts, step)
		if err != nil {
			return fraudSession{}, 0, err
		}
		if traced {
			tr = newLayerTracer()
			f.db.SetTracer(tr)
		}
		s, err := chimera.OpenStream(f.db, chimera.StreamOptions{Window: fraudWindow})
		return fraudSession{f, s, tr}, loadMs, err
	}, func(fs fraudSession) {
		fs.s.Close()
		fs.db.Close()
	})
	if err != nil {
		return nil, err
	}
	defer fs.db.Close()
	s, tr := fs.s, fs.tr
	var before counters
	if traced {
		before = readCounters(reg)
	}
	half := time.Duration(cfg.seconds) * time.Second / 2
	var emitted int64
	var queueMax, liveMax int
	next := func() fraudEvent {
		ev := in.events[emitted%int64(len(in.events))]
		emitted++
		return ev
	}
	sample := func() uint64 {
		st := s.Stats()
		queueMax, liveMax = max(queueMax, st.QueueDepth), max(liveMax, st.LiveEvents)
		return st.Events
	}
	rt := startRT()

	// Phase 1: saturated. The producer emits a fixed number of events as
	// fast as Block backpressure lets it; Flush is the drain barrier.
	satN := fraudSatPerSecond * cfg.seconds
	emitLat := make([]int64, 0, satN/emitSampleEvery+1)
	var tr1 traceSnap
	if tr != nil {
		tr1 = tr.snap()
	}
	ev0 := s.Stats().Events
	cpu0 := cpuNow()
	start := time.Now()
	for i := 0; i < satN; i++ {
		if i%fraudBatch == 0 {
			sample()
		}
		ev := next()
		var t time.Time
		timeIt := traced && i%emitSampleEvery == 0
		if timeIt {
			t = time.Now()
		}
		if err := s.Emit(fraudTypes[ev.kind], fs.oid(ev)); err != nil {
			return nil, err
		}
		if timeIt {
			emitLat = append(emitLat, since(t))
		}
	}
	flushErr := s.Flush()
	o.check("saturated phase drains", flushErr == nil, "%d events, flush error %v", satN, flushErr)
	satNs := since(start)
	satCPU := cpuNow() - cpu0
	satEvents := int64(s.Stats().Events - ev0)
	var satTrace traceSnap
	if tr != nil {
		satTrace = tr.snap().sub(tr1)
	}

	// Phase 2: open loop at fraudRate. Event i is due at start + i/rate;
	// its delay runs from the due time until the producer sees
	// Stats().Events pass its sequence number (one producer, FIFO queue).
	// The producer wakes every pollEvery to emit what has come due and
	// poll the count, so it leaves the cores to the sweep.
	n := int(float64(fraudRate) * half.Seconds())
	delay := make([]int64, n)
	late := make([]int64, n)
	base := s.Stats().Events
	interval := 1e9 / float64(fraudRate)
	due := func(i int) int64 { return int64(float64(i) * interval) }
	start = time.Now()
	giveUp := int64(half + drainLimit)
	head := 0
	for i := 0; i < n || head < n; {
		now := since(start)
		if now > giveUp {
			o.check("open-loop events drain", false, "%d of %d events still pending %v after the phase", n-head, n, drainLimit)
			break
		}
		for ; i < n && due(i) <= now; i++ {
			late[i] = now - due(i)
			ev := next()
			if err := s.Emit(fraudTypes[ev.kind], fs.oid(ev)); err != nil {
				return nil, err
			}
		}
		done := min(int(sample()-base), i)
		now = since(start)
		for ; head < done; head++ {
			delay[head] = now - due(head)
		}
		time.Sleep(pollEvery)
	}

	closeStart := time.Now()
	closeErr := s.Close()
	o.check("stream commits", closeErr == nil, "close error %v", closeErr)
	closeUs := float64(since(closeStart)) / 1e3
	rtd := rt.stop()
	st := s.Stats()
	o.check("every emitted event ingested", int64(st.Events-ev0) == emitted && st.Dropped == 0 && s.Err() == nil,
		"emitted %d, ingested %d, dropped %d, batch error %v", emitted, st.Events-ev0, st.Dropped, s.Err())
	alerts, _ := fs.db.Store().Select("alert")
	o.check("rules fired", len(alerts) > 0, "%d alerts from %d rule executions", len(alerts), fs.db.Stats().RuleExecutions)

	delaySum, lateSum, emitSum := summarize(delay), summarize(late), summarize(emitLat)
	delay, late, emitLat, in = nil, nil, nil, nil
	heap := liveHeapMB()
	runtime.KeepAlive(fs)

	o.attempted = emitted
	o.failed = int64(st.Dropped)
	if s.Err() != nil {
		o.failed++
	}
	o.costs(su, satCPU, satEvents, rtd.allocBytes, emitted, heap)
	eps := float64(satEvents) / (float64(satNs) / 1e9)
	o.metric("stream_eps", eps, "events/s")
	o.metric("event_p50_ms", delaySum.p50/1e6, "ms")
	o.metric("event_p99_ms", delaySum.high/1e6, "ms")
	o.metric("offered_eps", fraudRate, "events/s")
	// The open loop measures recognition delay only while its offered
	// load stays well below saturation.
	o.metric("offered_share", fraudRate/eps, "ratio")

	if traced {
		d := readCounters(reg).sub(before)
		o.layer("lang.load_ms", su.loadMs, "ms")
		o.layer("engine.commit_us", closeUs, "us")
		traceLayers(o, satTrace, satNs, satEvents)
		o.layer("event.live_max", float64(liveMax), "count")
		registryLayers(o, d, emitted, 1)
		o.layer("stream.emit_p99_us", emitSum.high/1e3, "us")
		o.layer("stream.batch_events", ratio(int64(st.Events), int64(st.Batches)), "count")
		o.layer("stream.queue_depth_max", float64(queueMax), "count")
		o.layer("stream.gen_late_p99_ms", lateSum.high/1e6, "ms")
		runtimeLayers(o, rtd)
		account(o, "saturated stream (sweep goroutine)", satTrace, satNs, nil, "rules")
	}
	return o, nil
}
