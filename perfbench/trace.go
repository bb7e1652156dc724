package main

import (
	"sync/atomic"
	"time"

	"chimera"
)

// layerTracer derives per-layer self times from the engine's public
// Tracer hooks plus marks the workload client places around its own
// API calls. Every hook and mark closes the interval since the previous
// one and charges it to a bucket chosen by the pair of marks around it,
// so the buckets partition the driving goroutine's time:
//
//	BlockStart → SweepStart   rules.notify  (NotifyArrivals)
//	SweepStart → SweepEnd     rules.sweep   (triggering determination)
//	SweepEnd   → BlockEnd     event.compact (compaction, trace hooks)
//	… → Considered            cond          (pick, consider, condition)
//	Considered → Executed     act           (action statements)
//	… → BlockStart outside a client call: stream (queue receive, Txn.Emit)
//	inside Modify / Get       engine.modify / object.get
//	TransactionEnd → end of Commit: wal.wait (group-commit durability wait)
//	other time inside a call  engine (begin, line close, publication)
//	between calls in an op    client (benchmark code)
//	between ops               outside (not on the measured path)
//
// The engine calls its hooks synchronously on the goroutine running the
// transaction line, and each workload drives its line from one
// goroutine, so the interval state needs no locking; the bucket totals
// are atomics because phase boundaries read them from another goroutine.
type layerTracer struct {
	t0   time.Time
	last int64
	prev mark
	call apiCall
	// callStart is when the current client call began.
	callStart int64

	self  [nBuckets]atomic.Int64
	calls [nCalls]struct{ n, ns atomic.Int64 }

	blocks, sweeps, examined, fired atomic.Int64
	considered, held, executed      atomic.Int64
}

type mark uint8

const (
	mBlockStart mark = iota
	mSweepStart
	mSweepEnd
	mBlockEnd
	mConsidered
	mExecuted
	mTxnStart
	mTxnEnd
	mCallStart
	mCallEnd
	mOpStart
	mOpEnd
)

type apiCall uint8

const (
	callNone apiCall = iota
	callBegin
	callGet
	callModify
	callEndLine
	callCommit
	nCalls
)

type bucket uint8

const (
	bOutside bucket = iota
	bClient
	bEngine
	bModify
	bObjectGet
	bNotify
	bSweep
	bCompact
	bCond
	bAct
	bStream
	bWALWait
	nBuckets
)

// bucketLayer names the layer each bucket belongs to; "" marks time
// that is not a layer of the engine.
var bucketLayer = [nBuckets]string{
	bOutside: "", bClient: "", bEngine: "engine", bModify: "engine",
	bObjectGet: "object", bNotify: "rules", bSweep: "rules", bCompact: "event",
	bCond: "cond", bAct: "act", bStream: "stream", bWALWait: "wal",
}

// bucketSpan marks the buckets a layer span delimits at both ends (a
// pair of engine hooks, or the client's marks around one API call of a
// single layer). The others are catch-alls: engine.api is whatever is
// left inside an API call, client the benchmark's own code, and
// stream.ingest the sweep goroutine between blocks (queue receive, idle
// wait, Txn.Emit). The blocking-path accounting counts only spans.
var bucketSpan = [nBuckets]bool{
	bModify: true, bObjectGet: true, bNotify: true, bSweep: true, bCompact: true,
	bCond: true, bAct: true, bWALWait: true,
}

var bucketName = [nBuckets]string{
	bOutside: "outside", bClient: "client", bEngine: "engine.api", bModify: "engine.modify",
	bObjectGet: "object.get", bNotify: "rules.notify", bSweep: "rules.sweep",
	bCompact: "event.compact", bCond: "cond", bAct: "act", bStream: "stream.ingest",
	bWALWait: "wal.wait",
}

func newLayerTracer() *layerTracer {
	t := &layerTracer{t0: time.Now(), prev: mBlockEnd}
	t.last = t.now()
	return t
}

func (t *layerTracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *layerTracer) charge(prev, next mark) bucket {
	switch next {
	case mSweepStart:
		return bNotify
	case mSweepEnd:
		return bSweep
	case mBlockEnd:
		return bCompact
	case mConsidered:
		return bCond
	case mExecuted:
		return bAct
	case mOpStart:
		return bOutside
	case mCallStart, mOpEnd:
		return bClient
	}
	switch {
	case next == mBlockStart && prev == mExecuted:
		return bAct
	case next == mBlockStart && prev == mConsidered:
		return bCond
	case next == mCallEnd && prev == mTxnEnd && t.call == callCommit:
		return bWALWait
	case t.call == callModify:
		return bModify
	case t.call == callGet:
		return bObjectGet
	case t.call != callNone:
		return bEngine
	case next == mBlockStart:
		return bStream
	}
	return bEngine
}

func (t *layerTracer) mark(next mark) {
	now := t.now()
	t.self[t.charge(t.prev, next)].Add(now - t.last)
	t.prev, t.last = next, now
}

// begin and end bracket one client API call.
func (t *layerTracer) begin(c apiCall) {
	t.mark(mCallStart)
	t.call, t.callStart = c, t.last
}

func (t *layerTracer) end() {
	t.mark(mCallEnd)
	t.calls[t.call].n.Add(1)
	t.calls[t.call].ns.Add(t.last - t.callStart)
	t.call = callNone
}

// opStart and opEnd bracket one measured operation (a transaction).
func (t *layerTracer) opStart() { t.mark(mOpStart) }
func (t *layerTracer) opEnd()   { t.mark(mOpEnd) }

func (t *layerTracer) BlockStart(int) { t.blocks.Add(1); t.mark(mBlockStart) }
func (t *layerTracer) BlockEnd(int, []string) {
	t.mark(mBlockEnd)
}
func (t *layerTracer) SweepStart(chimera.Time) { t.mark(mSweepStart) }
func (t *layerTracer) SweepEnd(examined, fired int) {
	t.mark(mSweepEnd)
	t.sweeps.Add(1)
	t.examined.Add(int64(examined))
	t.fired.Add(int64(fired))
}
func (t *layerTracer) RuleTriggered(string, chimera.Time, int) {}
func (t *layerTracer) Compaction(int, int, chimera.Time)       {}
func (t *layerTracer) Considered(_ string, _, _ chimera.Time, bind int) {
	t.mark(mConsidered)
	t.considered.Add(1)
	if bind > 0 {
		t.held.Add(1)
	}
}
func (t *layerTracer) Executed(string)               { t.mark(mExecuted); t.executed.Add(1) }
func (t *layerTracer) TransactionStart(chimera.Time) { t.mark(mTxnStart) }
func (t *layerTracer) TransactionEnd(bool)           { t.mark(mTxnEnd) }

// traceSnap is a copy of the tracer's totals; sub gives a phase's share.
type traceSnap struct {
	self                            [nBuckets]int64
	callN, callNs                   [nCalls]int64
	blocks, sweeps, examined, fired int64
	considered, held, executed      int64
}

func (t *layerTracer) snap() traceSnap {
	var s traceSnap
	for i := range s.self {
		s.self[i] = t.self[i].Load()
	}
	for i := range s.callN {
		s.callN[i], s.callNs[i] = t.calls[i].n.Load(), t.calls[i].ns.Load()
	}
	s.blocks, s.sweeps, s.examined, s.fired = t.blocks.Load(), t.sweeps.Load(), t.examined.Load(), t.fired.Load()
	s.considered, s.held, s.executed = t.considered.Load(), t.held.Load(), t.executed.Load()
	return s
}

func (s traceSnap) sub(o traceSnap) traceSnap {
	for i := range s.self {
		s.self[i] -= o.self[i]
	}
	for i := range s.callN {
		s.callN[i] -= o.callN[i]
		s.callNs[i] -= o.callNs[i]
	}
	s.blocks -= o.blocks
	s.sweeps -= o.sweeps
	s.examined -= o.examined
	s.fired -= o.fired
	s.considered -= o.considered
	s.held -= o.held
	s.executed -= o.executed
	return s
}

// callUs is the mean duration of one client call of kind c, in µs.
func (s traceSnap) callUs(c apiCall) float64 { return perOp(float64(s.callNs[c])/1e3, s.callN[c]) }

func perOp(total float64, n int64) float64 {
	if n <= 0 {
		return 0
	}
	return total / float64(n)
}

// timedStore wraps a SegmentStore and times every call: the storage
// layer as the engine sees it.
type timedStore struct {
	inner chimera.SegmentStore

	appendN, appendNs, appendBytes atomic.Int64
	syncN, syncNs                  atomic.Int64
	ckptN, ckptNs, ckptBytes       atomic.Int64 // PutCheckpoint
	segNs, dropNs, resetNs         atomic.Int64 // checkpoint-side segment and log work
}

func timed(since time.Time, n, ns *atomic.Int64) {
	ns.Add(int64(time.Since(since)))
	if n != nil {
		n.Add(1)
	}
}

func (s *timedStore) AppendWAL(p []byte) error {
	defer timed(time.Now(), &s.appendN, &s.appendNs)
	s.appendBytes.Add(int64(len(p)))
	return s.inner.AppendWAL(p)
}
func (s *timedStore) SyncWAL() error {
	defer timed(time.Now(), &s.syncN, &s.syncNs)
	return s.inner.SyncWAL()
}
func (s *timedStore) WAL() ([]byte, error) { return s.inner.WAL() }
func (s *timedStore) ResetWAL() error {
	defer timed(time.Now(), nil, &s.resetNs)
	return s.inner.ResetWAL()
}
func (s *timedStore) PutSegment(id uint64, p []byte) error {
	defer timed(time.Now(), nil, &s.segNs)
	return s.inner.PutSegment(id, p)
}
func (s *timedStore) Segment(id uint64) ([]byte, error) { return s.inner.Segment(id) }
func (s *timedStore) DropSegmentsBelow(b uint64) error {
	defer timed(time.Now(), nil, &s.dropNs)
	return s.inner.DropSegmentsBelow(b)
}
func (s *timedStore) PutCheckpoint(p []byte) error {
	defer timed(time.Now(), &s.ckptN, &s.ckptNs)
	s.ckptBytes.Add(int64(len(p)))
	return s.inner.PutCheckpoint(p)
}
func (s *timedStore) Checkpoint() ([]byte, error) { return s.inner.Checkpoint() }
func (s *timedStore) Close() error                { return s.inner.Close() }

// storeSnap is a copy of a timedStore's totals.
type storeSnap struct {
	appendN, appendNs, syncN, syncNs int64
	ckptN, ckptNs, ckptBytes         int64
	otherNs                          int64
}

func (s *timedStore) snap() storeSnap {
	return storeSnap{
		appendN: s.appendN.Load(), appendNs: s.appendNs.Load(),
		syncN: s.syncN.Load(), syncNs: s.syncNs.Load(),
		ckptN: s.ckptN.Load(), ckptNs: s.ckptNs.Load(), ckptBytes: s.ckptBytes.Load(),
		otherNs: s.segNs.Load() + s.dropNs.Load() + s.resetNs.Load(),
	}
}

func (s storeSnap) sub(o storeSnap) storeSnap {
	return storeSnap{
		appendN: s.appendN - o.appendN, appendNs: s.appendNs - o.appendNs,
		syncN: s.syncN - o.syncN, syncNs: s.syncNs - o.syncNs,
		ckptN: s.ckptN - o.ckptN, ckptNs: s.ckptNs - o.ckptNs, ckptBytes: s.ckptBytes - o.ckptBytes,
		otherNs: s.otherNs - o.otherNs,
	}
}

// storageLayers reports the storage layer over a phase with the given
// number of commits. A checkpoint's time is its record write plus the
// segment, drop and log-reset calls that go with it.
func storageLayers(o *outcome, s storeSnap, commits int64) {
	o.layer("storage.append_us", perOp(float64(s.appendNs)/1e3, s.appendN), "us")
	o.layer("storage.sync_us", perOp(float64(s.syncNs)/1e3, s.syncN), "us")
	o.layer("storage.syncs_per_commit", ratio(s.syncN, commits), "count")
	o.layer("storage.ckpt_us", perOp(float64(s.ckptNs+s.otherNs)/1e3, s.ckptN), "us")
	o.layer("storage.ckpt_bytes", ratio(s.ckptBytes, s.ckptN), "B")
}
