package event

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"chimera/internal/clock"
	"chimera/internal/types"
)

// occModel is the storage reference the segmented base is checked
// against: a plain []Occurrence in arrival order, answering every query
// with a linear scan filtered by window, type and OID. It shares no code
// with the base's columns, leaves or per-object indexes.
type occModel []Occurrence

// window returns the model occurrences of (since, upTo] that keep
// accepts, in arrival order (nil when there are none, as the base).
func (m occModel) window(since, upTo clock.Time, keep func(Occurrence) bool) []Occurrence {
	var out []Occurrence
	for _, o := range m {
		if o.Timestamp > since && o.Timestamp <= upTo && keep(o) {
			out = append(out, o)
		}
	}
	return out
}

func anyOcc(Occurrence) bool { return true }

func ofType(t Type) func(Occurrence) bool {
	return func(o Occurrence) bool { return o.Type == t }
}

func ofTypeObj(t Type, oid types.OID) func(Occurrence) bool {
	return func(o Occurrence) bool { return o.Type == t && o.OID == oid }
}

// newest returns the newest time stamp among occs, or clock.Never.
func newest(occs []Occurrence) clock.Time {
	if len(occs) == 0 {
		return clock.Never
	}
	return occs[len(occs)-1].Timestamp
}

// latest is the newest time stamp of type t in the whole model.
func (m occModel) latest(t Type) clock.Time {
	return newest(m.window(clock.Never, clock.Time(1<<40), ofType(t)))
}

// arrivals returns the time stamps of (since, upTo].
func (m occModel) arrivals(since, upTo clock.Time) []clock.Time {
	var out []clock.Time
	for _, o := range m.window(since, upTo, anyOcc) {
		out = append(out, o.Timestamp)
	}
	return out
}

// oids returns the distinct objects of (since, upTo] in order of first
// appearance in the whole model (the base's interner rank).
func (m occModel) oids(since, upTo clock.Time) []types.OID {
	in := make(map[types.OID]bool)
	for _, o := range m.window(since, upTo, anyOcc) {
		in[o.OID] = true
	}
	var out []types.OID
	for _, o := range m {
		if in[o.OID] {
			out = append(out, o.OID)
			delete(in, o.OID)
		}
	}
	return out
}

// oidsOfTypes returns the distinct objects touched by any of ts in
// (since, upTo], ascending.
func (m occModel) oidsOfTypes(ts []Type, since, upTo clock.Time) []types.OID {
	in := make(map[types.OID]bool)
	for _, o := range m.window(since, upTo, anyOcc) {
		for _, t := range ts {
			if o.Type == t {
				in[o.OID] = true
			}
		}
	}
	var out []types.OID
	for oid := range in {
		out = append(out, oid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// fillModel appends a random history to a tiny-segment base and records
// the same occurrences (dense EIDs from 1) in the slice model, so every
// query is checked across segment boundaries against a reference that
// does not share the column code.
func fillModel(t *testing.T, r *rand.Rand, segSize, n int) (seg *Base, ref occModel, vocab []Type) {
	t.Helper()
	vocab = []Type{
		Create("stock"), Delete("stock"), Modify("stock", "quantity"),
		Create("order"), Modify("order", "total"),
	}
	seg, ref = fillModelWith(t, r, segSize, n, vocab, 6)
	return seg, ref, vocab
}

// wideVocab is a vocabulary of twelve types over three classes, so the
// permutations hold many interleaved runs.
func wideVocab() []Type {
	var vocab []Type
	for _, class := range []string{"stock", "order", "card"} {
		vocab = append(vocab, Create(class), Delete(class), Modify(class, "a"), Modify(class, "b"))
	}
	return vocab
}

// fillModelWith is fillModel over a given vocabulary and nOIDs objects.
func fillModelWith(t *testing.T, r *rand.Rand, segSize, n int, vocab []Type, nOIDs int) (*Base, occModel) {
	t.Helper()
	seg := NewBaseSize(segSize)
	var ref occModel
	ts := clock.Time(0)
	for i := 0; i < n; i++ {
		ts += clock.Time(1 + r.Intn(3)) // gaps exercise between-arrival windows
		ty := vocab[r.Intn(len(vocab))]
		oid := types.OID(1 + r.Intn(nOIDs))
		occ, err := seg.Append(ty, oid, ts)
		if err != nil {
			t.Fatal(err)
		}
		want := Occurrence{EID: EID(i + 1), Type: ty, OID: oid, Timestamp: ts}
		if occ != want {
			t.Fatalf("Append returned %v, want %v", occ, want)
		}
		ref = append(ref, want)
	}
	return seg, ref
}

// colsWalk reconstructs the occurrences of (since, upTo] from a chunk
// by chunk ChunkCols walk (EIDs dense from EID0, ids resolved through
// the interners).
func colsWalk(t *testing.T, b *Base, vocab []Type, since, upTo clock.Time) []Occurrence {
	t.Helper()
	oids := b.OIDs(clock.Never, clock.Time(1<<40))
	var out []Occurrence
	for lo := since; ; {
		c := b.ChunkCols(lo, upTo)
		if len(c.TS) != len(c.TIDs) || len(c.TS) != len(c.OIDs) {
			t.Fatalf("ChunkCols ragged columns at (%d, %d)", lo, upTo)
		}
		if len(c.TS) == 0 {
			return out
		}
		for i := range c.TS {
			if int(c.OIDs[i]) >= len(oids) {
				t.Fatalf("interned OID id %d out of range %d", c.OIDs[i], len(oids))
			}
			out = append(out, Occurrence{
				EID:       c.EID0 + EID(i),
				Type:      typeOfTID(t, b, vocab, c.TIDs[i]),
				OID:       oids[c.OIDs[i]],
				Timestamp: c.TS[i],
			})
		}
		lo = c.TS[len(c.TS)-1]
	}
}

// checkLookups pins every window lookup of b to the slice model over
// nWindows random windows plus the whole log and the windows aligned on
// segment boundaries. Per window it checks every type, and the
// per-object lookups for every object when there are few, or for a
// random sample of four otherwise.
func checkLookups(t *testing.T, r *rand.Rand, stage string, b *Base, ref occModel, vocab []Type, nOIDs, segSize, nWindows int) {
	t.Helper()
	last := ref[len(ref)-1].Timestamp
	windows := [][2]clock.Time{
		{clock.Never, last}, {clock.Never, clock.Never}, {last, last + 5},
	}
	for k := segSize; k < len(ref); k += segSize {
		edge := ref[k-1].Timestamp
		windows = append(windows, [2]clock.Time{clock.Never, edge}, [2]clock.Time{edge, last},
			[2]clock.Time{edge - 1, edge + 1})
	}
	for i := 0; i < nWindows; i++ {
		a := clock.Time(r.Intn(int(last) + 3))
		b := clock.Time(r.Intn(int(last) + 3))
		windows = append(windows, [2]clock.Time{a, b})
	}
	var oidBuf []types.OID
	for _, w := range windows {
		since, upTo := w[0], w[1]
		objs := make([]types.OID, 0, nOIDs)
		for oid := 1; oid <= nOIDs; oid++ {
			if nOIDs <= 6 || r.Intn(nOIDs) < 4 {
				objs = append(objs, types.OID(oid))
			}
		}
		for _, ty := range vocab {
			if g, want := b.LastOf(ty, since, upTo), newest(ref.window(since, upTo, ofType(ty))); g != want {
				t.Fatalf("%s: LastOf(%v, %d, %d) = %d, want %d", stage, ty, since, upTo, g, want)
			}
			for _, oid := range objs {
				if g, want := b.LastOfObj(ty, oid, since, upTo), newest(ref.window(since, upTo, ofTypeObj(ty, oid))); g != want {
					t.Fatalf("%s: LastOfObj(%v, o%d, %d, %d) = %d, want %d", stage, ty, oid, since, upTo, g, want)
				}
				if g, want := b.OccurrencesOfObj(ty, oid, since, upTo), ref.window(since, upTo, ofTypeObj(ty, oid)); !reflect.DeepEqual(g, want) {
					t.Fatalf("%s: OccurrencesOfObj(%v, o%d, %d, %d) = %v, want %v", stage, ty, oid, since, upTo, g, want)
				}
			}
			if g, want := b.OccurrencesOf(ty, since, upTo), ref.window(since, upTo, ofType(ty)); !reflect.DeepEqual(g, want) {
				t.Fatalf("%s: OccurrencesOf(%v, %d, %d) = %v, want %v", stage, ty, since, upTo, g, want)
			}
		}
		want := ref.window(since, upTo, anyOcc)
		if g := b.Window(since, upTo); !reflect.DeepEqual(g, want) {
			t.Fatalf("%s: Window(%d, %d) mismatch", stage, since, upTo)
		}
		if g, want := b.Arrivals(since, upTo), ref.arrivals(since, upTo); !reflect.DeepEqual(g, want) {
			t.Fatalf("%s: Arrivals(%d, %d) mismatch", stage, since, upTo)
		}
		if g := b.CountArrivals(since, upTo); g != len(want) {
			t.Fatalf("%s: CountArrivals(%d, %d) = %d, want %d", stage, since, upTo, g, len(want))
		}
		if g := b.Empty(since, upTo); g != (len(want) == 0) {
			t.Fatalf("%s: Empty(%d, %d) = %v, want %v", stage, since, upTo, g, len(want) == 0)
		}
		if g, want := b.OIDs(since, upTo), ref.oids(since, upTo); !reflect.DeepEqual(g, want) {
			t.Fatalf("%s: OIDs(%d, %d) = %v, want %v", stage, since, upTo, g, want)
		}
		// Two type subsets: a prefix, and a random pick in random order.
		picked := []Type{vocab[r.Intn(len(vocab))], vocab[r.Intn(len(vocab))], vocab[r.Intn(len(vocab))]}
		for _, ts := range [][]Type{vocab[:3], picked} {
			if g, want := b.OIDsOfTypes(ts, since, upTo), ref.oidsOfTypes(ts, since, upTo); !reflect.DeepEqual(g, want) {
				t.Fatalf("%s: OIDsOfTypes(%v, %d, %d) = %v, want %v", stage, ts, since, upTo, g, want)
			}
		}
		// The buffer-reusing variants keep a caller's prefix intact.
		oidBuf = append(oidBuf[:0], -1)
		oidBuf = b.AppendOIDs(oidBuf, since, upTo)
		if g, want := oidBuf[1:], ref.oids(since, upTo); oidBuf[0] != -1 || len(g) != len(want) || (len(want) > 0 && !reflect.DeepEqual(g, want)) {
			t.Fatalf("%s: AppendOIDs with prefix (%d, %d) = %v, want [-1] + %v", stage, since, upTo, oidBuf, want)
		}
		oidBuf = append(oidBuf[:0], -1)
		oidBuf = b.AppendOIDsOfTypes(oidBuf, picked, since, upTo)
		if g, want := oidBuf[1:], ref.oidsOfTypes(picked, since, upTo); oidBuf[0] != -1 || len(g) != len(want) || (len(want) > 0 && !reflect.DeepEqual(g, want)) {
			t.Fatalf("%s: AppendOIDsOfTypes with prefix (%d, %d) = %v, want [-1] + %v", stage, since, upTo, oidBuf, want)
		}
		// The chunk walk reconstructs the same window from the raw columns.
		if g := colsWalk(t, b, vocab, since, upTo); !occEqual(g, want) {
			t.Fatalf("%s: ChunkCols walk (%d, %d) mismatch", stage, since, upTo)
		}
	}
	for _, ty := range vocab {
		if g, want := b.Latest(ty), ref.latest(ty); g != want {
			t.Fatalf("%s: Latest(%v) = %d, want %d", stage, ty, g, want)
		}
	}
	if g := b.All(); !occEqual(g, ref) {
		t.Fatalf("%s: All mismatch", stage)
	}
}

// restored round-trips b through ExportState, the segment codec and
// RestoreBase.
func restored(t *testing.T, b *Base) *Base {
	t.Helper()
	st, err := b.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	frames := st.Sealed
	if st.Tail != nil {
		frames = append(frames, *st.Tail)
	}
	for i, f := range frames {
		if frames[i], err = DecodeSegment(EncodeSegment(nil, f)); err != nil {
			t.Fatal(err)
		}
	}
	r, err := RestoreBase(st.Meta, frames, 2)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSegmentedLookupsMatchFlat pins every window lookup of the
// segmented base to the flat slice model over random windows, including
// windows aligned exactly on segment boundaries, live and after a
// checkpoint round trip. Size 4 seals a segment every few appends; 64
// and DefaultSegmentSize exceed the first segment's initial capacity,
// so its columns and permutations grow while the history builds, and
// the wide vocabulary interleaves many (type, object) runs.
func TestSegmentedLookupsMatchFlat(t *testing.T) {
	for _, tc := range []struct {
		segSize, n, nOIDs int
		vocab             []Type
	}{
		{4, 120, 6, nil},
		{64, 3*64 + 17, 40, wideVocab()},
		{DefaultSegmentSize, 2*DefaultSegmentSize + 40, 40, wideVocab()},
	} {
		t.Run(fmt.Sprintf("seg%d", tc.segSize), func(t *testing.T) {
			r := rand.New(rand.NewSource(77))
			var seg *Base
			var ref occModel
			vocab := tc.vocab
			if vocab == nil {
				seg, ref, vocab = fillModel(t, r, tc.segSize, tc.n)
			} else {
				seg, ref = fillModelWith(t, r, tc.segSize, tc.n, vocab, tc.nOIDs)
			}
			if want := (tc.n + tc.segSize - 1) / tc.segSize; seg.Segments() != want {
				t.Fatalf("want %d segments, got %d", want, seg.Segments())
			}
			checkLookups(t, r, "live", seg, ref, vocab, tc.nOIDs, tc.segSize, 300)
			checkLookups(t, r, "restored", restored(t, seg), ref, vocab, tc.nOIDs, tc.segSize, 300)
		})
	}
}

// typeOfTID resolves an interned type id by probing the base's interner
// through InternType with the types of vocab that occurred (interning an
// occurred type is a pure lookup, so the probe leaves the base as is).
func typeOfTID(t *testing.T, b *Base, vocab []Type, tid int32) Type {
	t.Helper()
	for _, ty := range vocab {
		if b.Latest(ty) != clock.Never && b.InternType(ty) == tid {
			return ty
		}
	}
	t.Fatalf("unknown interned type id %d", tid)
	return Type{}
}

// oidOfID resolves an interned OID id by scanning the first-arrival
// order exposed through AppendOIDs over the whole log.
func oidOfID(t *testing.T, b *Base, id int32) types.OID {
	t.Helper()
	oids := b.OIDs(clock.Never, clock.Time(1<<40))
	if int(id) >= len(oids) {
		t.Fatalf("interned OID id %d out of range %d", id, len(oids))
	}
	return oids[id]
}

func occEqual(a, b []Occurrence) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWindowBoundaryCases covers the degenerate windows: since == upTo,
// types with no occurrences (empty leaves), windows entirely before or
// after the log, and OID dedup across types and segments in
// AppendOIDsOfTypes.
func TestWindowBoundaryCases(t *testing.T) {
	b := NewBaseSize(2) // every second append seals a segment
	cs, co := Create("stock"), Create("order")
	mq := Modify("stock", "quantity")
	// o1 touched by cs (t1) and mq (t4); o2 by cs (t2); o1 again by cs (t3):
	// the same object through two types, spread over segments.
	for _, row := range []struct {
		ty  Type
		oid types.OID
		at  clock.Time
	}{
		{cs, 1, 1}, {cs, 2, 2}, {cs, 1, 3}, {mq, 1, 4}, {co, 3, 5},
	} {
		if _, err := b.Append(row.ty, row.oid, row.at); err != nil {
			t.Fatal(err)
		}
	}

	// since == upTo: the half-open window (t, t] is empty by definition.
	for _, at := range []clock.Time{clock.Never, 1, 3, 5, 9} {
		if got := b.Window(at, at); got != nil {
			t.Errorf("Window(%d, %d] = %v, want empty", at, at, got)
		}
		if !b.Empty(at, at) {
			t.Errorf("Empty(%d, %d] = false", at, at)
		}
		if got := b.LastOf(cs, at, at); got != clock.Never {
			t.Errorf("LastOf over (%d, %d] = %d", at, at, got)
		}
		if got := b.OIDs(at, at); got != nil {
			t.Errorf("OIDs(%d, %d] = %v", at, at, got)
		}
		if got := b.CountArrivals(at, at); got != 0 {
			t.Errorf("CountArrivals(%d, %d] = %d", at, at, got)
		}
	}

	// Empty leaves: a type that never occurred, and a type present in the
	// base but absent from the probed object.
	if got := b.LastOf(Delete("stock"), clock.Never, 9); got != clock.Never {
		t.Errorf("LastOf of never-occurred type = %d", got)
	}
	if got := b.LastOfObj(co, 1, clock.Never, 9); got != clock.Never {
		t.Errorf("LastOfObj of foreign object = %d", got)
	}
	if got := b.OccurrencesOf(Delete("stock"), clock.Never, 9); got != nil {
		t.Errorf("OccurrencesOf of never-occurred type = %v", got)
	}
	if got := b.OIDsOfTypes([]Type{Delete("stock")}, clock.Never, 9); got != nil {
		t.Errorf("OIDsOfTypes of never-occurred type = %v", got)
	}

	// Windows entirely before the first / after the last occurrence.
	for _, w := range [][2]clock.Time{{clock.Never, 0}, {5, 9}, {7, 12}} {
		if got := b.Window(w[0], w[1]); w[0] >= 5 && got != nil {
			t.Errorf("Window(%d, %d] = %v, want empty", w[0], w[1], got)
		}
		if got := b.LastOf(cs, w[0], w[1]); got != clock.Never {
			t.Errorf("LastOf over (%d, %d] = %d", w[0], w[1], got)
		}
	}
	if !b.Empty(clock.Never, 0) || !b.Empty(5, 99) {
		t.Error("windows beyond the log should be empty")
	}

	// OID dedup: o1 is touched through cs and mq, in different segments;
	// it must appear exactly once, ascending.
	got := b.OIDsOfTypes([]Type{cs, mq, co}, clock.Never, 9)
	want := []types.OID{1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("OIDsOfTypes dedup = %v, want %v", got, want)
	}
	// Buffer-reuse variant keeps the prefix intact.
	buf := []types.OID{99}
	buf = b.AppendOIDsOfTypes(buf, []Type{cs, mq}, clock.Never, 9)
	if !reflect.DeepEqual(buf, []types.OID{99, 1, 2}) {
		t.Errorf("AppendOIDsOfTypes with prefix = %v", buf)
	}
}

// TestCompactBelow checks segment retirement: counters, the floor, the
// live remainder, and that queries above the floor are unaffected.
func TestCompactBelow(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	seg, ref, vocab := fillModel(t, r, 4, 100)
	end := ref[len(ref)-1].Timestamp
	wm := end / 2

	n := seg.CompactBelow(wm)
	if n == 0 {
		t.Fatal("nothing retired")
	}
	if seg.Retired() != n || seg.Appended() != 100 || seg.Len() != 100-n {
		t.Fatalf("counters: retired=%d appended=%d len=%d (n=%d)",
			seg.Retired(), seg.Appended(), seg.Len(), n)
	}
	floor := seg.Floor()
	if floor == clock.Never || floor > wm {
		t.Fatalf("floor %d not in (0, %d]", floor, wm)
	}
	if seg.RetiredSegments() == 0 {
		t.Fatal("no segments retired")
	}
	// Every retained occurrence is strictly above the floor.
	for _, o := range seg.All() {
		if o.Timestamp <= floor {
			t.Fatalf("retained occurrence at t%d ≤ floor t%d", o.Timestamp, floor)
		}
	}
	// Windows above the floor are bit-identical to the uncompacted model.
	for i := 0; i < 200; i++ {
		since := floor + clock.Time(r.Intn(int(end-floor)+1))
		upTo := since + clock.Time(r.Intn(int(end-since)+2))
		if g, w := seg.Window(since, upTo), ref.window(since, upTo, anyOcc); !reflect.DeepEqual(g, w) {
			t.Fatalf("post-compaction Window(%d, %d) mismatch", since, upTo)
		}
		for _, ty := range vocab {
			if g, w := seg.LastOf(ty, since, upTo), newest(ref.window(since, upTo, ofType(ty))); g != w {
				t.Fatalf("post-compaction LastOf(%v, %d, %d) = %d, want %d", ty, since, upTo, g, w)
			}
		}
		if g, w := seg.OIDs(since, upTo), ref.oids(since, upTo); !reflect.DeepEqual(g, w) {
			t.Fatalf("post-compaction OIDs(%d, %d) mismatch: %v vs %v", since, upTo, g, w)
		}
	}
	// The leaf cache (Latest) survives compaction.
	for _, ty := range vocab {
		if g, w := seg.Latest(ty), ref.latest(ty); g != w {
			t.Fatalf("Latest(%v) = %d, want %d", ty, g, w)
		}
	}
	// Idempotent at the same watermark.
	if again := seg.CompactBelow(wm); again != 0 {
		t.Fatalf("second CompactBelow retired %d more", again)
	}
	// Retiring everything still leaves appends monotone and EIDs dense.
	seg.CompactBelow(end)
	if seg.Len() != 0 {
		t.Fatalf("Len after full retirement = %d", seg.Len())
	}
	if _, err := seg.Append(vocab[0], 1, end); err == nil {
		t.Fatal("non-monotone append accepted after full retirement")
	}
	occ, err := seg.Append(vocab[0], 1, end+1)
	if err != nil {
		t.Fatal(err)
	}
	if occ.EID != EID(101) {
		t.Fatalf("EID after retirement = %d, want 101", occ.EID)
	}
}

// colsCopy deep-copies a columnar view, for comparing it later against
// the live alias.
func colsCopy(c Cols) Cols {
	return Cols{
		TS:   append([]clock.Time(nil), c.TS...),
		TIDs: append([]int32(nil), c.TIDs...),
		OIDs: append([]int32(nil), c.OIDs...),
		EID0: c.EID0,
	}
}

func colsEqual(a, b Cols) bool {
	return reflect.DeepEqual(a.TS, b.TS) && reflect.DeepEqual(a.TIDs, b.TIDs) &&
		reflect.DeepEqual(a.OIDs, b.OIDs) && a.EID0 == b.EID0
}

// TestViewsSurviveCompaction pins the aliasing contract: a ChunkCols
// view taken before compaction keeps its contents after the segment it
// aliases is retired (compaction unlinks segments, never moves live
// data).
func TestViewsSurviveCompaction(t *testing.T) {
	b := NewBaseSize(3)
	for i := 1; i <= 12; i++ {
		if _, err := b.Append(Create("stock"), types.OID(i%4+1), clock.Time(i)); err != nil {
			t.Fatal(err)
		}
	}
	whole := b.ChunkCols(clock.Never, 3) // one whole segment
	chunk := b.ChunkCols(3, 9)           // first chunk of a wider window
	if len(whole.TS) != 3 || len(chunk.TS) != 3 {
		t.Fatalf("chunk lengths %d, %d, want 3, 3", len(whole.TS), len(chunk.TS))
	}
	wantWhole, wantChunk := colsCopy(whole), colsCopy(chunk)

	if n := b.CompactBelow(9); n != 9 {
		t.Fatalf("retired %d, want 9", n)
	}
	if !colsEqual(whole, wantWhole) || !colsEqual(chunk, wantChunk) {
		t.Fatal("views changed under compaction")
	}
	// And appends past the views leave them intact too.
	for i := 13; i <= 24; i++ {
		if _, err := b.Append(Create("stock"), 1, clock.Time(i)); err != nil {
			t.Fatal(err)
		}
	}
	if !colsEqual(whole, wantWhole) || !colsEqual(chunk, wantChunk) {
		t.Fatal("views changed under later appends")
	}
}

// TestViewsStableAcrossSealsColumnar pins the aliasing contract of the
// columnar views against the slice model: ChunkCols columns and
// ExportState frames taken at every stage — inside an unsealed tail
// segment, while the first segment's columns grow past their initial
// capacity, before later appends seal it, and before CompactBelow — keep
// their exact contents through all of it, the views match the model's
// window, and every held export restores to the model prefix it was
// taken at.
func TestViewsStableAcrossSealsColumnar(t *testing.T) {
	for _, segSize := range []int{4, 64, DefaultSegmentSize} {
		t.Run(fmt.Sprintf("seg%d", segSize), func(t *testing.T) { checkViewsStable(t, segSize) })
	}
}

// copyState deep-copies an export, for comparing it later against the
// frames that alias live segments.
func copyState(st BaseState) BaseState {
	cp := BaseState{Meta: st.Meta}
	cp.Meta.Types = append([]Type(nil), st.Meta.Types...)
	cp.Meta.OIDs = append([]types.OID(nil), st.Meta.OIDs...)
	cp.Meta.Latest = append([]clock.Time(nil), st.Meta.Latest...)
	copyFrame := func(f SegmentFrame) SegmentFrame {
		return SegmentFrame{
			FirstEID: f.FirstEID,
			TS:       append([]clock.Time(nil), f.TS...),
			TIDs:     append([]int32(nil), f.TIDs...),
			OIDs:     append([]int32(nil), f.OIDs...),
		}
	}
	for _, f := range st.Sealed {
		cp.Sealed = append(cp.Sealed, copyFrame(f))
	}
	if st.Tail != nil {
		tail := copyFrame(*st.Tail)
		cp.Tail = &tail
	}
	return cp
}

func checkViewsStable(t *testing.T, segSize int) {
	r := rand.New(rand.NewSource(31))
	col := NewBaseSize(segSize)
	var ref occModel
	vocab := []Type{Create("stock"), Modify("stock", "quantity"), Delete("stock")}
	appendBoth := func(ty Type, oid types.OID, ts clock.Time) {
		t.Helper()
		occ, err := col.Append(ty, oid, ts)
		if err != nil {
			t.Fatal(err)
		}
		ref = append(ref, occ)
	}

	type snap struct {
		since, upTo clock.Time
		cols        Cols
		copied      Cols         // deep copy at capture time
		want        []Occurrence // the model's window at capture time
	}
	type export struct {
		st, copied BaseState
		n          int // model prefix the export was taken at
	}
	var snaps []snap
	var exports []export

	ts := clock.Time(0)
	for i := 0; i < max(120, 3*segSize); i++ {
		ts += clock.Time(1 + r.Intn(2))
		appendBoth(vocab[r.Intn(len(vocab))], types.OID(1+r.Intn(5)), ts)
		// Capture views mid-stream — including from the unsealed tail
		// (i not a multiple of the segment size) — so later appends write
		// into, or reallocate away from, the very arrays the views alias.
		if i%7 == 3 {
			since := ts - clock.Time(r.Intn(6)+1)
			c := col.ChunkCols(since, ts)
			snaps = append(snaps, snap{
				since: since, upTo: ts, cols: c, copied: colsCopy(c),
				want: ref.window(since, ts, anyOcc),
			})
		}
		// Exports at every power of two (each growth step of the first
		// segment) and just after every seal.
		if n := i + 1; n&(n-1) == 0 || n%segSize == 0 {
			st, err := col.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			exports = append(exports, export{st: st, copied: copyState(st), n: n})
		}
	}

	moved := false // some view outlived a reallocation of its segment
	check := func(stage string) {
		t.Helper()
		for _, s := range snaps {
			if !colsEqual(s.cols, s.copied) {
				t.Fatalf("%s: ChunkCols(%d, %d) changed under the view", stage, s.since, s.upTo)
			}
			if len(s.cols.TS) == 0 || len(s.cols.TS) > len(s.want) {
				t.Fatalf("%s: ChunkCols(%d, %d) has %d entries for a %d-entry window",
					stage, s.since, s.upTo, len(s.cols.TS), len(s.want))
			}
			for i := range s.cols.TS {
				w := s.want[i]
				if s.cols.TS[i] != w.Timestamp || s.cols.EID0+EID(i) != w.EID ||
					s.cols.TIDs[i] != col.InternType(w.Type) || oidOfID(t, col, s.cols.OIDs[i]) != w.OID {
					t.Fatalf("%s: ChunkCols(%d, %d) entry %d diverged from the model", stage, s.since, s.upTo, i)
				}
			}
			if c := col.ChunkCols(s.since, s.upTo); len(c.TS) > 0 && &c.TS[0] != &s.cols.TS[0] {
				moved = true
			}
		}
		for _, e := range exports {
			if !reflect.DeepEqual(e.st, e.copied) {
				t.Fatalf("%s: export at %d occurrences changed under the frames", stage, e.n)
			}
			frames := e.st.Sealed
			if e.st.Tail != nil {
				frames = append(frames[:len(frames):len(frames)], *e.st.Tail)
			}
			rb, err := RestoreBase(e.st.Meta, frames, 2)
			if err != nil {
				t.Fatalf("%s: restore export at %d occurrences: %v", stage, e.n, err)
			}
			if !occEqual(rb.All(), ref[:e.n]) {
				t.Fatalf("%s: export at %d occurrences restores to a different log", stage, e.n)
			}
		}
	}
	check("after appends across seals")

	mid := ts / 2
	if col.CompactBelow(mid) == 0 {
		t.Fatal("compaction retired nothing")
	}
	check("after CompactBelow")

	for i := 0; i < 40; i++ {
		ts++
		appendBoth(vocab[0], 1, ts)
	}
	check("after post-compaction appends")
	if segSize > firstSegmentCap && !moved {
		t.Fatal("no view outlived a reallocation of the first segment's columns")
	}
}

// TestConcurrentReadersWithCompaction stress-tests the reader paths
// against a live appender and compactor under -race: readers walk
// windows, chunk views and index lookups while segments are appended and
// retired.
func TestConcurrentReadersWithCompaction(t *testing.T) {
	b := NewBaseSize(8)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Appender: the single writer, as in the engine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ty := []Type{Create("c"), Modify("c", "a"), Delete("c")}
		for i := 1; i <= 4000; i++ {
			if _, err := b.Append(ty[i%3], types.OID(i%7+1), clock.Time(i)); err != nil {
				panic(err)
			}
			if i%64 == 0 {
				// Retire everything older than a trailing window.
				b.CompactBelow(clock.Time(i - 200))
			}
		}
		close(stop)
	}()

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			ty := []Type{Create("c"), Modify("c", "a"), Delete("c")}
			for {
				select {
				case <-stop:
					return
				default:
				}
				floor := b.Floor()
				since := floor + clock.Time(r.Intn(100))
				upTo := since + clock.Time(r.Intn(150))
				// Chunk walks must stay ascending and inside the window even
				// while the compactor races past (the engine never lets the
				// watermark overtake a live window; here we only require the
				// walk to never yield torn or out-of-order data).
				prev := since
				lo := since
				for {
					c := b.ChunkCols(lo, upTo)
					if len(c.TS) == 0 {
						break
					}
					for _, at := range c.TS {
						if at <= prev || at > upTo {
							panic("chunk walk out of window order")
						}
						prev = at
					}
					lo = c.TS[len(c.TS)-1]
				}
				b.LastOf(ty[r.Intn(3)], since, upTo)
				b.OIDs(since, upTo)
				b.OIDsOfTypes(ty[:2], since, upTo)
				b.Window(since, upTo)
			}
		}(int64(w))
	}
	wg.Wait()
}
