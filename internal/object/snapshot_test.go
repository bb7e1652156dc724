package object

import (
	"slices"
	"testing"

	"chimera/internal/metrics"
	"chimera/internal/types"
)

// Publication: a full publish copies the committed store; staged
// commits advance the epoch at once and are folded into a successor by
// the first reader; a pinned snapshot never changes.
func TestSnapshotPublication(t *testing.T) {
	st := newStockStore(t)
	a, _ := st.Create("stock", map[string]types.Value{"quantity": types.Int(1)})
	b, _ := st.Create("notFilledOrder", nil)
	st.PublishAll()
	first := st.Published()
	if first.Epoch() != 1 || st.PublishedEpoch() != 1 || first.Len() != 2 || first.Schema() != st.Schema() {
		t.Fatalf("first snapshot: epoch %d/%d, %d objects", first.Epoch(), st.PublishedEpoch(), first.Len())
	}
	if st.Published() != first {
		t.Fatal("an unchanged store materialized a new snapshot")
	}
	st.Modify(a, "quantity", types.Int(2))
	st.Delete(b)
	c, _ := st.Create("order", nil)
	st.StageTouched([]types.OID{a, b})
	st.StageTouched([]types.OID{c})
	st.StageTouched(nil) // an empty write set stages nothing
	if st.PublishedEpoch() != 3 {
		t.Fatalf("epoch after two stagings = %d, want 3", st.PublishedEpoch())
	}
	next := st.Published()
	if next.Epoch() != 3 || next.Len() != 2 {
		t.Fatalf("successor: epoch %d, %d objects", next.Epoch(), next.Len())
	}
	if o, _ := next.Get(a); o.MustGet("quantity").AsInt() != 2 {
		t.Fatal("successor misses the staged modify")
	}
	if _, ok := next.Get(b); ok {
		t.Fatal("successor keeps the staged delete")
	}
	if o, _ := first.Get(a); o.MustGet("quantity").AsInt() != 1 {
		t.Fatal("the pinned snapshot changed")
	}
	orders, err := next.Select("order")
	if err != nil || !slices.Equal(orders, []types.OID{c}) {
		t.Fatalf("snapshot Select(order) = %v, %v", orders, err)
	}
	ext, _ := first.Extension("order")
	if !slices.Equal(ext, []types.OID{b}) {
		t.Fatalf("first snapshot's order extension = %v", ext)
	}
	if _, err := next.Extension("ghost"); err == nil {
		t.Fatal("unknown class accepted")
	}
	// Writes are copied at staging: a later in-place modify of the live
	// object does not reach the snapshot.
	st.Modify(a, "quantity", types.Int(9))
	if o, _ := st.Published().Get(a); o.MustGet("quantity").AsInt() != 2 {
		t.Fatal("an unstaged write reached the snapshot")
	}
}

// A line's undo log round-trips through its serializable image, and the
// restored log rolls the line back like the original.
func TestLineUndoExportRestore(t *testing.T) {
	st := newStockStore(t)
	keep, _ := st.Create("order", map[string]types.Value{"item": types.String_("k")})
	ln := st.BeginLine(LineOptions{Metrics: NewLatchMetrics(metrics.NewRegistry())})
	if ln.Schema() != st.Schema() {
		t.Fatal("line schema differs from the store's")
	}
	made, _ := ln.Create("stock", map[string]types.Value{"quantity": types.Int(1)})
	if err := ln.Modify(made, "quantity", types.Int(2)); err != nil {
		t.Fatal(err)
	}
	if err := ln.Specialize(keep, "notFilledOrder"); err != nil {
		t.Fatal(err)
	}
	if err := ln.Generalize(keep, "order"); err != nil {
		t.Fatal(err)
	}
	if err := ln.CreateWithOID(40, "stock", nil); err != nil {
		t.Fatal(err)
	}
	if err := ln.Delete(40); err != nil {
		t.Fatal(err)
	}
	if got := ln.TouchedOIDs(); !slices.Equal(got, []types.OID{made, keep, 40}) {
		t.Fatalf("touched = %v", got)
	}
	recs := ln.ExportUndo()
	if len(recs) != ln.Undo() {
		t.Fatalf("exported %d records of %d", len(recs), ln.Undo())
	}
	if err := ln.RestoreUndo(recs); err != nil {
		t.Fatal(err)
	}
	if err := ln.RestoreUndo([]UndoRec{{Kind: 99}}); err == nil {
		t.Fatal("unknown undo kind accepted")
	}
	if err := ln.RestoreUndo(recs); err != nil {
		t.Fatal(err)
	}
	ln.Rollback()
	if _, ok := st.Get(made); ok {
		t.Fatal("rollback of the restored log kept the creation")
	}
	if o, _ := st.Get(keep); o.Class().Name() != "order" || o.MustGet("item").AsString() != "k" {
		t.Fatalf("rollback left %v", o)
	}
	if ext, _ := st.Extension("stock"); len(ext) != 0 {
		t.Fatalf("stock extension after rollback = %v", ext)
	}
	if st.NextOID() != 40 {
		t.Fatalf("allocator at %d, want 40 (aborted latched creations leave a gap)", st.NextOID())
	}
	st.SetNextOID(50)
	st.SetNextOID(45) // never moves back
	if st.NextOID() != 50 {
		t.Fatalf("allocator at %d, want 50", st.NextOID())
	}
	o, _ := st.Get(keep)
	snap := o.Snapshot()
	snap["item"] = types.String_("changed")
	if o.MustGet("item").AsString() != "k" {
		t.Fatal("an attribute snapshot aliases the object")
	}
}
