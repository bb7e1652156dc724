package object

import (
	"slices"
	"testing"

	"chimera/internal/schema"
	"chimera/internal/types"
)

func newStockStore(t *testing.T) *Store {
	t.Helper()
	s := schema.New()
	if _, err := s.Define("stock",
		schema.Attribute{Name: "name", Kind: types.KindString},
		schema.Attribute{Name: "quantity", Kind: types.KindInt},
		schema.Attribute{Name: "maxquantity", Kind: types.KindInt},
	); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Define("order",
		schema.Attribute{Name: "item", Kind: types.KindString},
	); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DefineSub("notFilledOrder", "order",
		schema.Attribute{Name: "missing", Kind: types.KindInt},
	); err != nil {
		t.Fatal(err)
	}
	return NewStore(s)
}

func TestCreateGetModify(t *testing.T) {
	st := newStockStore(t)
	oid, err := st.Create("stock", map[string]types.Value{
		"name": types.String_("bolts"), "quantity": types.Int(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	o, ok := st.Get(oid)
	if !ok {
		t.Fatal("object missing")
	}
	if v, _ := o.Get("name"); v.AsString() != "bolts" {
		t.Error("name wrong")
	}
	if v, _ := o.Get("maxquantity"); !v.IsNull() {
		t.Error("unset attribute should be null")
	}
	if err := st.Modify(oid, "quantity", types.Int(9)); err != nil {
		t.Fatal(err)
	}
	if v, _ := o.Get("quantity"); v.AsInt() != 9 {
		t.Error("modify did not apply")
	}
	if _, err := o.Get("nope"); err == nil {
		t.Error("unknown attribute read accepted")
	}
}

func TestCreateErrors(t *testing.T) {
	st := newStockStore(t)
	if _, err := st.Create("nosuch", nil); err == nil {
		t.Error("unknown class accepted")
	}
	if _, err := st.Create("stock", map[string]types.Value{"quantity": types.String_("x")}); err == nil {
		t.Error("ill-typed value accepted")
	}
}

func TestModifyDeleteErrors(t *testing.T) {
	st := newStockStore(t)
	if err := st.Modify(99, "quantity", types.Int(1)); err == nil {
		t.Error("modify of missing object accepted")
	}
	oid, _ := st.Create("stock", nil)
	if err := st.Modify(oid, "nope", types.Int(1)); err == nil {
		t.Error("modify of unknown attribute accepted")
	}
	if err := st.Modify(oid, "quantity", types.String_("x")); err == nil {
		t.Error("ill-typed modify accepted")
	}
	if err := st.Delete(99); err == nil {
		t.Error("delete of missing object accepted")
	}
}

func TestSelectByClassAndHierarchy(t *testing.T) {
	st := newStockStore(t)
	o1, _ := st.Create("order", map[string]types.Value{"item": types.String_("a")})
	o2, _ := st.Create("notFilledOrder", map[string]types.Value{"item": types.String_("b")})
	st.Create("stock", nil)

	orders, err := st.Select("order")
	if err != nil {
		t.Fatal(err)
	}
	if len(orders) != 2 || orders[0] != o1 || orders[1] != o2 {
		t.Fatalf("Select(order) = %v", orders)
	}
	nfos, _ := st.Select("notFilledOrder")
	if len(nfos) != 1 || nfos[0] != o2 {
		t.Fatalf("Select(notFilledOrder) = %v", nfos)
	}
	if _, err := st.Select("ghost"); err == nil {
		t.Error("unknown class accepted")
	}
}

func TestSpecializeGeneralize(t *testing.T) {
	st := newStockStore(t)
	oid, _ := st.Create("order", map[string]types.Value{"item": types.String_("x")})
	if err := st.Specialize(oid, "notFilledOrder"); err != nil {
		t.Fatal(err)
	}
	o, _ := st.Get(oid)
	if o.Class().Name() != "notFilledOrder" {
		t.Error("specialize did not move the object")
	}
	if v, _ := o.Get("item"); v.AsString() != "x" {
		t.Error("attributes lost on specialize")
	}
	if err := st.Modify(oid, "missing", types.Int(3)); err != nil {
		t.Fatal(err)
	}
	// Generalizing back drops the subclass attribute.
	if err := st.Generalize(oid, "order"); err != nil {
		t.Fatal(err)
	}
	if o.Class().Name() != "order" {
		t.Error("generalize did not move the object")
	}
	if _, err := o.Get("missing"); err == nil {
		t.Error("subclass attribute survived generalize")
	}

	// Errors.
	if err := st.Specialize(oid, "stock"); err == nil {
		t.Error("specialize to unrelated class accepted")
	}
	if err := st.Generalize(oid, "notFilledOrder"); err == nil {
		t.Error("generalize to subclass accepted")
	}
	if err := st.Specialize(999, "notFilledOrder"); err == nil {
		t.Error("specialize of missing object accepted")
	}
}

func TestUndoRollback(t *testing.T) {
	st := newStockStore(t)
	base, _ := st.Create("stock", map[string]types.Value{"quantity": types.Int(1)})
	st.DiscardUndo()
	mark := st.MarkUndo()

	oid, _ := st.Create("stock", map[string]types.Value{"quantity": types.Int(2)})
	st.Modify(base, "quantity", types.Int(42))
	st.Delete(base)
	o2, _ := st.Create("order", map[string]types.Value{"item": types.String_("z")})
	st.Specialize(o2, "notFilledOrder")

	st.RollbackTo(mark)

	if st.Len() != 1 {
		t.Fatalf("Len after rollback = %d, want 1", st.Len())
	}
	if _, ok := st.Get(oid); ok {
		t.Error("created object survived rollback")
	}
	o, ok := st.Get(base)
	if !ok {
		t.Fatal("deleted object not restored")
	}
	if v, _ := o.Get("quantity"); v.AsInt() != 1 {
		t.Errorf("modify not undone: quantity = %v", v)
	}
	// OIDs are reused after rollback of creations, keeping allocation dense.
	oid2, _ := st.Create("stock", nil)
	if oid2 != oid {
		t.Errorf("OID after rollback = %v, want %v", oid2, oid)
	}
}

func TestRollbackClassIndexes(t *testing.T) {
	st := newStockStore(t)
	mark := st.MarkUndo()
	oid, _ := st.Create("order", nil)
	st.Specialize(oid, "notFilledOrder")
	st.RollbackTo(mark)
	for _, class := range []string{"order", "notFilledOrder"} {
		got, _ := st.Select(class)
		if len(got) != 0 {
			t.Errorf("Select(%s) after rollback = %v, want empty", class, got)
		}
	}
}

// scanExtension is the reference for the extension cache: a scan of
// every live object, sorted.
func scanExtension(st *Store, class string) []types.OID {
	target, _ := st.schema.Class(class)
	var out []types.OID
	for oid, o := range st.objects {
		if o.class.IsA(target) {
			out = append(out, oid)
		}
	}
	slices.Sort(out)
	return out
}

// Every extension change — create, delete, specialize, generalize,
// restore and the undo of each — drops the cache entries it affects, so
// cached extensions always equal a full scan.
func TestExtensionCacheInvalidation(t *testing.T) {
	st := newStockStore(t)
	classes := []string{"stock", "order", "notFilledOrder"}
	check := func(step string) {
		t.Helper()
		for _, class := range classes {
			got, err := st.Extension(class)
			if err != nil {
				t.Fatal(err)
			}
			if want := scanExtension(st, class); !slices.Equal(got, want) {
				t.Fatalf("after %s: Extension(%s) = %v, want %v", step, class, got, want)
			}
		}
	}
	check("nothing")
	s1, _ := st.Create("stock", nil)
	o2, _ := st.Create("order", nil)
	check("create")
	mark := st.MarkUndo()
	n3, _ := st.Create("notFilledOrder", nil)
	check("subclass create")
	if err := st.Specialize(o2, "notFilledOrder"); err != nil {
		t.Fatal(err)
	}
	check("specialize")
	if err := st.Generalize(n3, "order"); err != nil {
		t.Fatal(err)
	}
	check("generalize")
	if err := st.Delete(s1); err != nil {
		t.Fatal(err)
	}
	check("delete")
	st.RollbackTo(mark)
	check("rollback")
	if err := st.Restore(9, "notFilledOrder", nil); err != nil {
		t.Fatal(err)
	}
	check("restore")
	// Select hands out a copy; the cached slice is untouched.
	sel, _ := st.Select("order")
	sel[0] = 0
	check("overwriting a Select result")
}

func TestObjectString(t *testing.T) {
	st := newStockStore(t)
	oid, _ := st.Create("stock", map[string]types.Value{
		"name": types.String_("nut"), "quantity": types.Int(3),
	})
	o, _ := st.Get(oid)
	want := `stock(o1){name: "nut", quantity: 3}`
	if got := o.String(); got != want {
		t.Errorf("String = %s, want %s", got, want)
	}
}
