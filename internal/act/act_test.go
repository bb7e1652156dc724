package act

import (
	"fmt"
	"testing"

	"chimera/internal/cond"
	"chimera/internal/object"
	"chimera/internal/schema"
	"chimera/internal/types"
)

// recorder is a Mutator that applies to a plain store and records the
// call sequence.
type recorder struct {
	store *object.Store
	calls []string
}

func (r *recorder) Create(class string, vals map[string]types.Value) (types.OID, error) {
	oid, err := r.store.Create(class, vals)
	r.calls = append(r.calls, fmt.Sprintf("create %s -> %s", class, oid))
	return oid, err
}
func (r *recorder) Modify(oid types.OID, attr string, v types.Value) error {
	r.calls = append(r.calls, fmt.Sprintf("modify %s.%s = %s", oid, attr, v))
	return r.store.Modify(oid, attr, v)
}
func (r *recorder) Delete(oid types.OID) error {
	r.calls = append(r.calls, fmt.Sprintf("delete %s", oid))
	return r.store.Delete(oid)
}
func (r *recorder) Specialize(oid types.OID, sub string) error {
	r.calls = append(r.calls, fmt.Sprintf("specialize %s -> %s", oid, sub))
	return r.store.Specialize(oid, sub)
}
func (r *recorder) Generalize(oid types.OID, super string) error {
	r.calls = append(r.calls, fmt.Sprintf("generalize %s -> %s", oid, super))
	return r.store.Generalize(oid, super)
}

func fixture(t *testing.T) (*cond.Ctx, *recorder, types.OID, types.OID) {
	t.Helper()
	s := schema.New()
	if _, err := s.Define("stock",
		schema.Attribute{Name: "quantity", Kind: types.KindInt},
		schema.Attribute{Name: "maxquantity", Kind: types.KindInt}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Define("order",
		schema.Attribute{Name: "item", Kind: types.KindString}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DefineSub("bigOrder", "order"); err != nil {
		t.Fatal(err)
	}
	st := object.NewStore(s)
	o1, _ := st.Create("stock", map[string]types.Value{
		"quantity": types.Int(90), "maxquantity": types.Int(40)})
	o2, _ := st.Create("stock", map[string]types.Value{
		"quantity": types.Int(80), "maxquantity": types.Int(30)})
	return &cond.Ctx{Store: st}, &recorder{store: st}, o1, o2
}

func bindingsFor(oids ...types.OID) *cond.Table {
	return rowsOf("S", oids...)
}

// rowsOf returns a one-variable table binding v to each OID in turn.
func rowsOf(v string, oids ...types.OID) *cond.Table {
	out := cond.NewTable(v)
	for _, oid := range oids {
		out.Add(types.Ref(oid))
	}
	return out
}

// oneRow returns a one-variable table with a single row binding v to val.
func oneRow(v string, val types.Value) *cond.Table {
	out := cond.NewTable(v)
	out.Add(val)
	return out
}

func TestModifySetOriented(t *testing.T) {
	ctx, m, o1, o2 := fixture(t)
	stmt := Modify{Class: "stock", Attr: "quantity", Var: "S",
		Value: cond.Attr{Var: "S", Attr: "maxquantity"}}
	if err := stmt.Exec(ctx, m, bindingsFor(o1, o2)); err != nil {
		t.Fatal(err)
	}
	for i, oid := range []types.OID{o1, o2} {
		o, _ := ctx.Store.Get(oid)
		want := []int64{40, 30}[i]
		if got := o.MustGet("quantity").AsInt(); got != want {
			t.Errorf("object %s quantity = %d, want %d", oid, got, want)
		}
	}
	if len(m.calls) != 2 {
		t.Errorf("calls = %v", m.calls)
	}
}

func TestCreatePerBindingAndOnce(t *testing.T) {
	ctx, m, o1, o2 := fixture(t)
	per := Create{Class: "order", Vals: map[string]cond.Term{
		"item": cond.Const{V: types.String_("restock")}}}
	if err := per.Exec(ctx, m, bindingsFor(o1, o2)); err != nil {
		t.Fatal(err)
	}
	got, _ := ctx.Store.Extension("order")
	if len(got) != 2 {
		t.Fatalf("per-binding create made %d orders", len(got))
	}
	once := Create{Class: "order", Once: true, Vals: map[string]cond.Term{}}
	if err := once.Exec(ctx, m, bindingsFor(o1, o2)); err != nil {
		t.Fatal(err)
	}
	got, _ = ctx.Store.Extension("order")
	if len(got) != 3 {
		t.Fatalf("Once create made %d total orders, want 3", len(got))
	}
}

func TestDeleteDedupes(t *testing.T) {
	ctx, m, o1, _ := fixture(t)
	// The same object appears in two bindings; delete must not fail on
	// the second.
	stmt := Delete{Var: "S"}
	if err := stmt.Exec(ctx, m, bindingsFor(o1, o1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := ctx.Store.Get(o1); ok {
		t.Fatal("object survived delete")
	}
	if len(m.calls) != 1 {
		t.Errorf("delete called %d times, want 1", len(m.calls))
	}
}

func TestSpecializeGeneralizeStatements(t *testing.T) {
	ctx, m, _, _ := fixture(t)
	oid, _ := ctx.Store.(*object.Store).Create("order", map[string]types.Value{"item": types.String_("x")})
	bs := rowsOf("O", oid)
	if err := (Specialize{Var: "O", To: "bigOrder"}).Exec(ctx, m, bs); err != nil {
		t.Fatal(err)
	}
	o, _ := ctx.Store.Get(oid)
	if o.Class().Name() != "bigOrder" {
		t.Fatal("specialize statement failed")
	}
	if err := (Generalize{Var: "O", To: "order"}).Exec(ctx, m, bs); err != nil {
		t.Fatal(err)
	}
	if o.Class().Name() != "order" {
		t.Fatal("generalize statement failed")
	}
}

func TestStatementErrors(t *testing.T) {
	ctx, m, o1, _ := fixture(t)
	if err := (Modify{Class: "stock", Attr: "quantity", Var: "Z",
		Value: cond.Const{V: types.Int(1)}}).Exec(ctx, m, bindingsFor(o1)); err == nil {
		t.Fatal("unbound variable accepted")
	}
	if err := (Modify{Class: "stock", Attr: "quantity", Var: "S",
		Value: cond.Attr{Var: "S", Attr: "ghost"}}).Exec(ctx, m, bindingsFor(o1)); err == nil {
		t.Fatal("unknown attribute term accepted")
	}
	if err := (Delete{Var: "S"}).Exec(ctx, m, oneRow("S", types.Int(3))); err == nil {
		t.Fatal("non-object variable accepted")
	}
	bad := Action{Statements: []Statement{
		Modify{Class: "stock", Attr: "quantity", Var: "S", Value: cond.Const{V: types.String_("x")}},
	}}
	if err := bad.Exec(ctx, m, bindingsFor(o1)); err == nil {
		t.Fatal("ill-typed modify accepted")
	}
}

func TestActionSequenceAndString(t *testing.T) {
	ctx, m, o1, _ := fixture(t)
	a := Action{Statements: []Statement{
		Modify{Class: "stock", Attr: "quantity", Var: "S", Value: cond.Const{V: types.Int(0)}},
		Delete{Var: "S"},
	}}
	if err := a.Exec(ctx, m, bindingsFor(o1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := ctx.Store.Get(o1); ok {
		t.Fatal("sequence did not delete")
	}
	if got := a.String(); got != "modify(stock.quantity, S, 0); delete(S)" {
		t.Errorf("String = %q", got)
	}
}

func TestStatementRendering(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{Create{Class: "log", Vals: map[string]cond.Term{
			"b": cond.Const{V: types.Int(2)}, "a": cond.Const{V: types.Int(1)},
		}}.String(), "create(log, a = 1, b = 2)"},
		{Modify{Class: "stock", Attr: "quantity", Var: "S",
			Value: cond.Attr{Var: "S", Attr: "maxquantity"}}.String(),
			"modify(stock.quantity, S, S.maxquantity)"},
		{Delete{Var: "S"}.String(), "delete(S)"},
		{Specialize{Var: "O", To: "bigOrder"}.String(), "specialize(O, bigOrder)"},
		{Generalize{Var: "O", To: "order"}.String(), "generalize(O, order)"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String = %q, want %q", c.got, c.want)
		}
	}
}

func TestMigrateErrors(t *testing.T) {
	ctx, m, _, _ := fixture(t)
	if err := (Specialize{Var: "Z", To: "bigOrder"}).Exec(ctx, m, bindingsFor(1)); err == nil {
		t.Error("unbound specialize accepted")
	}
	if err := (Generalize{Var: "O", To: "order"}).Exec(ctx, m,
		oneRow("O", types.Int(1))); err == nil {
		t.Error("non-object generalize accepted")
	}
}
