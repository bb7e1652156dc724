package cond

import (
	"strings"
	"testing"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/object"
	"chimera/internal/schema"
	"chimera/internal/types"
)

// fixture builds a store with two stock objects and an event history:
// o1 created (t1) and modified (t3), o2 created (t2), o2's quantity
// modified twice (t4, t5).
func fixture(t *testing.T) (*Ctx, types.OID, types.OID) {
	t.Helper()
	s := schema.New()
	if _, err := s.Define("stock",
		schema.Attribute{Name: "name", Kind: types.KindString},
		schema.Attribute{Name: "quantity", Kind: types.KindInt},
		schema.Attribute{Name: "maxquantity", Kind: types.KindInt},
	); err != nil {
		t.Fatal(err)
	}
	st := object.NewStore(s)
	o1, err := st.Create("stock", map[string]types.Value{
		"name": types.String_("bolts"), "quantity": types.Int(50), "maxquantity": types.Int(40)})
	if err != nil {
		t.Fatal(err)
	}
	o2, err := st.Create("stock", map[string]types.Value{
		"name": types.String_("nuts"), "quantity": types.Int(5), "maxquantity": types.Int(40)})
	if err != nil {
		t.Fatal(err)
	}
	b := event.NewBase()
	mustAppend := func(ty event.Type, oid types.OID, at clock.Time) {
		if _, err := b.Append(ty, oid, at); err != nil {
			t.Fatal(err)
		}
	}
	mustAppend(event.Create("stock"), o1, 1)
	mustAppend(event.Create("stock"), o2, 2)
	mustAppend(event.Modify("stock", "quantity"), o1, 3)
	mustAppend(event.Modify("stock", "quantity"), o2, 4)
	mustAppend(event.Modify("stock", "quantity"), o2, 5)
	return &Ctx{Store: st, Base: b, Since: clock.Never, At: 10}, o1, o2
}

// tableOf builds a table over vars from rows listing values in order.
func tableOf(vars []string, rows ...[]types.Value) *Table {
	t := NewTable(vars...)
	for _, r := range rows {
		t.Add(r...)
	}
	return t
}

// refs is a one-variable table binding v to each OID in turn.
func refs(v string, oids ...types.OID) *Table {
	t := NewTable(v)
	for _, oid := range oids {
		t.Add(types.Ref(oid))
	}
	return t
}

// unit is the single empty binding a condition starts from.
func unit() *Table {
	t := NewTable()
	t.Add()
	return t
}

// bind returns a single binding of name to v.
func bind(name string, v types.Value) Binding {
	return tableOf([]string{name}, []types.Value{v}).Row(0)
}

// evalAtom runs one atom over in into a fresh table.
func evalAtom(ctx *Ctx, a Atom, in *Table) (*Table, error) {
	out := new(Table)
	err := a.Eval(ctx, in, out)
	return out, err
}

// rowsString renders a table's rows in order, e.g. "S=o1 T=t3; S=o2 T=t4".
func rowsString(tab *Table) string {
	rows := make([]string, tab.Len())
	for i := range rows {
		b := tab.Row(i)
		cells := make([]string, len(b.vars))
		for j, v := range b.vars {
			cells[j] = v + "=" + b.vals[j].String()
		}
		rows[i] = strings.Join(cells, " ")
	}
	return strings.Join(rows, "; ")
}

// wantRows fails the test unless the atom succeeds with exactly the
// given rows, in order.
func wantRows(t *testing.T, ctx *Ctx, a Atom, in *Table, want string) {
	t.Helper()
	out, err := evalAtom(ctx, a, in)
	if err != nil {
		t.Fatalf("%s: %v", a, err)
	}
	if got := rowsString(out); got != want {
		t.Fatalf("%s rows = %q, want %q", a, got, want)
	}
}

// wantErr fails the test unless the atom fails with exactly msg.
func wantErr(t *testing.T, ctx *Ctx, a Atom, in *Table, msg string) {
	t.Helper()
	_, err := evalAtom(ctx, a, in)
	if err == nil || err.Error() != msg {
		t.Fatalf("%s error = %v, want %q", a, err, msg)
	}
}

func TestClassAtomBindsAndChecks(t *testing.T) {
	ctx, o1, o2 := fixture(t)
	stock := Class{Class: "stock", Var: "S"}
	wantRows(t, ctx, stock, unit(), "S=o1; S=o2")
	// Already bound: membership check, keeping the input order.
	wantRows(t, ctx, stock, refs("S", o2, o1), "S=o2; S=o1")
	// Unbound over several rows: breadth first, input rows outermost.
	in := tableOf([]string{"T"}, []types.Value{types.TimeVal(2)}, []types.Value{types.TimeVal(1)})
	wantRows(t, ctx, stock, in, "T=t2 S=o1; T=t2 S=o2; T=t1 S=o1; T=t1 S=o2")
	// No rows in, no rows out, and the class is never looked up.
	wantRows(t, ctx, Class{Class: "ghost", Var: "S"}, NewTable(), "")
	wantErr(t, ctx, Class{Class: "ghost", Var: "S"}, unit(), `object: unknown class "ghost"`)
	wantErr(t, ctx, Class{Class: "ghost", Var: "S"}, refs("S", o1), `cond: unknown class "ghost"`)
	wantErr(t, ctx, stock, tableOf([]string{"S"}, []types.Value{types.Int(1)}), "cond: S is not an object variable")
}

// Class atoms over a hierarchy: a class's extension includes its
// subclasses' objects, in ascending OID order, and the bound check
// accepts subclass members.
func TestClassAtomSubclassMembership(t *testing.T) {
	s := schema.New()
	if _, err := s.Define("stock", schema.Attribute{Name: "quantity", Kind: types.KindInt}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DefineSub("perishable", "stock"); err != nil {
		t.Fatal(err)
	}
	st := object.NewStore(s)
	s1, _ := st.Create("stock", nil)
	p2, _ := st.Create("perishable", nil)
	s3, _ := st.Create("stock", nil)
	ctx := &Ctx{Store: st, Base: event.NewBase(), At: 1}
	wantRows(t, ctx, Class{Class: "stock", Var: "S"}, unit(), "S=o1; S=o2; S=o3")
	wantRows(t, ctx, Class{Class: "perishable", Var: "S"}, unit(), "S=o2")
	wantRows(t, ctx, Class{Class: "perishable", Var: "S"}, refs("S", s3, p2, s1), "S=o2")
	wantRows(t, ctx, Class{Class: "stock", Var: "S"}, refs("S", s3, p2, s1), "S=o3; S=o2; S=o1")
	// Migration changes both extensions.
	if err := st.Specialize(s3, "perishable"); err != nil {
		t.Fatal(err)
	}
	if err := st.Generalize(p2, "stock"); err != nil {
		t.Fatal(err)
	}
	wantRows(t, ctx, Class{Class: "perishable", Var: "S"}, unit(), "S=o3")
	wantRows(t, ctx, Class{Class: "stock", Var: "S"}, unit(), "S=o1; S=o2; S=o3")
}

func TestOccurredBindsAffectedObjects(t *testing.T) {
	ctx, _, _ := fixture(t)
	// occurred(create += modify(quantity), S): both objects qualify.
	e := calculus.ConjI(calculus.P(event.Create("stock")), calculus.P(event.Modify("stock", "quantity")))
	occ := Occurred{Event: e, Var: "S"}
	wantRows(t, ctx, occ, unit(), "S=o1; S=o2")
	// Unbound over several rows: input rows outermost.
	in := tableOf([]string{"T"}, []types.Value{types.TimeVal(7)}, []types.Value{types.TimeVal(6)})
	wantRows(t, ctx, occ, in, "T=t7 S=o1; T=t7 S=o2; T=t6 S=o1; T=t6 S=o2")
	// With a consumption window starting after o1's events, only o2...
	// but o2's create (t2) is also outside the window, so the instance
	// conjunction is incomplete for o2 as well.
	ctx2 := *ctx
	ctx2.Since = 3
	wantRows(t, &ctx2, occ, unit(), "")
	wantErr(t, ctx, Occurred{Event: calculus.ConjI(calculus.P(event.Create("stock")), calculus.Neg(calculus.P(event.Create("stock")))), Var: "S"},
		unit(), "calculus: instance-oriented += applied to set-oriented operand -create(stock)")
}

func TestOccurredFiltersBoundVariable(t *testing.T) {
	ctx, o1, o2 := fixture(t)
	e := calculus.P(event.Modify("stock", "quantity"))
	// Both objects were modified; the input order survives.
	wantRows(t, ctx, Occurred{Event: e, Var: "S"}, refs("S", o2, o1), "S=o2; S=o1")
	// Only o2 was modified after t3; a non-object value is dropped, not
	// an error.
	ctx.Since = 3
	in := tableOf([]string{"S"}, []types.Value{types.Ref(o1)}, []types.Value{types.Int(2)}, []types.Value{types.Ref(o2)})
	wantRows(t, ctx, Occurred{Event: e, Var: "S"}, in, "S=o2")
}

// Section 3.3's at() example: create followed by two updates yields the
// two update instants.
func TestAtBindsTimestamps(t *testing.T) {
	ctx, o1, o2 := fixture(t)
	e := calculus.PrecI(calculus.P(event.Create("stock")), calculus.P(event.Modify("stock", "quantity")))
	at := At{Event: e, Var: "X", TimeVar: "T"}
	// o1: one update instant (t3); o2: two (t4, t5).
	wantRows(t, ctx, at, unit(), "X=o1 T=t3; X=o2 T=t4; X=o2 T=t5")
	// X bound: only its own instants, in input order.
	wantRows(t, ctx, at, refs("X", o2, o1), "X=o2 T=t4; X=o2 T=t5; X=o1 T=t3")
	// T already bound is rebound, not compared.
	in := tableOf([]string{"T", "X"}, []types.Value{types.TimeVal(9), types.Ref(o2)})
	wantRows(t, ctx, at, in, "T=t4 X=o2; T=t5 X=o2")
	// One variable for both: the time stamp wins.
	wantRows(t, ctx, At{Event: e, Var: "X", TimeVar: "X"}, unit(), "X=t3; X=t4; X=t5")
	wantErr(t, ctx, at, tableOf([]string{"X"}, []types.Value{types.Int(1)}), "cond: X is not an object variable")
}

func TestCompareAndTerms(t *testing.T) {
	ctx, o1, o2 := fixture(t)
	in := refs("S", o1, o2)
	// S.quantity > S.maxquantity keeps only o1 (50 > 40).
	wantRows(t, ctx, Compare{
		L:  Attr{Var: "S", Attr: "quantity"},
		Op: CmpGt,
		R:  Attr{Var: "S", Attr: "maxquantity"},
	}, in, "S=o1")
	// S.quantity < 60 keeps both, in order.
	wantRows(t, ctx, Compare{L: Attr{Var: "S", Attr: "quantity"}, Op: CmpLt, R: Const{V: types.Int(60)}},
		refs("S", o2, o1), "S=o2; S=o1")
	// Arithmetic: S.quantity - 20 > S.maxquantity drops both.
	wantRows(t, ctx, Compare{
		L:  Arith{Op: OpSub, L: Attr{Var: "S", Attr: "quantity"}, R: Const{V: types.Int(20)}},
		Op: CmpGt,
		R:  Attr{Var: "S", Attr: "maxquantity"},
	}, in, "")
	// Errors.
	wantErr(t, ctx, Compare{L: Attr{Var: "Z", Attr: "quantity"}, Op: CmpGt, R: Const{V: types.Int(0)}}, in,
		"cond: unbound variable Z")
	wantErr(t, ctx, Compare{L: Var{Name: "Z"}, Op: CmpGt, R: Const{V: types.Int(0)}}, in,
		"cond: unbound variable Z")
	wantErr(t, ctx, Compare{L: Attr{Var: "T", Attr: "quantity"}, Op: CmpGt, R: Const{V: types.Int(0)}},
		tableOf([]string{"T"}, []types.Value{types.TimeVal(1)}), "cond: T is not an object variable")
	wantErr(t, ctx, Compare{L: Attr{Var: "S", Attr: "name"}, Op: CmpGt, R: Const{V: types.Int(0)}}, in,
		"types: cannot compare string with integer")
	wantErr(t, ctx, Compare{L: Arith{Op: OpAdd, L: Attr{Var: "S", Attr: "name"}, R: Const{V: types.Int(1)}}, Op: CmpGt, R: Const{V: types.Int(0)}}, in,
		`cond: arithmetic on non-numeric values "bolts", 1`)
	if _, err := (Arith{Op: OpDiv, L: Const{V: types.Int(1)}, R: Const{V: types.Int(0)}}).Eval(ctx, Binding{}); err == nil {
		t.Fatal("division by zero accepted")
	}
}

func TestFormulaConjunction(t *testing.T) {
	ctx, o1, _ := fixture(t)
	f := Formula{Atoms: []Atom{
		Class{Class: "stock", Var: "S"},
		Occurred{Event: calculus.P(event.Create("stock")), Var: "S"},
		Compare{L: Attr{Var: "S", Attr: "quantity"}, Op: CmpGt, R: Attr{Var: "S", Attr: "maxquantity"}},
	}}
	var s Scratch
	out, err := f.Eval(ctx, &s)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || rowsString(out) != "S="+o1.String() {
		t.Fatalf("formula bindings = %q", rowsString(out))
	}
	if got := f.String(); got != "stock(S), occurred(create(stock), S), S.quantity > S.maxquantity" {
		t.Errorf("String = %q", got)
	}
	// Short circuit: an impossible atom first yields no rows quickly.
	f2 := Formula{Atoms: []Atom{
		Compare{L: Const{V: types.Int(1)}, Op: CmpGt, R: Const{V: types.Int(2)}},
		Class{Class: "ghost", Var: "S"}, // would error if reached
	}}
	out, err = f2.Eval(ctx, &s)
	if err != nil || out.Len() != 0 {
		t.Fatalf("short circuit failed: %q %v", rowsString(out), err)
	}
	// The empty condition is true with one empty binding.
	out, err = True.Eval(ctx, &s)
	if err != nil || out.Len() != 1 {
		t.Fatalf("True = %q %v", rowsString(out), err)
	}
	// Errors name the failing atom.
	f3 := Formula{Atoms: []Atom{
		Class{Class: "stock", Var: "S"},
		Compare{L: Attr{Var: "S", Attr: "ghost"}, Op: CmpGt, R: Const{V: types.Int(0)}},
	}}
	if _, err := f3.Eval(ctx, &s); err == nil || err.Error() != `S.ghost > 0: object: class "stock" has no attribute "ghost"` {
		t.Fatalf("formula error = %v", err)
	}
}

func TestAttrOnDeletedObjectErrors(t *testing.T) {
	ctx, o1, _ := fixture(t)
	ctx.Store.(*object.Store).Delete(o1)
	wantErr(t, ctx, Compare{L: Attr{Var: "S", Attr: "quantity"}, Op: CmpGt, R: Const{V: types.Int(0)}},
		refs("S", o1), "cond: S is bound to deleted object o1")
	// But the class atom filters deleted objects silently, and the
	// extension no longer holds it.
	wantRows(t, ctx, Class{Class: "stock", Var: "S"}, refs("S", o1), "")
	wantRows(t, ctx, Class{Class: "stock", Var: "S"}, unit(), "S=o2")
}

// clampFixture builds n stock objects and a window in which three of
// them had their quantity modified, two of those above maxquantity.
func clampFixture(t *testing.T, n int) *Ctx {
	t.Helper()
	s := schema.New()
	if _, err := s.Define("stock",
		schema.Attribute{Name: "quantity", Kind: types.KindInt},
		schema.Attribute{Name: "maxquantity", Kind: types.KindInt},
	); err != nil {
		t.Fatal(err)
	}
	st := object.NewStore(s)
	b := event.NewBase()
	for i := 0; i < n; i++ {
		q := int64(10)
		if i%(n/2) == 1 {
			q = 50 // items 1 and n/2+1 exceed their maximum
		}
		oid, err := st.Create("stock", map[string]types.Value{"quantity": types.Int(q), "maxquantity": types.Int(40)})
		if err != nil {
			t.Fatal(err)
		}
		if i%(n/2) == 1 || i == 0 {
			if _, err := b.Append(event.Modify("stock", "quantity"), oid, clock.Time(i+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return &Ctx{Store: st, Base: b, Since: clock.Never, At: clock.Time(n + 1)}
}

// clampCondition is the paper's stock condition, class atom first, so
// every consideration enumerates the whole catalog.
var clampCondition = Formula{Atoms: []Atom{
	Class{Class: "stock", Var: "S"},
	Occurred{Event: calculus.P(event.Modify("stock", "quantity")), Var: "S"},
	Compare{L: Attr{Var: "S", Attr: "quantity"}, Op: CmpGt, R: Attr{Var: "S", Attr: "maxquantity"}},
}}

// A warm consideration allocates a constant number of objects, whatever
// the size of the class it enumerates: the tables are reused and the
// class extension is served from the store's cache. The seven that
// remain belong to occurred's domain computation over the three affected
// objects (primitive list, the growth of a fresh domain-OID buffer, the
// affected-OID slice), not to the candidates; the domain's sort and
// dedup allocate nothing.
func TestWarmConsiderationAllocs(t *testing.T) {
	const want = 7
	allocs := func(n int) float64 {
		ctx := clampFixture(t, n)
		var s Scratch
		out, err := clampCondition.Eval(ctx, &s)
		if err != nil || out.Len() != 2 {
			t.Fatalf("n=%d: clamp rows = %q, %v", n, rowsString(out), err)
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := clampCondition.Eval(ctx, &s); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10), allocs(1000)
	if small != large || large != want {
		t.Fatalf("allocs per warm consideration: %v at 10 objects, %v at 1000; want %d at both", small, large, want)
	}
}
