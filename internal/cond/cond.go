// Package cond implements the condition part of Chimera rules: logical
// formulas that query the database and the event base, producing the
// variable bindings the action part consumes (Section 2 and Section 3.3
// of the paper).
//
// A condition is a conjunction of atoms evaluated left to right over a
// growing set of bindings, Datalog-style:
//
//	stock(S), occurred(create(stock), S), S.quantity > S.maxquantity
//
// Each set of bindings is a Table: the variables bound so far, shared by
// all rows, and the values stored flat, row after row. Evaluation is
// breadth first: an atom reads every row of one table and writes the
// rows it keeps or extends, in input order, to the other table of a
// Scratch pair. A rule's owner reuses its pair across considerations,
// so a warm consideration allocates nothing per candidate binding.
//
// The event formulas are:
//
//   - occurred(E, X): binds X to the objects affected by the
//     instance-oriented event expression E within the observed window;
//   - at(E, X, T): additionally binds T to every activation time stamp of
//     E for X (Section 3.3's "occurrence time stamp" predicate);
//   - holds(op(class), X): the legacy net-effect predicate kept for
//     backward compatibility (footnote 2 notes the calculus subsumes it).
package cond

import (
	"fmt"
	"slices"
	"strings"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/object"
	"chimera/internal/schema"
	"chimera/internal/types"
)

// Table is a set of bindings in the Datalog style of the paper's
// conditions: the variables bound so far, one name list shared by every
// row, plus the bound values stored flat and row-major. Object variables
// hold types.Ref values; time variables hold types.TimeVal values.
//
// Every row binds the same variables, so whether an atom's variable is
// already bound is one lookup per atom, not one per row. A table keeps
// its storage across Derive and Formula evaluations: once grown,
// re-evaluating a condition over a table pair allocates nothing per row.
type Table struct {
	vars []string
	vals []types.Value
	rows int
}

// NewTable returns an empty table over the given variables.
func NewTable(vars ...string) *Table {
	t := &Table{}
	t.reset(vars...)
	return t
}

// reset empties the table and sets its variables.
func (t *Table) reset(vars ...string) {
	t.vars = append(t.vars[:0], vars...)
	t.vals = t.vals[:0]
	t.rows = 0
}

// Derive empties the table and gives it the variables of in followed by
// those of add that in does not bind yet — the variables of an atom's
// output over input in.
func (t *Table) Derive(in *Table, add ...string) {
	t.reset(in.vars...)
	for _, v := range add {
		if t.col(v) < 0 {
			t.vars = append(t.vars, v)
		}
	}
}

// Add appends one row whose values follow the table's variable order.
func (t *Table) Add(vals ...types.Value) {
	if len(vals) != len(t.vars) {
		panic(fmt.Sprintf("cond: row of %d values for %d variables", len(vals), len(t.vars)))
	}
	t.vals = append(t.vals, vals...)
	t.rows++
}

// Keep appends row r of in unchanged; the table must have been derived
// from in without new variables.
func (t *Table) Keep(in *Table, r int) { t.appendRow(in, r) }

// extend appends row r of in followed by v, the value of the one
// variable the table was derived to add.
func (t *Table) extend(in *Table, r int, v types.Value) {
	row := t.appendRow(in, r)
	row[len(row)-1] = v
}

// appendRow appends row r of in, padded with nulls for the variables the
// table adds to in's, and returns the new row for the caller to fill.
func (t *Table) appendRow(in *Table, r int) []types.Value {
	t.vals = append(t.vals, in.row(r)...)
	for len(t.vals) < (t.rows+1)*len(t.vars) {
		t.vals = append(t.vals, types.Null)
	}
	t.rows++
	return t.row(t.rows - 1)
}

// Len returns the number of rows.
func (t *Table) Len() int { return t.rows }

// col returns the column of a variable, or -1 if the table does not
// bind it.
func (t *Table) col(name string) int { return slices.Index(t.vars, name) }

// Row returns row i as a Binding, valid until the table is next
// rewritten.
func (t *Table) Row(i int) Binding {
	return Binding{vars: t.vars, vals: t.row(i)}
}

func (t *Table) row(i int) []types.Value {
	w := len(t.vars)
	return t.vals[i*w : i*w+w : i*w+w]
}

// value returns the value of column col in row r.
func (t *Table) value(r, col int) types.Value { return t.vals[r*len(t.vars)+col] }

// Binding is one row of a Table: the values bound to the table's
// variables. It is a read-only view, valid until the table is next
// rewritten; looking a variable up scans the table's few variable names.
type Binding struct {
	vars []string
	vals []types.Value
}

// Lookup returns the value bound to a variable.
func (b Binding) Lookup(name string) (types.Value, bool) {
	if i := slices.Index(b.vars, name); i >= 0 {
		return b.vals[i], true
	}
	return types.Null, false
}

// Scratch is the pair of tables a condition evaluates in: atoms read one
// and write the other, swapping after each atom. Its owner reuses it
// across considerations, so a warm evaluation allocates nothing per
// candidate binding.
type Scratch struct{ a, b Table }

// StoreView is the read face of the object store a condition evaluates
// against. The plain *object.Store serves the single-session engine; an
// *object.Line serves a concurrent transaction line, taking shared
// latches on every object and class extension the condition touches so
// the bindings stay stable to the end of the line; an *object.Snapshot
// serves read transactions.
type StoreView interface {
	Get(oid types.OID) (*object.Object, bool)
	// Extension returns the live extension of a class (its objects and
	// its subclasses'), in ascending OID order. The slice may be shared
	// with the store's extension cache: callers must not modify it.
	Extension(class string) ([]types.OID, error)
	Schema() *schema.Schema
}

// Ctx is the evaluation context of a condition: the object store view,
// the event base, and the observed window (Since is the rule's last
// consumption instant, At the consideration instant).
type Ctx struct {
	Store StoreView
	Base  *event.Base
	Since clock.Time
	At    clock.Time
	// Budget, when non-nil, is charged by every calculus evaluation the
	// condition performs (event atoms re-entering the TS/OTS machinery).
	Budget *calculus.Budget
}

func (c *Ctx) env() *calculus.Env {
	return &calculus.Env{Base: c.Base, Since: c.Since, RestrictDomain: true, Budget: c.Budget}
}

// Term evaluates to a value under a binding.
type Term interface {
	fmt.Stringer
	Eval(ctx *Ctx, env Binding) (types.Value, error)
}

// Const is a literal value.
type Const struct{ V types.Value }

// Eval returns the literal.
func (t Const) Eval(*Ctx, Binding) (types.Value, error) { return t.V, nil }

// String renders the literal.
func (t Const) String() string { return t.V.String() }

// Var references a bound variable directly (an object reference or a
// time stamp).
type Var struct{ Name string }

// Eval looks the variable up.
func (t Var) Eval(_ *Ctx, env Binding) (types.Value, error) {
	v, ok := env.Lookup(t.Name)
	if !ok {
		return types.Null, fmt.Errorf("cond: unbound variable %s", t.Name)
	}
	return v, nil
}

// String renders the variable name.
func (t Var) String() string { return t.Name }

// Attr reads an attribute of the object a variable is bound to
// (S.quantity).
type Attr struct {
	Var  string
	Attr string
}

// Eval dereferences the object and reads the attribute.
func (t Attr) Eval(ctx *Ctx, env Binding) (types.Value, error) {
	v, ok := env.Lookup(t.Var)
	if !ok {
		return types.Null, fmt.Errorf("cond: unbound variable %s", t.Var)
	}
	if v.Kind() != types.KindOID {
		return types.Null, fmt.Errorf("cond: %s is not an object variable", t.Var)
	}
	o, ok := ctx.Store.Get(v.AsOID())
	if !ok {
		return types.Null, fmt.Errorf("cond: %s is bound to deleted object %s", t.Var, v.AsOID())
	}
	return o.Get(t.Attr)
}

// String renders Var.Attr.
func (t Attr) String() string { return t.Var + "." + t.Attr }

// ArithOp is an arithmetic operator for Arith terms.
type ArithOp byte

// Arithmetic operators.
const (
	OpAdd ArithOp = '+'
	OpSub ArithOp = '-'
	OpMul ArithOp = '*'
	OpDiv ArithOp = '/'
)

// Arith is a binary arithmetic term over numeric values.
type Arith struct {
	Op   ArithOp
	L, R Term
}

// Eval computes the arithmetic result; integers stay integral unless
// mixed with floats or divided.
func (t Arith) Eval(ctx *Ctx, env Binding) (types.Value, error) {
	l, err := t.L.Eval(ctx, env)
	if err != nil {
		return types.Null, err
	}
	r, err := t.R.Eval(ctx, env)
	if err != nil {
		return types.Null, err
	}
	if !l.IsNumeric() || !r.IsNumeric() {
		return types.Null, fmt.Errorf("cond: arithmetic on non-numeric values %s, %s", l, r)
	}
	if l.Kind() == types.KindInt && r.Kind() == types.KindInt && t.Op != OpDiv {
		a, b := l.AsInt(), r.AsInt()
		switch t.Op {
		case OpAdd:
			return types.Int(a + b), nil
		case OpSub:
			return types.Int(a - b), nil
		case OpMul:
			return types.Int(a * b), nil
		}
	}
	a, b := l.AsFloat(), r.AsFloat()
	switch t.Op {
	case OpAdd:
		return types.Float(a + b), nil
	case OpSub:
		return types.Float(a - b), nil
	case OpMul:
		return types.Float(a * b), nil
	case OpDiv:
		if b == 0 {
			return types.Null, fmt.Errorf("cond: division by zero")
		}
		return types.Float(a / b), nil
	}
	return types.Null, fmt.Errorf("cond: unknown arithmetic operator %q", t.Op)
}

// String renders the arithmetic expression.
func (t Arith) String() string {
	return fmt.Sprintf("(%s %c %s)", t.L, t.Op, t.R)
}

// Atom is one conjunct of a condition: it filters and extends bindings.
// Eval reads the rows of in and writes its result rows to out, which it
// first derives from in (Table.Derive); in and out are distinct tables.
type Atom interface {
	fmt.Stringer
	Eval(ctx *Ctx, in, out *Table) error
}

// Class binds a variable over the live extension of a class
// (stock(S)), or — if already bound — checks membership.
type Class struct {
	Class string
	Var   string
}

// Eval enumerates or checks the class extension.
func (a Class) Eval(ctx *Ctx, in, out *Table) error {
	if col := in.col(a.Var); col >= 0 {
		out.Derive(in)
		for r := 0; r < in.rows; r++ {
			v := in.value(r, col)
			if v.Kind() != types.KindOID {
				return fmt.Errorf("cond: %s is not an object variable", a.Var)
			}
			o, ok := ctx.Store.Get(v.AsOID())
			if !ok {
				continue
			}
			cls, found := ctx.Store.Schema().Class(a.Class)
			if !found {
				return fmt.Errorf("cond: unknown class %q", a.Class)
			}
			if o.Class().IsA(cls) {
				out.Keep(in, r)
			}
		}
		return nil
	}
	out.Derive(in, a.Var)
	if in.rows == 0 {
		return nil
	}
	oids, err := ctx.Store.Extension(a.Class)
	if err != nil {
		return err
	}
	out.vals = slices.Grow(out.vals, in.rows*len(oids)*len(out.vars))
	for r := 0; r < in.rows; r++ {
		for _, oid := range oids {
			out.extend(in, r, types.Ref(oid))
		}
	}
	return nil
}

// String renders class(Var).
func (a Class) String() string { return fmt.Sprintf("%s(%s)", a.Class, a.Var) }

// Occurred is the occurred(E, X) event formula: X ranges over the
// objects affected by the instance-oriented expression E in the observed
// window.
type Occurred struct {
	Event calculus.Expr
	Var   string
}

// Eval binds or filters X by the affected-object set.
func (a Occurred) Eval(ctx *Ctx, in, out *Table) error {
	if err := calculus.Valid(a.Event); err != nil {
		return err
	}
	affected := ctx.env().AffectedObjects(a.Event, ctx.At)
	if col := in.col(a.Var); col >= 0 {
		set := make(map[types.OID]bool, len(affected))
		for _, oid := range affected {
			set[oid] = true
		}
		out.Derive(in)
		for r := 0; r < in.rows; r++ {
			if v := in.value(r, col); v.Kind() == types.KindOID && set[v.AsOID()] {
				out.Keep(in, r)
			}
		}
		return nil
	}
	out.Derive(in, a.Var)
	for r := 0; r < in.rows; r++ {
		for _, oid := range affected {
			out.extend(in, r, types.Ref(oid))
		}
	}
	return nil
}

// String renders occurred(E, X).
func (a Occurred) String() string {
	return fmt.Sprintf("occurred(%s, %s)", a.Event, a.Var)
}

// At is the at(E, X, T) event formula of Section 3.3: for each object X
// affected by E it binds T to every instant at which an occurrence of E
// arises for X within the observed window. A T that is already bound is
// rebound, not compared.
type At struct {
	Event   calculus.Expr
	Var     string
	TimeVar string
}

// Eval binds (X, T) pairs.
func (a At) Eval(ctx *Ctx, in, out *Table) error {
	if err := calculus.Valid(a.Event); err != nil {
		return err
	}
	env0 := ctx.env()
	col := in.col(a.Var)
	out.Derive(in, a.Var, a.TimeVar)
	xcol, tcol := out.col(a.Var), out.col(a.TimeVar)
	var one [1]types.OID
	for r := 0; r < in.rows; r++ {
		candidates := env0.AffectedObjects(a.Event, ctx.At)
		if col >= 0 {
			v := in.value(r, col)
			if v.Kind() != types.KindOID {
				return fmt.Errorf("cond: %s is not an object variable", a.Var)
			}
			one[0] = v.AsOID()
			candidates = one[:]
		}
		for _, oid := range candidates {
			for _, ts := range env0.ActivationTimes(a.Event, ctx.At, oid) {
				row := out.appendRow(in, r)
				row[xcol] = types.Ref(oid)
				row[tcol] = types.TimeVal(ts)
			}
		}
	}
	return nil
}

// String renders at(E, X, T).
func (a At) String() string {
	return fmt.Sprintf("at(%s, %s, %s)", a.Event, a.Var, a.TimeVar)
}

// CmpOp is a comparison operator.
type CmpOp string

// Comparison operators.
const (
	CmpEq CmpOp = "="
	CmpNe CmpOp = "!="
	CmpLt CmpOp = "<"
	CmpLe CmpOp = "<="
	CmpGt CmpOp = ">"
	CmpGe CmpOp = ">="
)

// Compare filters bindings by comparing two terms.
type Compare struct {
	L  Term
	Op CmpOp
	R  Term
}

// Eval keeps the bindings satisfying the comparison. A binding whose
// terms cannot be evaluated (e.g. an attribute of a meanwhile-deleted
// object) is an error: conditions are expected to guard object variables
// with a class atom.
func (a Compare) Eval(ctx *Ctx, in, out *Table) error {
	out.Derive(in)
	for i := 0; i < in.rows; i++ {
		env := in.Row(i)
		l, err := a.L.Eval(ctx, env)
		if err != nil {
			return err
		}
		r, err := a.R.Eval(ctx, env)
		if err != nil {
			return err
		}
		ok, err := compare(l, a.Op, r)
		if err != nil {
			return err
		}
		if ok {
			out.Keep(in, i)
		}
	}
	return nil
}

func compare(l types.Value, op CmpOp, r types.Value) (bool, error) {
	switch op {
	case CmpEq:
		return l.Equal(r), nil
	case CmpNe:
		return !l.Equal(r), nil
	}
	c, err := l.Compare(r)
	if err != nil {
		return false, err
	}
	switch op {
	case CmpLt:
		return c < 0, nil
	case CmpLe:
		return c <= 0, nil
	case CmpGt:
		return c > 0, nil
	case CmpGe:
		return c >= 0, nil
	}
	return false, fmt.Errorf("cond: unknown comparison %q", op)
}

// String renders L op R.
func (a Compare) String() string { return fmt.Sprintf("%s %s %s", a.L, a.Op, a.R) }

// Formula is the condition: a conjunction of atoms.
type Formula struct {
	Atoms []Atom
}

// Eval runs the atoms left to right starting from the single empty
// binding and returns the table of every satisfying binding; the
// condition succeeds if at least one row survives. The result is one of
// s's tables and stays valid until s is next used.
func (f Formula) Eval(ctx *Ctx, s *Scratch) (*Table, error) {
	in, out := &s.a, &s.b
	in.reset()
	in.rows = 1
	for _, a := range f.Atoms {
		if err := a.Eval(ctx, in, out); err != nil {
			return nil, fmt.Errorf("%s: %w", a, err)
		}
		if out.rows == 0 {
			return out, nil
		}
		in, out = out, in
	}
	return in, nil
}

// String renders the comma-separated conjunction.
func (f Formula) String() string {
	parts := make([]string, len(f.Atoms))
	for i, a := range f.Atoms {
		parts[i] = a.String()
	}
	return strings.Join(parts, ", ")
}

// True is the empty condition (always satisfied, one empty binding).
var True = Formula{}
