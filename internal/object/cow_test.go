package object

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"chimera/internal/types"
)

// view is the read face shared by the live store and a snapshot.
type view interface {
	Get(types.OID) (*Object, bool)
	Select(string) ([]types.OID, error)
	Len() int
}

// fingerprint renders a view: Select per class, every selected
// object's class and attributes, and Len.
func fingerprint(t *testing.T, v view) string {
	t.Helper()
	var b strings.Builder
	seen := make(map[types.OID]bool)
	for _, class := range []string{"stock", "order", "notFilledOrder"} {
		oids, err := v.Select(class)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s: %v\n", class, oids)
		for _, oid := range oids {
			if seen[oid] {
				continue
			}
			seen[oid] = true
			o, ok := v.Get(oid)
			if !ok {
				t.Fatalf("selected %v missing", oid)
			}
			b.WriteString(o.String())
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "len %d\n", v.Len())
	return b.String()
}

// cowFixture is the store every copy-on-write case starts from: one
// object of each class, fully published, so every live map is frozen.
// The OIDs are spread so the trie has interior levels to path-copy.
type cowFixture struct {
	st      *Store
	a, b, c types.OID // stock, order, notFilledOrder
}

func newCOWFixture(t *testing.T) cowFixture {
	t.Helper()
	st := newStockStore(t)
	a, _ := st.Create("stock", map[string]types.Value{"name": types.String_("a"), "quantity": types.Int(1)})
	st.SetNextOID(40)
	b, _ := st.Create("order", map[string]types.Value{"item": types.String_("b")})
	st.SetNextOID(700)
	c, _ := st.Create("notFilledOrder", map[string]types.Value{"item": types.String_("c"), "missing": types.Int(3)})
	st.DiscardUndo()
	st.PublishAll()
	return cowFixture{st: st, a: a, b: b, c: c}
}

// commit ends ln keeping its writes and stages its write set, the way
// the engine commits.
func (f cowFixture) commit(ln *Line) {
	touched := ln.TouchedOIDs()
	f.st.StageTouched(touched)
	ln.Commit()
}

// soloRollback rolls a solo line back and restages what it touched,
// the way the engine rolls back a single-session transaction.
func (f cowFixture) soloRollback(ln *Line) {
	touched := ln.TouchedOIDs()
	ln.Rollback()
	f.st.StageTouched(touched)
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCopyOnWrite: published snapshots share attribute maps and
// trie nodes with the live store, so every later write path must copy
// before writing. Each case pins the published snapshot, runs one step
// (which may pin more snapshots along the way), and requires every
// pinned snapshot to be unchanged and a full republication to equal the
// live store.
func TestSnapshotCopyOnWrite(t *testing.T) {
	solo := LineOptions{Solo: true}
	cases := []struct {
		name string
		step func(t *testing.T, f cowFixture, pin func())
	}{
		{"modify", func(t *testing.T, f cowFixture, pin func()) {
			ln := f.st.BeginLine(LineOptions{})
			must(t, ln.Modify(f.a, "quantity", types.Int(2)))
			must(t, ln.Modify(f.b, "item", types.String_("b2")))
			f.commit(ln)
		}},
		{"delete-rollback-modify", func(t *testing.T, f cowFixture, pin func()) {
			// Undo of the delete reinstates the deleted object's own map,
			// which the pinned snapshot shares.
			ln := f.st.BeginLine(LineOptions{})
			must(t, ln.Delete(f.a))
			ln.Rollback()
			ln = f.st.BeginLine(LineOptions{})
			must(t, ln.Modify(f.a, "quantity", types.Int(7)))
			f.commit(ln)
		}},
		{"generalize-rollback", func(t *testing.T, f cowFixture, pin func()) {
			// Generalize builds a fresh trimmed map; a full publication
			// (recovery of the open line) then freezes it, and the
			// rollback writes the dropped attribute back into it.
			ln := f.st.BeginLine(solo)
			must(t, ln.Generalize(f.c, "order"))
			f.st.PublishAll()
			pin()
			f.soloRollback(ln)
		}},
		{"specialize", func(t *testing.T, f cowFixture, pin func()) {
			ln := f.st.BeginLine(LineOptions{})
			must(t, ln.Specialize(f.b, "notFilledOrder"))
			must(t, ln.Modify(f.b, "missing", types.Int(4)))
			f.commit(ln)
			pin()
			ln = f.st.BeginLine(LineOptions{})
			must(t, ln.Modify(f.b, "missing", types.Int(5)))
			f.commit(ln)
		}},
		{"solo-rollback-restage", func(t *testing.T, f cowFixture, pin func()) {
			ln := f.st.BeginLine(solo)
			must(t, ln.Modify(f.a, "quantity", types.Int(8)))
			must(t, ln.Delete(f.b))
			f.soloRollback(ln)
			pin()
			ln = f.st.BeginLine(solo)
			must(t, ln.Modify(f.a, "quantity", types.Int(9)))
			f.commit(ln)
		}},
		{"create-after-rolled-back-create", func(t *testing.T, f cowFixture, pin func()) {
			ln := f.st.BeginLine(solo)
			d, err := ln.Create("stock", map[string]types.Value{"quantity": types.Int(1)})
			must(t, err)
			f.soloRollback(ln)
			pin()
			ln = f.st.BeginLine(solo)
			e, err := ln.Create("order", map[string]types.Value{"item": types.String_("e")})
			must(t, err)
			if e != d {
				t.Fatalf("OID %v not reused (got %v)", d, e)
			}
			f.commit(ln)
			pin()
			ln = f.st.BeginLine(solo)
			must(t, ln.Modify(e, "item", types.String_("e2")))
			f.commit(ln)
		}},
		{"recover-publishall", func(t *testing.T, f cowFixture, pin func()) {
			// Recovery publishes an interrupted line's writes; its
			// rollback then undoes them into frozen maps: a set
			// attribute restored, an unset one removed (on two objects,
			// so neither undo writes a map the other already copied).
			ln := f.st.BeginLine(solo)
			must(t, ln.Modify(f.b, "item", types.String_("b6")))
			must(t, ln.Modify(f.a, "maxquantity", types.Int(10)))
			f.st.PublishAll()
			pin()
			f.soloRollback(ln)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newCOWFixture(t)
			type pinned struct {
				sn *Snapshot
				fp string
			}
			var pins []pinned
			pin := func() {
				sn := f.st.Published()
				pins = append(pins, pinned{sn, fingerprint(t, sn)})
			}
			pin()
			tc.step(t, f, pin)
			for i, p := range pins {
				if got := fingerprint(t, p.sn); got != p.fp {
					t.Errorf("snapshot %d (epoch %d) changed:\nwas\n%s\nnow\n%s", i, p.sn.Epoch(), p.fp, got)
				}
			}
			if got, want := fingerprint(t, f.st.Published()), fingerprint(t, f.st); got != want {
				t.Errorf("latest snapshot differs from the live store:\n%s\nlive\n%s", got, want)
			}
		})
	}
}

// A *Object a line read keeps its identity across the copy-on-write of
// its frozen map: it sees the same line's later writes.
func TestSnapshotGetSeesLineWrites(t *testing.T) {
	f := newCOWFixture(t)
	ln := f.st.BeginLine(LineOptions{})
	o, err := ln.Fetch(f.a)
	must(t, err)
	must(t, ln.Modify(f.a, "quantity", types.Int(4)))
	if got := o.MustGet("quantity").AsInt(); got != 4 {
		t.Fatalf("fetched object reads quantity %d after the line's modify, want 4", got)
	}
	f.commit(ln)
	if sn, _ := f.st.Published().Get(f.a); sn == o {
		t.Fatal("the snapshot holds the live object itself")
	}
}

// The trie against a map model: random sets and deletes over a sparse
// OID range, with a publication (a frozen copy and a new generation)
// every few writes. Every frozen copy must still equal the model as it
// was when frozen, and walk in ascending OID order.
func TestSnapshotTrieMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	type frozen struct {
		tr    trie
		model map[types.OID]*Object
	}
	var (
		tr    trie
		gen   uint64
		model = make(map[types.OID]*Object)
		pins  []frozen
	)
	for i := 0; i < 4000; i++ {
		oid := types.OID(1 + r.Intn(5000))
		if i > 2000 {
			oid *= 97 // grow the height mid-run
		}
		if r.Intn(3) == 0 {
			tr.set(oid, nil, gen)
			delete(model, oid)
		} else {
			o := &Object{oid: oid}
			tr.set(oid, o, gen)
			model[oid] = o
		}
		if r.Intn(20) == 0 {
			pins = append(pins, frozen{tr, maps.Clone(model)})
			gen++
		}
	}
	pins = append(pins, frozen{tr, model})
	for i, p := range pins {
		if p.tr.n != len(p.model) {
			t.Fatalf("pin %d: %d objects, model %d", i, p.tr.n, len(p.model))
		}
		var last types.OID
		n := 0
		if p.tr.root != nil {
			p.tr.root.walk(p.tr.height, func(o *Object) {
				if o.oid <= last || p.model[o.oid] != o {
					t.Fatalf("pin %d: walk yielded %v after %v, model has %v", i, o.oid, last, p.model[o.oid])
				}
				last = o.oid
				n++
			})
		}
		if n != len(p.model) {
			t.Fatalf("pin %d: walk yielded %d objects, model %d", i, n, len(p.model))
		}
		for oid, o := range p.model {
			if got := p.tr.get(oid); got != o {
				t.Fatalf("pin %d: get(%v) = %v, want %v", i, oid, got, o)
			}
		}
		if p.tr.get(0) != nil || p.tr.get(1<<40) != nil {
			t.Fatalf("pin %d: absent OID found", i)
		}
	}
}

// publishCostBudget bounds the bytes one 2-object modify commit plus
// the publication a following read triggers may allocate in the store,
// whatever its size: the line, its undo log and write set, the two
// attribute-map copies, two snapshot headers, the path-copied trie
// nodes and the snapshot value.
const publishCostBudget = 6 << 10

// TestPublishCostIndependentOfStoreSize: publication path-copies a few
// trie nodes per written object, so a small commit followed by a read
// (Published is what the engine's BeginRead calls) costs about the same
// on a 1,000-object and a 100,000-object store. The two objects sit a
// third of the store apart, so their paths share only the root.
func TestPublishCostIndependentOfStoreSize(t *testing.T) {
	cost := func(n int) float64 {
		st := newStockStore(t)
		oids := make([]types.OID, n)
		for i := range oids {
			oids[i], _ = st.Create("stock", map[string]types.Value{"name": types.String_("s"), "quantity": types.Int(1)})
		}
		st.DiscardUndo()
		st.PublishAll()
		a, b := oids[n/3], oids[2*n/3]
		i := int64(0)
		step := func() {
			i++
			ln := st.BeginLine(LineOptions{})
			must(t, ln.Modify(a, "quantity", types.Int(i)))
			must(t, ln.Modify(b, "quantity", types.Int(-i)))
			st.StageTouched(ln.TouchedOIDs())
			ln.Commit()
			st.Published()
		}
		step()
		const rounds = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < rounds; r++ {
			step()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / rounds
	}
	small, large := cost(1000), cost(100000)
	t.Logf("bytes per commit and publication: %.0f at 1k objects, %.0f at 100k", small, large)
	for _, c := range []float64{small, large} {
		if c > publishCostBudget {
			t.Errorf("a 2-object commit plus publication allocates %.0f B, budget %d B", c, publishCostBudget)
		}
	}
	if large > 1.5*small {
		t.Errorf("publication cost grows with the store: %.0f B at 100k objects vs %.0f B at 1k", large, small)
	}
}
