package engine_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chimera/internal/engine"
	"chimera/internal/object"
	"chimera/internal/schema"
	"chimera/internal/storage"
	"chimera/internal/types"
	"chimera/internal/wire"
)

// view is the read face shared by a ReadTxn and the live store.
type view interface {
	Select(string) ([]types.OID, error)
	Get(types.OID) (*object.Object, bool)
	Len() int
}

// viewFingerprint renders a view: Select per class, every object's
// class and attributes, and Len. It reports inconsistencies with
// t.Errorf, so reader goroutines may call it.
func viewFingerprint(t *testing.T, db *engine.DB, v view) string {
	var b strings.Builder
	for _, class := range db.Schema().Names() {
		oids, err := v.Select(class)
		if err != nil {
			t.Errorf("select %s: %v", class, err)
		}
		fmt.Fprintf(&b, "%s %v\n", class, oids)
		for _, oid := range oids {
			o, ok := v.Get(oid)
			if !ok {
				t.Errorf("selected %v missing", oid)
				continue
			}
			if o.Class().Name() == class {
				b.WriteString(o.String())
				b.WriteByte('\n')
			}
		}
	}
	fmt.Fprintf(&b, "len %d\n", v.Len())
	return b.String()
}

var errPlannedRollback = errors.New("planned rollback")

// TestSnapshotPinnedUnderWriters races snapshot readers against
// multi-session writers that modify, create, delete, specialize and
// generalize, rolling some transactions back (picked up by make
// race-stress). Each writer owns a class pair, so the writers never
// conflict. Readers pin a snapshot, fingerprint it, fingerprint it
// again after yielding, and require it unchanged; epochs must never go
// backwards, and two snapshots of one epoch must be identical.
func TestSnapshotPinnedUnderWriters(t *testing.T) {
	const (
		writers = 2
		readers = 4
		txns    = 400
	)
	opts := engine.DefaultOptions()
	opts.MaxSessions = writers
	opts.LockWait = 5 * time.Second
	db := engine.New(opts)
	for w := 0; w < writers; w++ {
		base, sub := fmt.Sprintf("base%d", w), fmt.Sprintf("sub%d", w)
		if err := db.DefineClass(base, schema.Attribute{Name: "q", Kind: types.KindInt}); err != nil {
			t.Fatal(err)
		}
		if err := db.DefineSubclass(sub, base, schema.Attribute{Name: "tag", Kind: types.KindInt}); err != nil {
			t.Fatal(err)
		}
		if err := db.Run(func(tx *engine.Txn) error {
			for i := 0; i < 6; i++ {
				if _, err := tx.Create(base, map[string]types.Value{"q": types.Int(int64(i))}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var byEpoch sync.Map // epoch → fingerprint
	errs := make(chan error, writers+readers)
	var writersWG, readersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			r := rand.New(rand.NewSource(int64(w + 1)))
			base, sub := fmt.Sprintf("base%d", w), fmt.Sprintf("sub%d", w)
			for i := 0; i < txns; i++ {
				err := db.Run(func(tx *engine.Txn) error {
					for k := 0; k < 1+r.Intn(3); k++ {
						live, err := tx.Select(base)
						if err != nil {
							return err
						}
						oid := live[r.Intn(len(live))]
						o, _ := tx.Get(oid)
						switch op := r.Intn(5); {
						case op == 0:
							err = tx.Modify(oid, "q", types.Int(int64(r.Intn(1000))))
						case op == 1:
							_, err = tx.Create(base, map[string]types.Value{"q": types.Int(int64(i))})
						case op == 2 && len(live) > 3:
							err = tx.Delete(oid)
						case o.Class().Name() == base:
							if err = tx.Specialize(oid, sub); err == nil {
								err = tx.Modify(oid, "tag", types.Int(int64(i)))
							}
						default:
							err = tx.Generalize(oid, base)
						}
						if err != nil {
							return err
						}
					}
					if i%4 == 3 {
						return errPlannedRollback
					}
					return nil
				})
				if err != nil && !errors.Is(err, errPlannedRollback) {
					errs <- fmt.Errorf("writer %d txn %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func(r int) {
			defer readersWG.Done()
			var last uint64
			for !stop.Load() {
				rt := db.BeginRead()
				epoch := rt.Epoch()
				if epoch < last {
					errs <- fmt.Errorf("reader %d: epoch went backwards %d -> %d", r, last, epoch)
					return
				}
				last = epoch
				fp := viewFingerprint(t, db, &rt)
				if prev, dup := byEpoch.LoadOrStore(epoch, fp); dup && prev != fp {
					errs <- fmt.Errorf("reader %d: two snapshots of epoch %d differ:\n%s\n%s", r, epoch, prev, fp)
					return
				}
				runtime.Gosched()
				if again := viewFingerprint(t, db, &rt); again != fp || rt.Epoch() != epoch {
					errs <- fmt.Errorf("reader %d: pinned epoch %d changed (now %d):\n%s\n%s", r, epoch, rt.Epoch(), fp, again)
					return
				}
				rt.Close()
			}
		}(r)
	}
	writersWG.Wait()
	stop.Store(true)
	readersWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	rt := db.BeginRead()
	if got, want := viewFingerprint(t, db, &rt), viewFingerprint(t, db, db.Store()); got != want {
		t.Fatalf("final snapshot differs from the live store:\n%s\nlive\n%s", got, want)
	}
}

// Recovery publishes an interrupted transaction's writes; rolling the
// recovered transaction back undoes them into attribute maps that
// snapshot shares. Every pinned snapshot must stay as pinned, and a
// *Object from Txn.Get must see its own line's later writes.
func TestSnapshotCopyOnWriteRecover(t *testing.T) {
	store := storage.NewMemStore()
	db, err := engine.Open(durOptions(store, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DefineClass("item", schema.Attribute{Name: "n", Kind: types.KindInt}); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineSubclass("big", "item", schema.Attribute{Name: "extra", Kind: types.KindInt}); err != nil {
		t.Fatal(err)
	}
	var x, y types.OID
	if err := db.Run(func(tx *engine.Txn) error {
		x, _ = tx.Create("item", map[string]types.Value{"n": types.Int(1)})
		y, err = tx.Create("big", map[string]types.Value{"n": types.Int(2), "extra": types.Int(5)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	committed := db.BeginRead()
	want := viewFingerprint(t, db, &committed)

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	o, _ := tx.Get(x)
	if err := tx.Modify(x, "n", types.Int(10)); err != nil {
		t.Fatal(err)
	}
	if got := o.MustGet("n").AsInt(); got != 10 {
		t.Fatalf("Txn.Get object reads n=%d after its line's modify, want 10", got)
	}
	if err := tx.Generalize(y, "item"); err != nil {
		t.Fatal(err)
	}
	if err := tx.EndLine(); err != nil {
		t.Fatal(err)
	}
	if err := db.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	if got := viewFingerprint(t, db, &committed); got != want {
		t.Fatalf("pinned snapshot changed under an open transaction:\n%s\nwant\n%s", got, want)
	}

	rdb, rtx, _, err := engine.Recover(durOptions(store.Clone(), 0))
	if err != nil {
		t.Fatal(err)
	}
	if rtx == nil {
		t.Fatal("expected the interrupted transaction back")
	}
	mid := rdb.BeginRead()
	midFP := viewFingerprint(t, rdb, &mid)
	if midFP == want {
		t.Fatal("recovery did not publish the interrupted transaction's writes")
	}
	if err := rtx.Rollback(); err != nil {
		t.Fatal(err)
	}
	after := rdb.BeginRead()
	if got := viewFingerprint(t, rdb, &after); got != want {
		t.Fatalf("after the recovered rollback:\n%s\nwant\n%s", got, want)
	}
	if err := rdb.Run(func(tx *engine.Txn) error {
		if err := tx.Modify(x, "n", types.Int(3)); err != nil {
			return err
		}
		return tx.Modify(y, "extra", types.Int(6))
	}); err != nil {
		t.Fatal(err)
	}
	if got := viewFingerprint(t, rdb, &mid); got != midFP {
		t.Fatalf("snapshot of the recovered transaction changed:\n%s\nwas\n%s", got, midFP)
	}
	if got := viewFingerprint(t, rdb, &after); got != want {
		t.Fatalf("snapshot after the rollback changed:\n%s\nwas\n%s", got, want)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	rdb.Close()
}

// A checkpoint of a store whose two classes alternate in OID order
// writes its objects frame in ascending OID order and recovers to the
// same state.
func TestCheckpointObjectsAscending(t *testing.T) {
	const n = 20000
	store := storage.NewMemStore()
	db, err := engine.Open(durOptions(store, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"even", "odd"} {
		if err := db.DefineClass(c, schema.Attribute{Name: "v", Kind: types.KindInt}); err != nil {
			t.Fatal(err)
		}
	}
	for lo := 0; lo < n; lo += 1000 {
		if err := db.Run(func(tx *engine.Txn) error {
			for i := lo; i < lo+1000; i++ {
				class := []string{"even", "odd"}[i%2]
				if _, err := tx.Create(class, map[string]types.Value{"v": types.Int(int64(i))}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ck, err := store.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	oids, classes := checkpointObjects(t, ck)
	if len(oids) != n {
		t.Fatalf("objects frame holds %d objects, want %d", len(oids), n)
	}
	for i := range oids {
		if i > 0 && oids[i] <= oids[i-1] {
			t.Fatalf("objects frame not ascending at %d: %v after %v", i, oids[i], oids[i-1])
		}
		if want := []string{"even", "odd"}[i%2]; classes[i] != want {
			t.Fatalf("object %v has class %s, want %s", oids[i], classes[i], want)
		}
	}
	rdb, _, _, err := engine.Recover(durOptions(store.Clone(), 0))
	if err != nil {
		t.Fatal(err)
	}
	if want, got := durFingerprint(db, nil), durFingerprint(rdb, nil); want != got {
		t.Fatal("recovered state differs from the checkpointed one")
	}
	db.Close()
	rdb.Close()
}

// checkpointObjects decodes the OIDs and classes of a checkpoint's
// objects frame, the third frame after the header and the catalog.
func checkpointObjects(t *testing.T, ck []byte) ([]types.OID, []string) {
	t.Helper()
	var p []byte
	rest := ck
	for i := 0; i < 3; i++ {
		var err error
		if p, rest, err = wire.NextFrame(rest); err != nil {
			t.Fatal(err)
		}
	}
	count, p, err := wire.Uvarint(p)
	if err != nil {
		t.Fatal(err)
	}
	oids := make([]types.OID, count)
	classes := make([]string, count)
	for i := range oids {
		var v int64
		var nv uint64
		if v, p, err = wire.Varint(p); err != nil {
			t.Fatal(err)
		}
		oids[i] = types.OID(v)
		if classes[i], p, err = wire.String(p); err != nil {
			t.Fatal(err)
		}
		if nv, p, err = wire.Uvarint(p); err != nil {
			t.Fatal(err)
		}
		for j := uint64(0); j < nv; j++ {
			if _, p, err = wire.String(p); err != nil {
				t.Fatal(err)
			}
			if _, p, err = wire.Value(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(p) != 0 {
		t.Fatalf("%d trailing bytes in the objects frame", len(p))
	}
	return oids, classes
}
