package object

import (
	"fmt"

	"chimera/internal/schema"
	"chimera/internal/types"
)

// The snapshot trie is a persistent radix trie keyed by OID: trieBits
// bits of the OID per level, so a node has trieFanout slots and the
// height grows with the largest OID stored (five levels at 100k OIDs).
const (
	trieBits   = 4
	trieFanout = 1 << trieBits
	trieMask   = trieFanout - 1
)

// trieNode is one trie node: interior nodes use kids, leaves (level 0)
// use objs. gen is the publication generation that allocated the node.
// Nodes of the store's current generation are reachable from no
// published snapshot, so staging writes them in place; nodes of an
// older generation may be shared by a snapshot and are never written —
// staging copies them (and so the whole path above a change) first.
// One node type for both roles keeps every copy a single 264-byte
// allocation.
type trieNode struct {
	gen  uint64
	kids [trieFanout]*trieNode
	objs [trieFanout]*Object
}

// trie is a root, its height (interior levels above the leaves) and
// the number of objects stored. Copying a trie value shares its nodes.
type trie struct {
	root   *trieNode
	height int
	n      int
}

// covers reports whether k fits under a root of the trie's height.
func (t *trie) covers(k uint64) bool {
	return t.root != nil && k>>(trieBits*(t.height+1)) == 0
}

func (t *trie) get(oid types.OID) *Object {
	k := uint64(oid)
	if !t.covers(k) {
		return nil
	}
	n := t.root
	for l := t.height; l > 0; l-- {
		if n = n.kids[(k>>(trieBits*l))&trieMask]; n == nil {
			return nil
		}
	}
	return n.objs[k&trieMask]
}

// set stores o under oid, or deletes oid when o is nil. Nodes older
// than gen are copied before they are written; emptied nodes are kept.
func (t *trie) set(oid types.OID, o *Object, gen uint64) {
	k := uint64(oid)
	old := t.get(oid)
	if old == nil && o == nil {
		return
	}
	for !t.covers(k) {
		if t.root == nil {
			t.root = &trieNode{gen: gen}
			continue
		}
		t.root = &trieNode{gen: gen, kids: [trieFanout]*trieNode{t.root}}
		t.height++
	}
	slot := &t.root
	for l := t.height; ; l-- {
		n := *slot
		if n == nil {
			n = &trieNode{gen: gen}
		} else if n.gen != gen {
			c := *n
			c.gen = gen
			n = &c
		}
		*slot = n
		if l == 0 {
			n.objs[k&trieMask] = o
			break
		}
		slot = &n.kids[(k>>(trieBits*l))&trieMask]
	}
	switch {
	case old == nil:
		t.n++
	case o == nil:
		t.n--
	}
}

// walk yields the objects under n, a node at the given level, in
// ascending OID order.
func (n *trieNode) walk(level int, yield func(*Object)) {
	if level == 0 {
		for _, o := range n.objs {
			if o != nil {
				yield(o)
			}
		}
		return
	}
	for _, c := range n.kids {
		if c != nil {
			c.walk(level-1, yield)
		}
	}
}

// Snapshot is an immutable, epoch-stamped image of the store's committed
// state. A Snapshot is never mutated after publication: readers may hold
// one indefinitely and traverse it without latches, locks or allocation.
// It is a frozen root of the store's OID trie, sharing every node a
// later commit did not touch with its predecessor and successor. Each
// object in it is an immutable header taken at staging: the committed
// class plus the live attribute map, which the live store copies before
// its next in-place write (see Object.writable), so a snapshot object
// can never change underneath a reader.
type Snapshot struct {
	epoch  uint64
	schema *schema.Schema
	objs   trie
}

// Epoch returns the snapshot's publication epoch. Epochs increase by one
// per publication; a larger epoch strictly supersedes a smaller one.
func (sn *Snapshot) Epoch() uint64 { return sn.epoch }

// Schema returns the catalog the snapshot was published over.
func (sn *Snapshot) Schema() *schema.Schema { return sn.schema }

// Get returns the snapshot's object with the given OID. The returned
// object is immutable; callers must not modify its attribute map.
func (sn *Snapshot) Get(oid types.OID) (*Object, bool) {
	o := sn.objs.get(oid)
	return o, o != nil
}

// Len returns the number of objects in the snapshot.
func (sn *Snapshot) Len() int { return sn.objs.n }

// Select returns the OIDs of all snapshot objects whose class is (or
// specializes) the named class, in ascending OID order — the same
// set-oriented select as Store.Select, evaluated against the frozen
// image instead of the live store.
func (sn *Snapshot) Select(class string) ([]types.OID, error) {
	target, ok := sn.schema.Class(class)
	if !ok {
		return nil, fmt.Errorf("object: unknown class %q", class)
	}
	var out []types.OID
	if sn.objs.root != nil {
		sn.objs.root.walk(sn.objs.height, func(o *Object) {
			if o.class.IsA(target) {
				out = append(out, o.oid)
			}
		})
	}
	return out, nil
}

// Extension is the read face cond evaluates class atoms through. A
// snapshot's extensions never change, and it computes them on each call
// rather than caching them: that keeps a published snapshot free of
// mutable state, and the only condition evaluated against a snapshot is
// a read transaction's where-filter.
func (sn *Snapshot) Extension(class string) ([]types.OID, error) {
	return sn.Select(class)
}

// Published returns the latest snapshot, publishing any staged commits
// first. The steady-state path — no commit since the last call — is a
// single atomic flag check plus an atomic load: no locks, no allocation.
// When commits have been staged, the calling reader freezes the
// building trie in O(1); commits staged since the last reader share it.
func (s *Store) Published() *Snapshot {
	if !s.stale.Load() {
		if sn := s.published.Load(); sn != nil {
			return sn
		}
	}
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	if s.stale.Load() {
		s.freezeLocked(s.epoch.Load())
	}
	return s.published.Load()
}

// freezeLocked publishes the building trie as the snapshot of the
// given epoch and opens the next generation, so every node the snapshot
// reaches becomes copy-on-write for later stagings. The caller holds
// pubMu.
func (s *Store) freezeLocked(epoch uint64) {
	s.published.Store(&Snapshot{epoch: epoch, schema: s.pubSchema, objs: s.building})
	s.gen++
	s.stale.Store(false)
}

// PublishAll publishes a fresh snapshot of the entire committed store
// under a new epoch, rebuilding the trie from the live objects (any
// staged commit is part of the live state it reads). Used at engine
// open, snapshot load and recovery; per-commit publication uses
// StageTouched. The caller must guarantee the store holds no state it
// may not publish: recovery publishes an interrupted transaction's
// writes, which the solo line's rollback restages away.
func (s *Store) PublishAll() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	s.building = trie{}
	for oid, o := range s.objects {
		s.building.set(oid, o.freeze(), s.gen)
	}
	s.pubSchema = s.schema
	s.freezeLocked(s.epoch.Add(1))
}

// StageTouched stages a commit's write set for publication: each OID
// present in the live store gets a fresh immutable header in the
// building trie, each absent OID is deleted from it. Nodes a published
// snapshot shares are path-copied; nodes staged since the last
// publication are written in place, so a store nobody reads never
// copies a node. Cost is O(write set × trie height).
//
// The engine calls this under its commit mutex — stagings are serialized
// in commit order — and while the committing line still holds its
// exclusive latches on the touched OIDs, which guarantees the attribute
// maps frozen here hold the committed values and cannot be written
// mid-staging by another line. Each call advances the logical epoch by
// one, so epochs still count commits even when several stagings share
// one publication.
func (s *Store) StageTouched(oids []types.OID) {
	if len(oids) == 0 {
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	for _, oid := range oids {
		var h *Object
		if o, ok := s.objects[oid]; ok {
			h = o.freeze()
		}
		s.building.set(oid, h, s.gen)
	}
	s.pubSchema = s.schema
	s.epoch.Add(1)
	s.stale.Store(true)
}

// PublishedEpoch returns the logical publication epoch: one tick per
// staged commit or full publication, whether or not a reader has
// published the snapshot yet (0 if nothing was ever published).
func (s *Store) PublishedEpoch() uint64 {
	return s.epoch.Load()
}
