package event

import (
	"math/rand"
	"runtime"
	"testing"

	"chimera/internal/clock"
	"chimera/internal/types"
)

// TestAppendSteadyStateAllocs is the Event Base's allocation gate. An
// append into a segment with room allocates nothing: the columns have
// the capacity and the permutation inserts are memmoves inside it. A
// fresh Base carrying one short transaction — four appends over two
// types and three objects, the shape of an inventory transaction —
// stays under a 2 KiB budget, because segments hold no maps and the
// first segment starts at firstSegmentCap slots instead of a full
// segment.
func TestAppendSteadyStateAllocs(t *testing.T) {
	cs, mq := Create("stock"), Modify("stock", "quantity")

	b := NewBase()
	at := clock.Time(0)
	// Seal the first segment and open a full-size second one, so the
	// measured appends land in a segment with room.
	for i := 0; i <= DefaultSegmentSize; i++ {
		at++
		if _, err := b.Append(cs, types.OID(i%5+1), at); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		at++
		i++
		if _, err := b.Append([]Type{cs, mq}[i%2], types.OID(i%5+1), at); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("append into a segment with room: %v allocs, want 0", allocs)
	}

	txn := func() {
		b := NewBase()
		for k, row := range []struct {
			ty  Type
			oid types.OID
		}{{mq, 1}, {mq, 2}, {cs, 3}, {mq, 3}} {
			if _, err := b.Append(row.ty, row.oid, clock.Time(k+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	const rounds = 1000
	txn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < rounds; k++ {
		txn()
	}
	runtime.ReadMemStats(&after)
	perTxn := float64(after.TotalAlloc-before.TotalAlloc) / rounds
	t.Logf("fresh Base + 4 appends: %.0f B", perTxn)
	// About 1.5 KiB here (go1.24, linux/amd64); per-segment maps and a
	// full-size first segment put the same shape near 7 KiB.
	const budget = 2 << 10
	if perTxn > budget {
		t.Errorf("fresh Base + 4 appends allocates %.0f B, budget %d B", perTxn, budget)
	}
}

// TestOIDScansAllocationFree pins the no-allocation claim of
// AppendOIDs and AppendOIDsOfTypes: with a recycled dst of sufficient
// capacity, gathering, sorting and deduplicating the domain allocates
// nothing.
func TestOIDScansAllocationFree(t *testing.T) {
	for _, segSize := range []int{4, DefaultSegmentSize} {
		r := rand.New(rand.NewSource(5))
		b, ref, vocab := fillModel(t, r, segSize, 200)
		last := ref[len(ref)-1].Timestamp
		buf := make([]types.OID, 0, 512)
		if a := testing.AllocsPerRun(50, func() { buf = b.AppendOIDs(buf[:0], clock.Never, last) }); a != 0 {
			t.Errorf("segment size %d: AppendOIDs with a recycled dst: %v allocs, want 0", segSize, a)
		}
		if a := testing.AllocsPerRun(50, func() { buf = b.AppendOIDsOfTypes(buf[:0], vocab[:3], clock.Never, last) }); a != 0 {
			t.Errorf("segment size %d: AppendOIDsOfTypes with a recycled dst: %v allocs, want 0", segSize, a)
		}
	}
}
