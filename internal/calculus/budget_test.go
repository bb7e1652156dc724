package calculus

import (
	"errors"
	"math"
	"testing"
	"time"
)

// Gas is charged one unit per call; the charge that overdraws aborts
// with the typed error, which the boundary handlers recover and latch.
func TestBudgetGasAccounting(t *testing.T) {
	b := NewBudget(3, time.Time{})
	if _, ok := b.Deadline(); ok {
		t.Fatal("deadline reported on a gas-only budget")
	}
	err := CatchBudget(func() {
		for i := 0; i < 3; i++ {
			b.Charge()
		}
	})
	if err != nil || b.Used() != 3 || b.Remaining() != 0 || b.Err() != nil {
		t.Fatalf("after 3 charges: err %v, used %d, remaining %d, latched %v", err, b.Used(), b.Remaining(), b.Err())
	}
	err = CatchBudget(b.Charge)
	if !errors.Is(err, ErrGasExhausted) || !errors.Is(b.Err(), ErrGasExhausted) {
		t.Fatalf("overdraw: err %v, latched %v", err, b.Err())
	}
	// Non-budget panics pass through RecoverBudget untouched.
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the original panic", r)
			}
		}()
		var err error
		defer RecoverBudget(&err)
		panic("boom")
	}()
}

// Unlimited budgets only count; a nil budget charges nothing; a passed
// deadline aborts within one stride of charges.
func TestBudgetUnlimitedNilAndDeadline(t *testing.T) {
	u := NewBudget(0, time.Time{})
	for i := 0; i < 100; i++ {
		u.Charge()
	}
	if u.Used() != 100 || u.Remaining() != math.MaxInt64-100 {
		t.Fatalf("unlimited: used %d, remaining %d", u.Used(), u.Remaining())
	}
	var n *Budget
	n.Charge()
	if n.Err() != nil || n.Used() != 0 || n.Remaining() != math.MaxInt64 {
		t.Fatal("nil budget is not inert")
	}
	if _, ok := n.Deadline(); ok {
		t.Fatal("nil budget has a deadline")
	}
	past := time.Now().Add(-time.Second)
	d := NewBudget(0, past)
	if at, ok := d.Deadline(); !ok || !at.Equal(past) {
		t.Fatal("deadline not reported")
	}
	err := CatchBudget(func() {
		for i := 0; i < 2*deadlineStride; i++ {
			d.Charge()
		}
	})
	if !errors.Is(err, ErrDeadlineExceeded) || !errors.Is(d.Err(), ErrDeadlineExceeded) {
		t.Fatalf("deadline: err %v, latched %v", err, d.Err())
	}
	// Once latched, later charges abort again within one stride.
	if err := CatchBudget(func() {
		for i := 0; i < 2*deadlineStride; i++ {
			d.Charge()
		}
	}); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("charge after the latch: %v", err)
	}
}
