package main

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// TestGeneratorsDeterministic pins the benchmark's input contract: the
// same seed yields byte-identical inputs, a different seed different
// ones, for every workload.
func TestGeneratorsDeterministic(t *testing.T) {
	gens := map[string]func(int64) []byte{
		"oltp-inventory": func(s int64) []byte { return genOLTP(s).bytes() },
		"stream-fraud":   func(s int64) []byte { return genFraud(s).bytes() },
		"rw-snapshot":    func(s int64) []byte { return genRW(s).bytes() },
	}
	for name, gen := range gens {
		a, b, c := gen(7), gen(7), gen(8)
		if len(a) == 0 {
			t.Fatalf("%s: empty input", name)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 produced different inputs on two calls", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 produced identical inputs", name)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	sum := summarize(s)
	if sum.p50 != 500 || sum.high != 990 || sum.highLabel != "p99" {
		t.Fatalf("1000 samples: p50=%v high=%v (%s), want 500, 990 (p99)", sum.p50, sum.high, sum.highLabel)
	}
	// With 500 samples p99 has only 5 beyond it; p95 is the highest
	// percentile with at least 10.
	if got := summarize(s[:500]); got.highLabel != "p95" {
		t.Fatalf("500 samples: high percentile %s, want p95", got.highLabel)
	}
}

// bytes renders an input for the byte-identity check.
func (in *oltpInput) bytes() []byte {
	var b []byte
	for _, it := range in.items {
		b = binary.AppendVarint(b, it.quantity)
		b = binary.AppendVarint(b, it.minquantity)
		b = binary.AppendVarint(b, it.maxquantity)
	}
	for _, l := range in.lines {
		b = append(b, l.kind)
		b = binary.AppendUvarint(b, uint64(l.item))
		b = binary.AppendVarint(b, int64(l.amount))
	}
	for _, e := range in.ends {
		b = binary.AppendVarint(b, int64(e))
	}
	return b
}

func (in *fraudInput) bytes() []byte {
	var b []byte
	for _, c := range in.cards {
		b = binary.AppendVarint(b, c.spent)
		b = binary.AppendVarint(b, c.limit)
		if c.flagged {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	for _, m := range in.merchRisk {
		b = binary.AppendVarint(b, m)
	}
	for _, e := range in.events {
		b = append(b, e.kind)
		b = binary.AppendUvarint(b, uint64(e.obj))
	}
	return b
}

func (in *rwInput) bytes() []byte {
	var b []byte
	for _, f := range in.first {
		b = binary.AppendVarint(b, f)
	}
	for _, w := range in.writes {
		b = binary.AppendUvarint(b, uint64(w.pair))
		b = binary.AppendVarint(b, int64(w.amount))
	}
	for _, rd := range in.reads {
		b = binary.AppendUvarint(b, uint64(rd.pair))
		if rd.selekt {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}
