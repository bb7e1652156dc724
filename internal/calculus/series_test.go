package calculus

import "testing"

// A primitive is active from its occurrence on; the curve renders as
// its ts values and as an activity chart, and De Morgan's law holds
// pointwise on the sampled curves.
func TestSampleSeriesAndPlot(t *testing.T) {
	env := &Env{Base: hist(t, row{createStock, 1, 2}, row{modStockQty, 1, 4})}
	c, m := P(createStock), P(modStockQty)
	s := env.SampleSeries("create", c, 5)
	if got := s.String(); got != "create: -1 2 2 2 2" {
		t.Fatalf("String = %q", got)
	}
	mod := env.SampleSeries("modify", m, 5)
	if got := Plot([]Series{s, mod}); got != "create |.++++|\nmodify |...++|\n" {
		t.Fatalf("Plot =\n%s", got)
	}
	lhs := env.SampleSeries("-(c + m)", Neg(Conj(c, m)), 5)
	rhs := env.SampleSeries("-c , -m", Disj(Neg(c), Neg(m)), 5)
	if !EqualSeries(lhs, rhs) {
		t.Fatalf("De Morgan fails:\n%s\n%s", lhs, rhs)
	}
	if EqualSeries(s, mod) || EqualSeries(s, Series{}) {
		t.Fatal("different curves compare equal")
	}
}
