package mech

import (
	"math"
	"testing"

	"repro/internal/dist"
)

func sampleMean(t *testing.T, m CellMechanism, in CellInput, n int, seed int64) (mean, meanAbs float64) {
	t.Helper()
	s := dist.NewStreamFromSeed(seed)
	var sum, sumAbs float64
	for i := 0; i < n; i++ {
		v, err := m.ReleaseCell(in, s)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		sum += v
		sumAbs += math.Abs(v - in.Count)
	}
	return sum / float64(n), sumAbs / float64(n)
}

func TestPureLaplaceUnbiasedAndError(t *testing.T) {
	m, err := NewPureLaplace(1.0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	in := CellInput{Count: 100}
	mean, l1 := sampleMean(t, m, in, 200000, 1)
	if math.Abs(mean-100) > 0.05 {
		t.Errorf("mean = %v, want 100", mean)
	}
	if math.Abs(l1-m.ExpectedL1(in)) > 0.02 {
		t.Errorf("L1 = %v, want %v", l1, m.ExpectedL1(in))
	}
}

func TestPureLaplaceValidation(t *testing.T) {
	if _, err := NewPureLaplace(0, 1); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := NewPureLaplace(1, 0); err == nil {
		t.Error("sensitivity=0 accepted")
	}
	var zero PureLaplace
	if _, err := zero.ReleaseCell(CellInput{}, dist.NewStreamFromSeed(1)); err == nil {
		t.Error("zero-value PureLaplace released")
	}
}

func TestEdgeLaplace(t *testing.T) {
	m, err := NewEdgeLaplace(2.0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Sensitivity != 1 {
		t.Errorf("edge sensitivity = %v, want 1", m.Sensitivity)
	}
	if m.ExpectedL1(CellInput{}) != 0.5 {
		t.Errorf("expected L1 = %v, want 0.5", m.ExpectedL1(CellInput{}))
	}
	if m.Name() != "edge-laplace(eps=2)" {
		t.Errorf("name = %q", m.Name())
	}
}

func TestEdgeLaplaceLeaksEstablishmentSize(t *testing.T) {
	// The Section 6 argument: edge-DP noise does not scale with the
	// establishment, so the relative error on a 10,000-employee single-
	// establishment cell is negligible — the attacker learns the size.
	m, err := NewEdgeLaplace(1.0)
	if err != nil {
		t.Fatal(err)
	}
	in := CellInput{Count: 10000, MaxContribution: 10000}
	s := dist.NewStreamFromSeed(2)
	within5 := 0
	const n = 10000
	for i := 0; i < n; i++ {
		v, err := m.ReleaseCell(in, s)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v-10000) <= 5 {
			within5++
		}
	}
	// With probability 1-p the noise is at most ln(1/p); at p=0.01 that is
	// ~4.6, so >=99% of releases land within +-5 of the true size.
	if rate := float64(within5) / n; rate < 0.98 {
		t.Errorf("only %v of releases within +-5 of the true size; expected near-exact disclosure", rate)
	}
}

func TestLogLaplaceParameters(t *testing.T) {
	m, err := NewLogLaplace(0.1, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Gamma(); math.Abs(got-10) > 1e-12 {
		t.Errorf("gamma = %v, want 10", got)
	}
	want := 2 * math.Log(1.1) / 2.0
	if got := m.Lambda(); math.Abs(got-want) > 1e-12 {
		t.Errorf("lambda = %v, want %v", got, want)
	}
	if !m.ExpectationBounded() {
		t.Error("expectation should be bounded at alpha=0.1, eps=2")
	}
}

func TestLogLaplaceExpectationUnbounded(t *testing.T) {
	// lambda = 2 ln(1.2)/eps >= 1 iff eps <= 2 ln(1.2) ~ 0.3646.
	m, err := NewLogLaplace(0.2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if m.ExpectationBounded() {
		t.Error("expectation should be unbounded at alpha=0.2, eps=0.3")
	}
	if !math.IsInf(m.ExpectedL1(CellInput{Count: 10}), 1) {
		t.Error("ExpectedL1 should be +Inf when expectation unbounded")
	}
	if !math.IsInf(m.Bias(10), 1) {
		t.Error("Bias should be +Inf when expectation unbounded")
	}
}

func TestLogLaplaceBiasMatchesLemma82(t *testing.T) {
	m, err := NewLogLaplace(0.1, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	in := CellInput{Count: 500}
	mean, _ := sampleMean(t, m, in, 400000, 3)
	wantMean := in.Count + m.Bias(in.Count)
	lam := m.Lambda()
	scale := (in.Count + m.Gamma()) * lam
	if math.Abs(mean-wantMean) > 0.03*scale {
		t.Errorf("mean = %v, Lemma 8.2 predicts %v", mean, wantMean)
	}
	if m.Bias(in.Count) <= 0 {
		t.Error("Log-Laplace bias should be positive (convexity)")
	}
}

func TestLogLaplaceExpectedL1Exact(t *testing.T) {
	m, err := NewLogLaplace(0.1, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	in := CellInput{Count: 200}
	_, l1 := sampleMean(t, m, in, 400000, 4)
	want := m.ExpectedL1(in)
	if math.Abs(l1-want)/want > 0.03 {
		t.Errorf("empirical L1 = %v, analytical = %v", l1, want)
	}
}

func TestLogLaplaceRelErrBound(t *testing.T) {
	// Theorem 8.3: the bound must dominate the exact shifted relative error.
	m, err := NewLogLaplace(0.1, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	if !m.RelativeErrorBounded() {
		t.Fatal("lambda should be < 1/2 here")
	}
	exact := m.ExactSquaredRelErrShifted()
	bound := m.ExpectedSquaredRelErrBound()
	if exact > bound {
		t.Errorf("exact %v exceeds Theorem 8.3 bound %v", exact, bound)
	}
	// Empirical check of the exact shifted relative error.
	in := CellInput{Count: 1000}
	s := dist.NewStreamFromSeed(6)
	const n = 400000
	g := m.Gamma()
	var sum float64
	for i := 0; i < n; i++ {
		v, err := m.ReleaseCell(in, s)
		if err != nil {
			t.Fatal(err)
		}
		r := (in.Count + g - (v + g)) / (in.Count + g)
		sum += r * r
	}
	if got := sum / n; math.Abs(got-exact)/exact > 0.1 {
		t.Errorf("empirical shifted rel err = %v, exact formula = %v", got, exact)
	}
}

func TestLogLaplaceValidation(t *testing.T) {
	if _, err := NewLogLaplace(0, 1); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := NewLogLaplace(0.1, 0); err == nil {
		t.Error("eps=0 accepted")
	}
	var zero LogLaplace
	if _, err := zero.ReleaseCell(CellInput{}, dist.NewStreamFromSeed(1)); err == nil {
		t.Error("zero-value LogLaplace released")
	}
}

func TestSmoothGammaUnbiasedAndScale(t *testing.T) {
	m, err := NewSmoothGamma(0.1, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	in := CellInput{Count: 1000, MaxContribution: 400}
	mean, l1 := sampleMean(t, m, in, 300000, 7)
	want := m.ExpectedL1(in)
	if math.Abs(mean-in.Count) > 0.05*want {
		t.Errorf("mean = %v, want %v (unbiased)", mean, in.Count)
	}
	if math.Abs(l1-want)/want > 0.05 {
		t.Errorf("L1 = %v, analytical %v", l1, want)
	}
}

func TestSmoothGammaSensitivityScalesWithXv(t *testing.T) {
	m, err := NewSmoothGamma(0.1, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	small := m.ExpectedL1(CellInput{Count: 1000, MaxContribution: 10})
	big := m.ExpectedL1(CellInput{Count: 1000, MaxContribution: 1000})
	// x_v=10: sens = max(1,1) = 1. x_v=1000: sens = 100. Ratio 100.
	if math.Abs(big/small-100) > 1e-9 {
		t.Errorf("error ratio = %v, want 100", big/small)
	}
}

func TestSmoothGammaValidityRegion(t *testing.T) {
	// Paper: values of alpha and eps with alpha+1 >= e^(eps/5) are not allowed.
	if _, err := NewSmoothGamma(0.1, 0.25); err == nil {
		t.Error("SmoothGamma accepted alpha=0.1, eps=0.25")
	}
	if _, err := NewSmoothGamma(0.2, 0.67); err == nil {
		t.Error("SmoothGamma accepted alpha=0.2, eps=0.67 (needs eps > 5 ln 1.2 = 0.91)")
	}
	if _, err := NewSmoothGamma(0.01, 0.25); err != nil {
		t.Errorf("SmoothGamma rejected valid alpha=0.01, eps=0.25: %v", err)
	}
	var zero SmoothGamma
	if _, err := zero.ReleaseCell(CellInput{}, dist.NewStreamFromSeed(1)); err == nil {
		t.Error("zero-value SmoothGamma released")
	}
}

func TestSmoothGammaWithSplitDefaultIsOptimal(t *testing.T) {
	// The default split (smallest valid eps2) must have the smallest
	// expected error among valid splits.
	alpha, eps := 0.1, 2.0
	def, err := NewSmoothGamma(alpha, eps)
	if err != nil {
		t.Fatal(err)
	}
	in := CellInput{Count: 500, MaxContribution: 200}
	defErr := def.ExpectedL1(in)
	for _, extra := range []float64{0.1, 0.3, 0.6, 1.0} {
		alt, err := SmoothGammaWithSplit(alpha, eps, def.Split().Eps2+extra)
		if err != nil {
			t.Fatalf("split +%v: %v", extra, err)
		}
		if alt.ExpectedL1(in) <= defErr {
			t.Errorf("split eps2+%v has error %v <= default %v", extra, alt.ExpectedL1(in), defErr)
		}
	}
}

func TestSmoothGammaWithSplitValidation(t *testing.T) {
	if _, err := SmoothGammaWithSplit(0.1, 2.0, 2.0); err == nil {
		t.Error("split using whole budget for eps2 accepted")
	}
	if _, err := SmoothGammaWithSplit(0.1, 2.0, 0.01); err == nil {
		t.Error("split with eps2 too small for boundedness accepted")
	}
}

func TestSmoothLaplaceUnbiasedAndScale(t *testing.T) {
	m, err := NewSmoothLaplace(0.1, 2.0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	in := CellInput{Count: 1000, MaxContribution: 400}
	mean, l1 := sampleMean(t, m, in, 300000, 8)
	want := m.ExpectedL1(in)
	// sens = 40, a = 1 => scale 40, E|noise| = 40.
	if math.Abs(want-40) > 1e-9 {
		t.Errorf("analytical L1 = %v, want 40", want)
	}
	if math.Abs(mean-in.Count) > 0.05*want {
		t.Errorf("mean = %v, want %v", mean, in.Count)
	}
	if math.Abs(l1-want)/want > 0.05 {
		t.Errorf("L1 = %v, analytical %v", l1, want)
	}
}

func TestSmoothLaplaceErrorIndependentOfDelta(t *testing.T) {
	// Section 9: the error of Algorithm 3 does not depend on delta.
	a, err := NewSmoothLaplace(0.1, 2.0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSmoothLaplace(0.1, 2.0, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	in := CellInput{Count: 100, MaxContribution: 50}
	if a.ExpectedL1(in) != b.ExpectedL1(in) {
		t.Errorf("error depends on delta: %v vs %v", a.ExpectedL1(in), b.ExpectedL1(in))
	}
}

func TestSmoothLaplaceValidityRegion(t *testing.T) {
	// Table 2: at delta=0.05, alpha=0.2 requires eps >= ~1.09.
	if _, err := NewSmoothLaplace(0.2, 1.0, 0.05); err == nil {
		t.Error("SmoothLaplace accepted eps below Table 2 minimum")
	}
	if _, err := NewSmoothLaplace(0.2, 1.2, 0.05); err != nil {
		t.Errorf("SmoothLaplace rejected valid parameters: %v", err)
	}
	var zero SmoothLaplace
	if _, err := zero.ReleaseCell(CellInput{}, dist.NewStreamFromSeed(1)); err == nil {
		t.Error("zero-value SmoothLaplace released")
	}
}

func TestSmoothMechsBeatLogLaplaceOnSmallXv(t *testing.T) {
	// The smooth mechanisms adapt to x_v; Log-Laplace noise scales with the
	// cell total. On a large cell made of many small establishments the
	// smooth mechanisms should win decisively.
	alpha, eps := 0.1, 2.0
	ll, err := NewLogLaplace(alpha, eps)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := NewSmoothGamma(alpha, eps)
	if err != nil {
		t.Fatal(err)
	}
	in := CellInput{Count: 10000, MaxContribution: 20}
	if sg.ExpectedL1(in) >= ll.ExpectedL1(in) {
		t.Errorf("SmoothGamma %v >= LogLaplace %v on many-small-establishments cell",
			sg.ExpectedL1(in), ll.ExpectedL1(in))
	}
}

func TestReleaseCellsDeterministicPerCell(t *testing.T) {
	m, err := NewPureLaplace(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cells := []CellInput{{Count: 1}, {Count: 2}, {Count: 3}}
	a, err := ReleaseCells(m, cells, dist.NewStreamFromSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReleaseCells(m, cells, dist.NewStreamFromSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cell %d not deterministic", i)
		}
	}
	if a[0] == a[1] && a[1] == a[2] {
		t.Error("all cells received identical noise")
	}
}

func TestTruncatedLaplaceValidation(t *testing.T) {
	if _, err := NewTruncatedLaplace(0, 10); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := NewTruncatedLaplace(1, 0); err == nil {
		t.Error("theta=0 accepted")
	}
	if _, err := NewTruncatedLaplace(2, 100); err != nil {
		t.Fatal(err)
	}
}

// TestLaplaceScaleBound: the Laplace mechanisms refuse a noise scale
// whose draws could overflow float64, and at the largest accepted scale
// the most extreme draw the sampler can make, added to a count just
// below 2⁶³, is still finite.
func TestLaplaceScaleBound(t *testing.T) {
	if _, err := NewEdgeLaplace(1e-320); err == nil {
		t.Error("edge-laplace at eps=1e-320 (infinite scale) accepted")
	}
	if _, err := NewPureLaplace(1e-300, 1e10); err == nil {
		t.Error("Laplace at scale 1e310 accepted")
	}
	if _, err := NewTruncatedLaplace(1e-320, 10); err == nil {
		t.Error("truncated-laplace at eps=1e-320 accepted")
	}
	if _, err := NewTruncatedLaplace(1e-300, 1_000_000_000); err == nil {
		t.Error("truncated-laplace at scale 1e309 accepted")
	}
	if _, err := NewPureLaplace(1, maxLaplaceScale); err != nil {
		t.Errorf("Laplace at the largest accepted scale refused: %v", err)
	}
	if _, err := NewPureLaplace(1, math.Nextafter(maxLaplaceScale, math.Inf(1))); err == nil {
		t.Error("Laplace just past the largest accepted scale accepted")
	}
	l := dist.NewLaplace(maxLaplaceScale)
	for _, p := range []float64{0x1p-53, 1 - 0x1p-53} {
		if v := float64(math.MaxInt64) + l.Quantile(p); math.IsInf(v, 0) || math.IsNaN(v) {
			t.Errorf("count 2^63 + draw at p=%v = %v, want finite", p, v)
		}
	}
}
