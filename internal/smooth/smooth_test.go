package smooth

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dist"
)

func TestLocalSensitivity(t *testing.T) {
	cases := []struct {
		xv    int64
		alpha float64
		want  float64
	}{
		{0, 0.1, 1},      // empty cell: adding one worker changes count by 1
		{5, 0.1, 1},      // 5*0.1 = 0.5 < 1, the +1-worker neighbor dominates
		{100, 0.1, 10},   // x_v*alpha dominates
		{1000, 0.05, 50}, // large establishment
		{10, 0, 1},       // alpha=0 reduces to worker-level sensitivity
	}
	for _, c := range cases {
		if got := LocalSensitivity(c.xv, c.alpha); got != c.want {
			t.Errorf("LocalSensitivity(%d, %v) = %v, want %v", c.xv, c.alpha, got, c.want)
		}
	}
}

func TestSensitivityAtDistance(t *testing.T) {
	// A^(j) = max(xv*alpha*(1+alpha)^j, 1): geometric growth with distance.
	xv, alpha := int64(100), 0.1
	for j := 0; j < 5; j++ {
		want := 100 * 0.1 * math.Pow(1.1, float64(j))
		if got := SensitivityAtDistance(xv, alpha, j); math.Abs(got-want) > 1e-9 {
			t.Errorf("A^(%d) = %v, want %v", j, got, want)
		}
	}
	if got := SensitivityAtDistance(0, 0.1, 3); got != 1 {
		t.Errorf("A^(3) for empty cell = %v, want 1", got)
	}
}

func TestSensitivityBoundedIff(t *testing.T) {
	// Lemma 8.5: bounded iff e^b >= 1+alpha.
	alpha := 0.1
	bOK := math.Log(1 + alpha)
	if _, err := Sensitivity(50, alpha, bOK); err != nil {
		t.Errorf("Sensitivity at exact boundary errored: %v", err)
	}
	if _, err := Sensitivity(50, alpha, bOK*0.999); err == nil {
		t.Error("Sensitivity below boundary did not error")
	}
	var ub ErrUnboundedSensitivity
	_, err := Sensitivity(50, alpha, 0.001)
	if !errors.As(err, &ub) {
		t.Errorf("error type = %T, want ErrUnboundedSensitivity", err)
	}
	if ub.Error() == "" {
		t.Error("empty error message")
	}
}

func TestSensitivityValue(t *testing.T) {
	got, err := Sensitivity(200, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 20 {
		t.Errorf("S* = %v, want 20", got)
	}
}

func TestSmoothSensitivityIsSupremum(t *testing.T) {
	// Property: S* = max_j e^{-jb} A^(j) whenever e^b >= 1+alpha. The
	// supremum is attained at j=0 because e^{-b}(1+alpha) <= 1.
	f := func(xvRaw uint16, alphaRaw, slack uint8) bool {
		xv := int64(xvRaw)
		alpha := 0.01 + float64(alphaRaw%20)/100
		b := math.Log(1+alpha) + float64(slack)/100
		s, err := Sensitivity(xv, alpha, b)
		if err != nil {
			return false
		}
		sup := 0.0
		for j := 0; j <= 60; j++ {
			v := math.Exp(-float64(j)*b) * SensitivityAtDistance(xv, alpha, j)
			if v > sup {
				sup = v
			}
		}
		return math.Abs(s-sup) < 1e-9*math.Max(1, sup)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGammaSplit(t *testing.T) {
	eps, alpha := 2.0, 0.1
	sp, err := GammaSplit(eps, alpha)
	if err != nil {
		t.Fatal(err)
	}
	wantEps2 := 5 * math.Log(1.1)
	if math.Abs(sp.Eps2-wantEps2) > 1e-12 {
		t.Errorf("eps2 = %v, want %v", sp.Eps2, wantEps2)
	}
	if math.Abs(sp.Eps1+sp.Eps2-eps) > 1e-12 {
		t.Errorf("eps1+eps2 = %v, want %v", sp.Eps1+sp.Eps2, eps)
	}
	if math.Abs(sp.A-sp.Eps1/5) > 1e-12 {
		t.Errorf("a = %v, want eps1/5 = %v", sp.A, sp.Eps1/5)
	}
	// b must exactly satisfy the boundedness boundary e^b = 1+alpha.
	if math.Abs(math.Exp(sp.B)-(1+alpha)) > 1e-12 {
		t.Errorf("e^b = %v, want 1+alpha = %v", math.Exp(sp.B), 1+alpha)
	}
	if _, err := Sensitivity(100, alpha, sp.B); err != nil {
		t.Errorf("GammaSplit produced a b with unbounded sensitivity: %v", err)
	}
}

func TestGammaSplitValidityRegion(t *testing.T) {
	// Requires alpha+1 < e^{eps/5}.
	if _, err := GammaSplit(0.25, 0.1); err == nil {
		t.Error("GammaSplit accepted eps=0.25, alpha=0.1 (1.1 >= e^0.05)")
	}
	if _, err := GammaSplit(1.0, 0.1); err != nil {
		t.Errorf("GammaSplit rejected valid eps=1, alpha=0.1: %v", err)
	}
	if _, err := GammaSplit(-1, 0.1); err == nil {
		t.Error("negative eps accepted")
	}
	if _, err := GammaSplit(1, -0.1); err == nil {
		t.Error("negative alpha accepted")
	}
	// Boundary: alpha+1 == e^{eps/5} exactly must be rejected (strict <).
	alpha := 0.1
	eps := 5 * math.Log(1+alpha)
	if _, err := GammaSplit(eps, alpha); err == nil {
		t.Error("GammaSplit accepted the boundary where eps1 = 0")
	}
}

// TestGammaSplitFloatEdge sweeps α = 0.01…1.00 at ε = 20, where every
// α is inside Algorithm 2's validity region. For some α (0.3, 0.58, …)
// 5·ln(1+α) rounds low enough that e^{ε₂/5} < 1+α; the split must still
// bound the smooth sensitivity of every cell. Where the formula already
// holds, the split must be exactly the formula's, bit for bit.
func TestGammaSplitFloatEdge(t *testing.T) {
	const eps = 20.0
	n := GenCauchyNoise{}
	edges := 0
	for i := 1; i <= 100; i++ {
		alpha := float64(i) / 100
		sp, err := GammaSplit(eps, alpha)
		if err != nil {
			t.Fatalf("alpha=%v: %v", alpha, err)
		}
		for _, xv := range []int64{0, 1, 1e6} {
			if _, err := Sensitivity(xv, alpha, sp.B); err != nil {
				t.Fatalf("alpha=%v x_v=%d: %v", alpha, xv, err)
			}
		}
		if !(sp.Eps1 > 0) || sp.Eps1 != eps-sp.Eps2 || sp.A != n.SlideBound(sp.Eps1) || sp.B != n.DilateBound(sp.Eps2) {
			t.Fatalf("alpha=%v: inconsistent split %+v", alpha, sp)
		}
		// A budget of exactly ε₂ leaves no ε₁ and must be refused.
		if _, err := GammaSplit(sp.Eps2, alpha); err == nil {
			t.Errorf("alpha=%v: eps = eps2 = %v accepted with no sliding budget", alpha, sp.Eps2)
		}
		formula := 5 * math.Log(1+alpha)
		if math.Exp(n.DilateBound(formula)) < 1+alpha {
			edges++
			if !(sp.Eps2 > formula) {
				t.Errorf("alpha=%v: eps2 = %v, want above the rounded formula %v", alpha, sp.Eps2, formula)
			}
			continue
		}
		if math.Float64bits(sp.Eps2) != math.Float64bits(formula) {
			t.Errorf("alpha=%v: eps2 = %v, want the formula's %v bit for bit", alpha, sp.Eps2, formula)
		}
	}
	if edges == 0 {
		t.Error("no α in the sweep hits the float edge; the sweep no longer tests it")
	}
}

func TestLaplaceSplit(t *testing.T) {
	eps, delta, alpha := 2.0, 0.05, 0.1
	sp, err := LaplaceSplit(eps, delta, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if sp.A != 1.0 {
		t.Errorf("a = %v, want eps/2 = 1", sp.A)
	}
	wantB := eps / (2 * math.Log(1/delta))
	if math.Abs(sp.B-wantB) > 1e-12 {
		t.Errorf("b = %v, want %v", sp.B, wantB)
	}
}

func TestLaplaceSplitValidityRegion(t *testing.T) {
	// eps must be at least 2 ln(1/delta) ln(1+alpha).
	alpha, delta := 0.1, 0.05
	minEps := MinEpsilonLaplace(alpha, delta)
	if _, err := LaplaceSplit(minEps*0.99, delta, alpha); err == nil {
		t.Error("LaplaceSplit accepted eps below the minimum")
	}
	if _, err := LaplaceSplit(minEps*1.01, delta, alpha); err != nil {
		t.Errorf("LaplaceSplit rejected eps above the minimum: %v", err)
	}
	if _, err := LaplaceSplit(1, 0, alpha); err == nil {
		t.Error("delta=0 accepted")
	}
	if _, err := LaplaceSplit(1, 1, alpha); err == nil {
		t.Error("delta=1 accepted")
	}
}

func TestMinEpsilonLaplaceTable2(t *testing.T) {
	// Table 2's delta=5e-4 rows match the formula eps = 2 ln(1/delta) ln(1+alpha).
	cases := []struct {
		alpha, delta, want, tol float64
	}{
		{0.01, 5e-4, 0.15, 0.01},
		{0.10, 5e-4, 1.45, 0.01},
	}
	for _, c := range cases {
		got := MinEpsilonLaplace(c.alpha, c.delta)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("MinEpsilonLaplace(%v, %v) = %v, want %v±%v", c.alpha, c.delta, got, c.want, c.tol)
		}
	}
	// Monotonicity: larger alpha needs larger eps; smaller delta needs larger eps.
	if MinEpsilonLaplace(0.2, 0.05) <= MinEpsilonLaplace(0.1, 0.05) {
		t.Error("min eps not increasing in alpha")
	}
	if MinEpsilonLaplace(0.1, 5e-4) <= MinEpsilonLaplace(0.1, 0.05) {
		t.Error("min eps not decreasing in delta")
	}
}

func TestReleaseUnbiasedGamma(t *testing.T) {
	sp, err := GammaSplit(2.0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	s := dist.NewStreamFromSeed(1)
	noise := GenCauchyNoise{}
	const n = 200000
	count, sens := 500.0, 20.0
	var sum float64
	for i := 0; i < n; i++ {
		sum += Release(count, sens, sp, noise, s)
	}
	mean := sum / n
	scale := sens / sp.A
	if math.Abs(mean-count) > 0.05*scale {
		t.Errorf("mean release = %v, want %v (unbiased, Lemma 8.8)", mean, count)
	}
}

func TestReleaseUnbiasedLaplace(t *testing.T) {
	sp, err := LaplaceSplit(2.0, 0.05, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	s := dist.NewStreamFromSeed(2)
	noise := NewLaplaceNoise(0.05)
	const n = 200000
	count, sens := 500.0, 20.0
	var sum float64
	for i := 0; i < n; i++ {
		sum += Release(count, sens, sp, noise, s)
	}
	mean := sum / n
	scale := sens / sp.A
	if math.Abs(mean-count) > 0.05*scale {
		t.Errorf("mean release = %v, want %v (unbiased, Lemma 9.3)", mean, count)
	}
}

func TestExpectedL1MatchesEmpirical(t *testing.T) {
	sp, err := GammaSplit(2.0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	noise := GenCauchyNoise{}
	s := dist.NewStreamFromSeed(3)
	const n = 300000
	count, sens := 100.0, 15.0
	var sumAbs float64
	for i := 0; i < n; i++ {
		sumAbs += math.Abs(Release(count, sens, sp, noise, s) - count)
	}
	got := sumAbs / n
	want := ExpectedL1(sens, sp, noise)
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("empirical L1 = %v, analytical = %v", got, want)
	}
}

func TestExpectedL1ScalesAsLemma88(t *testing.T) {
	// Lemma 8.8: expected L1 error is O(xv*alpha/eps + 1/eps): doubling eps
	// (with alpha fixed and eps large) roughly halves the error.
	alpha := 0.05
	noise := GenCauchyNoise{}
	spA, err := GammaSplit(4, alpha)
	if err != nil {
		t.Fatal(err)
	}
	spB, err := GammaSplit(8, alpha)
	if err != nil {
		t.Fatal(err)
	}
	sens := LocalSensitivity(1000, alpha)
	ratio := ExpectedL1(sens, spA, noise) / ExpectedL1(sens, spB, noise)
	// eps1 = eps - 5 ln(1+alpha); ratio = eps1B/eps1A.
	want := spB.Eps1 / spA.Eps1
	if math.Abs(ratio-want) > 1e-9 {
		t.Errorf("error ratio = %v, want %v", ratio, want)
	}
	if ratio < 1.9 {
		t.Errorf("doubling eps only improved error by %vx", ratio)
	}
}

func TestSmoothGammaEndToEndPrivacyRatio(t *testing.T) {
	// Empirical Theorem 8.4 check on a pair of strong alpha-neighbors:
	// count x vs count (1+alpha)x with x = x_v (the whole cell is one
	// establishment). Released density ratio at any output must be <= e^eps.
	eps, alpha := 2.0, 0.1
	sp, err := GammaSplit(eps, alpha)
	if err != nil {
		t.Fatal(err)
	}
	x := 1000.0
	xv := int64(x)
	sensX, err := Sensitivity(xv, alpha, sp.B)
	if err != nil {
		t.Fatal(err)
	}
	y := x * (1 + alpha)
	sensY, err := Sensitivity(int64(y), alpha, sp.B)
	if err != nil {
		t.Fatal(err)
	}
	g := dist.GenCauchy{}
	scaleX := sensX / sp.A
	scaleY := sensY / sp.A
	// Density of the released value o under each input.
	densX := func(o float64) float64 { return g.PDF((o-x)/scaleX) / scaleX }
	densY := func(o float64) float64 { return g.PDF((o-y)/scaleY) / scaleY }
	for o := -2000.0; o <= 5000.0; o += 13.7 {
		r := densX(o) / densY(o)
		if r > math.Exp(eps)*(1+1e-6) || 1/r > math.Exp(eps)*(1+1e-6) {
			t.Fatalf("density ratio %v at output %v exceeds e^eps = %v", r, o, math.Exp(eps))
		}
	}
}

func TestNoiseNames(t *testing.T) {
	if (GenCauchyNoise{}).Name() == "" {
		t.Error("GenCauchyNoise name empty")
	}
	if NewLaplaceNoise(0.05).Name() == "" {
		t.Error("LaplaceNoise name empty")
	}
	if NewLaplaceNoise(0.05).Delta() != 0.05 {
		t.Error("LaplaceNoise delta wrong")
	}
	if (GenCauchyNoise{}).Delta() != 0 {
		t.Error("GenCauchyNoise delta should be 0")
	}
}

func TestReleasePanics(t *testing.T) {
	sp := Split{A: 0}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Release with a=0 did not panic")
			}
		}()
		Release(1, 1, sp, GenCauchyNoise{}, dist.NewStreamFromSeed(1))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Release with negative sensitivity did not panic")
			}
		}()
		Release(1, -1, Split{A: 1}, GenCauchyNoise{}, dist.NewStreamFromSeed(1))
	}()
}
