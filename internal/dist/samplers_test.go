package dist

import (
	"math"
	"testing"
)

// drawN collects n draws from a sampler.
func drawN(n int, seed int64, sample func(*Stream) float64) []float64 {
	s := NewStreamFromSeed(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = sample(s)
	}
	return out
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func variance(xs []float64) float64 {
	m := mean(xs)
	var sum float64
	for _, x := range xs {
		sum += (x - m) * (x - m)
	}
	return sum / float64(len(xs))
}

// --- Laplace ---

func TestLaplaceMoments(t *testing.T) {
	l := NewLaplace(2)
	xs := drawN(100_000, 20, l.Sample)
	if m := mean(xs); math.Abs(m) > 0.05 {
		t.Errorf("Laplace(2) mean = %v, want 0", m)
	}
	if v := variance(xs); math.Abs(v-l.Variance()) > 0.3 {
		t.Errorf("Laplace(2) variance = %v, want %v", v, l.Variance())
	}
	var absSum float64
	for _, x := range xs {
		absSum += math.Abs(x)
	}
	if ma := absSum / float64(len(xs)); math.Abs(ma-l.MeanAbs()) > 0.05 {
		t.Errorf("Laplace(2) E|X| = %v, want %v", ma, l.MeanAbs())
	}
}

func TestLaplaceKS(t *testing.T) {
	l := NewLaplace(1.5)
	xs := drawN(20_000, 21, l.Sample)
	_, p, err := KolmogorovSmirnov(xs, l.CDF)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-4 {
		t.Errorf("KS p-value %v: Laplace sampler does not match its CDF", p)
	}
}

func TestLaplaceQuantileInvertsCDF(t *testing.T) {
	l := NewLaplace(3)
	for _, p := range []float64{0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999} {
		q := l.Quantile(p)
		if got := l.CDF(q); math.Abs(got-p) > 1e-12 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
	if q := l.Quantile(0.5); q != 0 {
		t.Errorf("median = %v, want 0", q)
	}
}

func TestLaplacePDFIsDensityOfCDF(t *testing.T) {
	l := NewLaplace(0.7)
	for x := -5.0; x <= 5.0; x += 0.37 {
		h := 1e-6
		numeric := (l.CDF(x+h) - l.CDF(x-h)) / (2 * h)
		if math.Abs(numeric-l.PDF(x)) > 1e-5 {
			t.Errorf("PDF(%v) = %v, CDF derivative = %v", x, l.PDF(x), numeric)
		}
	}
}

func TestLaplacePanics(t *testing.T) {
	for _, b := range []float64{0, -1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLaplace(%v) did not panic", b)
				}
			}()
			NewLaplace(b)
		}()
	}
	l := NewLaplace(1)
	for _, p := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(%v) did not panic", p)
				}
			}()
			l.Quantile(p)
		}()
	}
}

// --- GenCauchy ---

func TestGenCauchyPDFNormalized(t *testing.T) {
	g := GenCauchy{}
	// Trapezoidal integral over [-60, 60] plus the analytic tail bound.
	var integral float64
	h := 0.001
	for x := -60.0; x < 60.0; x += h {
		integral += h * (g.PDF(x) + g.PDF(x+h)) / 2
	}
	tail := 2 * gcNorm / (3 * math.Pow(60, 3))
	if math.Abs(integral+tail-1) > 1e-4 {
		t.Errorf("PDF integrates to %v, want 1", integral+tail)
	}
}

func TestGenCauchyCDF(t *testing.T) {
	g := GenCauchy{}
	if got := g.CDF(0); math.Abs(got-0.5) > 1e-15 {
		t.Errorf("CDF(0) = %v, want 0.5", got)
	}
	for x := -8.0; x <= 8.0; x += 0.53 {
		if s := g.CDF(x) + g.CDF(-x); math.Abs(s-1) > 1e-12 {
			t.Errorf("CDF(%v)+CDF(%v) = %v, want 1 (symmetry)", x, -x, s)
		}
		h := 1e-6
		numeric := (g.CDF(x+h) - g.CDF(x-h)) / (2 * h)
		if math.Abs(numeric-g.PDF(x)) > 1e-5 {
			t.Errorf("CDF derivative at %v = %v, PDF = %v", x, numeric, g.PDF(x))
		}
	}
	if g.CDF(-100) > 1e-6 || g.CDF(100) < 1-1e-6 {
		t.Error("CDF tails do not approach 0 and 1")
	}
}

func TestGenCauchyQuantileInvertsCDF(t *testing.T) {
	g := GenCauchy{}
	for _, p := range []float64{1e-6, 0.01, 0.2, 0.5, 0.8, 0.99, 1 - 1e-6} {
		q := g.Quantile(p)
		if got := g.CDF(q); math.Abs(got-p) > 1e-10 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

func TestGenCauchyCDFExtremes(t *testing.T) {
	// Far in the tails the CDF must stay inside [0,1], never go NaN
	// (z⁴ overflows past ~1.3e77), and remain usable by the KS helper,
	// which rejects any CDF value outside [0,1].
	g := GenCauchy{}
	for _, z := range []float64{1e5, 1e6, 1e7, 1e77, 1e200, math.MaxFloat64} {
		for _, x := range []float64{z, -z} {
			f := g.CDF(x)
			if math.IsNaN(f) || f < 0 || f > 1 {
				t.Errorf("CDF(%v) = %v outside [0,1]", x, f)
			}
		}
		if g.CDF(z) <= 0.999 || g.CDF(-z) >= 0.001 {
			t.Errorf("CDF tails wrong at |z| = %v", z)
		}
	}
	// Continuity across the closed-form/series switchover at 1e4: the
	// survival function from the two branches must agree to well under
	// a relative 1e-3 (the closed form's cancellation error there).
	above, below := g.sf(1e4-0.5), g.sf(1e4+0.5)
	if below > above || (above-below)/above > 1e-3 {
		t.Errorf("sf jump across switchover: %v -> %v", above, below)
	}
}

func TestGenCauchyQuantileExtremes(t *testing.T) {
	// The smallest and largest probabilities the sampler can produce
	// (2⁻⁵³ and 1−2⁻⁵³), and beyond, must invert to finite values.
	g := GenCauchy{}
	eps := math.Ldexp(1, -53)
	for _, p := range []float64{eps, 1 - eps, 1e-300, 1 - 1e-16} {
		q := g.Quantile(p)
		if math.IsInf(q, 0) || math.IsNaN(q) {
			t.Errorf("Quantile(%v) = %v, want finite", p, q)
		}
		if (p < 0.5) != (q < 0) {
			t.Errorf("Quantile(%v) = %v on the wrong side of the median", p, q)
		}
	}
}

func TestGenCauchyMeanAbs(t *testing.T) {
	g := GenCauchy{}
	if math.Abs(g.MeanAbs()-1/math.Sqrt2) > 1e-15 {
		t.Errorf("MeanAbs = %v, want 1/sqrt(2)", g.MeanAbs())
	}
	xs := drawN(200_000, 22, g.Sample)
	var absSum float64
	for _, x := range xs {
		absSum += math.Abs(x)
	}
	if ma := absSum / float64(len(xs)); math.Abs(ma-g.MeanAbs()) > 0.02 {
		t.Errorf("empirical E|Z| = %v, want %v", ma, g.MeanAbs())
	}
}

func TestGenCauchyKS(t *testing.T) {
	g := GenCauchy{}
	xs := drawN(20_000, 23, g.Sample)
	_, p, err := KolmogorovSmirnov(xs, g.CDF)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-4 {
		t.Errorf("KS p-value %v: GenCauchy sampler does not match its CDF", p)
	}
}

// --- LogNormal ---

func TestLogNormalStats(t *testing.T) {
	l := NewLogNormal(2, 1)
	xs := drawN(200_000, 24, l.Sample)
	if m := mean(xs); math.Abs(m-l.Mean()) > 0.3 {
		t.Errorf("LogNormal(2,1) mean = %v, want %v", m, l.Mean())
	}
	_, p, err := KolmogorovSmirnov(xs[:20_000], l.CDF)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-4 {
		t.Errorf("KS p-value %v: LogNormal sampler does not match its CDF", p)
	}
	if med := l.Median(); math.Abs(med-math.Exp(2)) > 1e-12 {
		t.Errorf("median = %v, want e^2", med)
	}
}

func TestLogNormalDegenerateSigma(t *testing.T) {
	l := NewLogNormal(1, 0)
	s := NewStreamFromSeed(25)
	for i := 0; i < 10; i++ {
		if got := l.Sample(s); got != math.E {
			t.Fatalf("sigma=0 sample = %v, want e", got)
		}
	}
	if l.CDF(math.E-0.001) != 0 || l.CDF(math.E+0.001) != 1 {
		t.Error("sigma=0 CDF is not a step at e^mu")
	}
}

func TestLogNormalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewLogNormal(0, -1) did not panic")
		}
	}()
	NewLogNormal(0, -1)
}

// --- Pareto ---

func TestParetoStats(t *testing.T) {
	p := NewPareto(200, 1.3)
	xs := drawN(200_000, 26, p.Sample)
	for _, x := range xs[:1000] {
		if x < p.Xm {
			t.Fatalf("Pareto draw %v below xm %v", x, p.Xm)
		}
	}
	// alpha=1.3 has a finite but very noisy mean; check the median instead:
	// median = xm * 2^(1/alpha).
	sorted := append([]float64(nil), xs...)
	wantMedian := p.Xm * math.Pow(2, 1/p.Alpha)
	var above int
	for _, x := range sorted {
		if x > wantMedian {
			above++
		}
	}
	frac := float64(above) / float64(len(sorted))
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("fraction above theoretical median = %v, want 0.5", frac)
	}
	_, pv, err := KolmogorovSmirnov(xs[:20_000], p.CDF)
	if err != nil {
		t.Fatal(err)
	}
	if pv < 1e-4 {
		t.Errorf("KS p-value %v: Pareto sampler does not match its CDF", pv)
	}
}

func TestParetoMean(t *testing.T) {
	if m := NewPareto(200, 1.3).Mean(); math.Abs(m-200*1.3/0.3) > 1e-9 {
		t.Errorf("Pareto mean = %v", m)
	}
	if m := NewPareto(1, 0.9).Mean(); !math.IsInf(m, 1) {
		t.Errorf("Pareto(alpha=0.9) mean = %v, want +Inf", m)
	}
}

func TestParetoPanics(t *testing.T) {
	for _, args := range [][2]float64{{0, 1}, {1, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPareto(%v, %v) did not panic", args[0], args[1])
				}
			}()
			NewPareto(args[0], args[1])
		}()
	}
}

// --- SkewedSize ---

func TestSkewedSizeShape(t *testing.T) {
	m := NewSkewedSize(NewLogNormal(2.0, 1.0), NewPareto(200, 1.3), 0.01)
	s := NewStreamFromSeed(27)
	n := 100_000
	sizes := make([]int, n)
	sum, maxSize := 0, 0
	for i := range sizes {
		v := m.Sample(s)
		if v < 1 {
			t.Fatalf("size %d < 1", v)
		}
		sizes[i] = v
		sum += v
		if v > maxSize {
			maxSize = v
		}
	}
	// The continuous mixture mean is ~20.7 (the paper's jobs per
	// establishment); rounding and the Pareto tail's noise widen the band.
	empMean := float64(sum) / float64(n)
	if empMean < 12 || empMean > 32 {
		t.Errorf("mixture mean = %v, want near %v", empMean, m.Mean())
	}
	if maxSize < 500 {
		t.Errorf("max size %d: Pareto tail missing", maxSize)
	}
	// Right skew: mean well above median.
	count := 0
	for _, v := range sizes {
		if float64(v) < empMean {
			count++
		}
	}
	if frac := float64(count) / float64(n); frac < 0.6 {
		t.Errorf("only %v of sizes below the mean: not right-skewed", frac)
	}
}

func TestSkewedSizeMean(t *testing.T) {
	m := NewSkewedSize(NewLogNormal(2.0, 1.0), NewPareto(200, 1.3), 0.01)
	want := 0.99*math.Exp(2.5) + 0.01*(200*1.3/0.3)
	if math.Abs(m.Mean()-want) > 1e-9 {
		t.Errorf("SkewedSize mean = %v, want %v", m.Mean(), want)
	}
}

func TestSkewedSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSkewedSize with tailProb=1.5 did not panic")
		}
	}()
	NewSkewedSize(NewLogNormal(0, 1), NewPareto(1, 2), 1.5)
}

// --- GapUniform ---

func TestGapUniformBand(t *testing.T) {
	g := NewGapUniform(0.1, 0.25)
	s := NewStreamFromSeed(28)
	below, above := 0, 0
	var sum float64
	n := 50_000
	for i := 0; i < n; i++ {
		f := g.Sample(s)
		if !g.Contains(f) {
			t.Fatalf("sample %v outside band", f)
		}
		if f < 1 {
			below++
		} else {
			above++
		}
		sum += f
	}
	if below == 0 || above == 0 {
		t.Fatalf("one-sided samples: %d below, %d above", below, above)
	}
	if ratio := float64(below) / float64(n); math.Abs(ratio-0.5) > 0.02 {
		t.Errorf("fraction below 1 = %v, want 0.5", ratio)
	}
	if m := sum / float64(n); math.Abs(m-1) > 0.005 {
		t.Errorf("mean factor = %v, want 1", m)
	}
}

func TestGapUniformContains(t *testing.T) {
	g := NewGapUniform(0.1, 0.25)
	for _, f := range []float64{1, 0.95, 1.05, 0.7, 1.3} {
		if g.Contains(f) {
			t.Errorf("Contains(%v) = true, want false", f)
		}
	}
	for _, f := range []float64{0.9, 0.75, 1.1, 1.25} {
		if !g.Contains(f) {
			t.Errorf("Contains(%v) = false, want true", f)
		}
	}
}

func TestGapUniformPanics(t *testing.T) {
	for _, args := range [][2]float64{{0, 0.2}, {0.3, 0.2}, {0.2, 0.2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGapUniform(%v, %v) did not panic", args[0], args[1])
				}
			}()
			NewGapUniform(args[0], args[1])
		}()
	}
}

// --- KolmogorovSmirnov ---

func TestKSErrors(t *testing.T) {
	if _, _, err := KolmogorovSmirnov([]float64{1, 2, 3}, func(float64) float64 { return 0.5 }); err == nil {
		t.Error("short sample accepted")
	}
	if _, _, err := KolmogorovSmirnov(make([]float64, 100), nil); err == nil {
		t.Error("nil CDF accepted")
	}
	bad := func(float64) float64 { return 2 }
	if _, _, err := KolmogorovSmirnov(make([]float64, 100), bad); err == nil {
		t.Error("CDF value outside [0,1] accepted")
	}
}

func TestKSRejectsWrongDistribution(t *testing.T) {
	// Standard normal draws tested against the uniform CDF must fail hard.
	xs := drawN(5_000, 29, (*Stream).NormFloat64)
	uniformCDF := func(x float64) float64 {
		if x < 0 {
			return 0
		}
		if x > 1 {
			return 1
		}
		return x
	}
	stat, p, err := KolmogorovSmirnov(xs, uniformCDF)
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-10 || stat < 0.2 {
		t.Errorf("KS failed to reject: stat=%v p=%v", stat, p)
	}
}

func TestKSPerfectFitPValueIsOne(t *testing.T) {
	// A sample of exact quantiles has D ~ 1/(2n), i.e. tiny lambda;
	// the p-value must be ~1, not an artifact of series truncation.
	l := NewLaplace(1)
	n := 10_000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = l.Quantile((float64(i) + 0.5) / float64(n))
	}
	stat, p, err := KolmogorovSmirnov(xs, l.CDF)
	if err != nil {
		t.Fatal(err)
	}
	if stat > 1e-3 {
		t.Errorf("KS stat %v for exact quantiles, want ~1/(2n)", stat)
	}
	if p < 0.999 {
		t.Errorf("KS p-value %v for a perfect fit, want ~1", p)
	}
}

func TestKSAcceptsExactFit(t *testing.T) {
	l := NewLaplace(1)
	xs := drawN(10_000, 30, l.Sample)
	stat, p, err := KolmogorovSmirnov(xs, l.CDF)
	if err != nil {
		t.Fatal(err)
	}
	if stat > 0.05 {
		t.Errorf("KS stat %v too large for an exact fit", stat)
	}
	if p < 1e-3 {
		t.Errorf("KS p-value %v too small for an exact fit", p)
	}
	// Leaving the sample unsorted must not change the result.
	stat2, p2, err := KolmogorovSmirnov(append([]float64{xs[9999]}, xs[:9999]...), l.CDF)
	if err != nil {
		t.Fatal(err)
	}
	if stat2 != stat || p2 != p {
		t.Error("KS result depends on sample order")
	}
}

// CDF returns P(X <= x).
func (l Laplace) CDF(x float64) float64 {
	if x < 0 {
		return 0.5 * math.Exp(x/l.B)
	}
	return 1 - 0.5*math.Exp(-x/l.B)
}

// MeanAbs returns E|X| = b.
func (l Laplace) MeanAbs() float64 { return l.B }

// Variance returns Var X = 2b².
func (l Laplace) Variance() float64 { return 2 * l.B * l.B }

// CDF returns P(Z <= z), from the closed-form antiderivative of
// 1/(1+z⁴):
//
//	F(z) = √2/8·ln((z²+√2z+1)/(z²−√2z+1)) + √2/4·(atan(√2z+1)+atan(√2z−1)).
//
// In the tails the closed form loses to cancellation (and far out z⁴
// overflows), so beyond |z| = 12 the asymptotic series is used instead
// (see sf); the result is always clamped into [0, 1].
func (g GenCauchy) CDF(z float64) float64 {
	if z >= 0 {
		return 1 - g.sf(z)
	}
	return g.sf(-z)
}

// Mean returns the expected size of the continuous mixture (before
// rounding and the floor at 1) — the planning number DefaultConfig's
// comment cites.
func (m SkewedSize) Mean() float64 {
	return (1-m.TailProb)*m.Body.Mean() + m.TailProb*m.Tail.Mean()
}
