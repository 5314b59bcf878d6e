package mech

import (
	"math"
	"testing"

	"repro/internal/dist"
)

// integrateDensity numerically integrates a release density over a wide
// range; every density must integrate to ~1.
func integrateDensity(pdf func(float64) float64, lo, hi, step float64) float64 {
	sum := 0.0
	for x := lo; x < hi; x += step {
		sum += pdf(x) * step
	}
	return sum
}

func TestPureLaplaceDensityIntegrates(t *testing.T) {
	m, err := NewPureLaplace(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := CellInput{Count: 50}
	got := integrateDensity(func(o float64) float64 { return m.ReleaseDensity(in, o) }, 0, 100, 0.01)
	if math.Abs(got-1) > 1e-3 {
		t.Errorf("density integrates to %v", got)
	}
}

func TestLogLaplaceDensityIntegrates(t *testing.T) {
	m, err := NewLogLaplace(0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := CellInput{Count: 100}
	pdf := func(o float64) float64 { return m.ReleaseDensity(in, o) }
	got := integrateDensity(pdf, -m.Gamma()+1e-9, 3000, 0.01)
	if math.Abs(got-1) > 5e-3 {
		t.Errorf("density integrates to %v", got)
	}
	if m.ReleaseDensity(in, -m.Gamma()-1) != 0 {
		t.Error("density positive outside support")
	}
}

func TestSmoothDensitiesIntegrate(t *testing.T) {
	sg, err := NewSmoothGamma(0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := NewSmoothLaplace(0.1, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	in := CellInput{Count: 100, MaxContribution: 40}
	for name, pdf := range map[string]func(float64) float64{
		"smooth-gamma":   func(o float64) float64 { return sg.ReleaseDensity(in, o) },
		"smooth-laplace": func(o float64) float64 { return sl.ReleaseDensity(in, o) },
	} {
		got := integrateDensity(pdf, -2000, 2200, 0.05)
		if math.Abs(got-1) > 5e-3 {
			t.Errorf("%s density integrates to %v", name, got)
		}
	}
}

func TestDensityMatchesSampling(t *testing.T) {
	// Histogram check: empirical frequencies track the analytic density.
	m, err := NewSmoothLaplace(0.1, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	in := CellInput{Count: 100, MaxContribution: 40}
	s := dist.NewStreamFromSeed(1)
	const n = 400000
	binW := 2.0
	bins := map[int]int{}
	for i := 0; i < n; i++ {
		v, err := m.ReleaseCell(in, s)
		if err != nil {
			t.Fatal(err)
		}
		bins[int(math.Floor(v/binW))]++
	}
	// Noise scale is 4 here; probe within ~2 scales of the center where
	// the 400k-sample histogram is statistically tight.
	for _, center := range []float64{94, 100, 107} {
		bin := int(math.Floor(center / binW))
		empirical := float64(bins[bin]) / n / binW
		analytic := m.ReleaseDensity(in, float64(bin)*binW+binW/2)
		if math.Abs(empirical-analytic)/analytic > 0.08 {
			t.Errorf("at %v: empirical density %v vs analytic %v", center, empirical, analytic)
		}
	}
}

func TestDensityMechanismInterfaces(t *testing.T) {
	// All four parametric mechanisms expose densities.
	var _ DensityMechanism = PureLaplace{Eps: 1, Sensitivity: 1}
	ll, _ := NewLogLaplace(0.1, 2)
	var _ DensityMechanism = ll
	sg, _ := NewSmoothGamma(0.1, 2)
	var _ DensityMechanism = sg
	sl, _ := NewSmoothLaplace(0.1, 2, 0.05)
	var _ DensityMechanism = sl
}

func TestDensityPrivacyRatioLogLaplace(t *testing.T) {
	// Theorem 8.1 checked analytically through the densities: for
	// single-establishment counts x and (1+alpha)x (strong alpha-neighbors),
	// the release-density ratio is bounded by e^eps everywhere.
	alpha, eps := 0.1, 1.0
	m, err := NewLogLaplace(alpha, eps)
	if err != nil {
		t.Fatal(err)
	}
	x := CellInput{Count: 1000, MaxContribution: 1000}
	y := CellInput{Count: 1100, MaxContribution: 1100}
	bound := math.Exp(eps) * (1 + 1e-9)
	for o := -m.Gamma() + 0.5; o < 5000; o += 7.3 {
		px, py := m.ReleaseDensity(x, o), m.ReleaseDensity(y, o)
		if px == 0 || py == 0 {
			continue
		}
		if px/py > bound || py/px > bound {
			t.Fatalf("density ratio %v at o=%v exceeds e^eps", math.Max(px/py, py/px), o)
		}
	}
}

func TestDensityPrivacyRatioPlusOneNeighbor(t *testing.T) {
	// The other neighbor type: |E'| = |E|+1 (one added worker).
	alpha, eps := 0.1, 1.0
	m, err := NewLogLaplace(alpha, eps)
	if err != nil {
		t.Fatal(err)
	}
	x := CellInput{Count: 3, MaxContribution: 3}
	y := CellInput{Count: 4, MaxContribution: 4}
	bound := math.Exp(eps) * (1 + 1e-9)
	for o := -m.Gamma() + 0.1; o < 100; o += 0.37 {
		px, py := m.ReleaseDensity(x, o), m.ReleaseDensity(y, o)
		if px == 0 || py == 0 {
			continue
		}
		if px/py > bound || py/px > bound {
			t.Fatalf("density ratio %v at o=%v exceeds e^eps", math.Max(px/py, py/px), o)
		}
	}
}

func TestDensityPanicsOnUninitialized(t *testing.T) {
	for name, fn := range map[string]func(){
		"pure-laplace":   func() { (PureLaplace{}).ReleaseDensity(CellInput{}, 0) },
		"smooth-gamma":   func() { (SmoothGamma{}).ReleaseDensity(CellInput{}, 0) },
		"smooth-laplace": func() { (SmoothLaplace{}).ReleaseDensity(CellInput{}, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: zero-value density did not panic", name)
				}
			}()
			fn()
		}()
	}
}
