package mech

// Closed-form error and bias of the cell mechanisms — Lemma 8.2
// (Log-Laplace bias), Theorem 8.3 (its relative-error bound), Lemmas
// 8.8 and 9.3 (the smooth mechanisms' expected L1 error) — and the
// explicit budget split the Algorithm 2 ablation sweeps. No release
// path evaluates them: they are the oracles mech_test.go checks
// sampled releases against.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/smooth"
)

// expInvalid is the ExpectedL1 value for out-of-validity parameters.
var expInvalid = math.Inf(1)

// ExpectedL1 returns the exact expected L1 error, Sensitivity/ε.
func (m PureLaplace) ExpectedL1(CellInput) float64 {
	return m.Sensitivity / m.Eps
}

// RelativeErrorBounded reports whether the expected squared relative
// error bound of Theorem 8.3 applies, i.e. λ < 1/2.
func (m LogLaplace) RelativeErrorBounded() bool { return m.Lambda() < 0.5 }

// Bias returns E[ñ] − n for a true count n (from Lemma 8.2):
// (n+γ)·λ²/(1−λ²) when λ < 1, +Inf otherwise. The mechanism
// overestimates in expectation because e^η is convex.
func (m LogLaplace) Bias(n float64) float64 {
	lam := m.Lambda()
	if lam >= 1 {
		return math.Inf(1)
	}
	return (n + m.Gamma()) * lam * lam / (1 - lam*lam)
}

// ExpectedL1 returns the exact expected L1 error for a cell with true
// count n: E|ñ − n| = (n+γ)·E|e^η − 1| = (n+γ)·λ/(1−λ²) for λ < 1
// (direct integration against the Laplace density), and +Inf otherwise.
func (m LogLaplace) ExpectedL1(in CellInput) float64 {
	lam := m.Lambda()
	if lam >= 1 {
		return expInvalid
	}
	return (in.Count + m.Gamma()) * lam / (1 - lam*lam)
}

// ExpectedSquaredRelErrBound returns the Theorem 8.3 upper bound on the
// expected squared relative error, valid when λ < 1/2; +Inf otherwise.
func (m LogLaplace) ExpectedSquaredRelErrBound() float64 {
	lam := m.Lambda()
	if lam >= 0.5 {
		return math.Inf(1)
	}
	l2 := lam * lam
	g := m.Gamma()
	return (2*l2 + 4*l2*l2) * (1 + g) * (1 + g) / ((1 - 4*l2) * (1 - l2))
}

// ExactSquaredRelErrShifted returns the exact expected squared relative
// error of the shifted variables ((y−ỹ)/y)² with y = n+γ, which the
// Theorem 8.3 proof computes in closed form: (2λ²+4λ⁴)/((1−4λ²)(1−λ²))
// for λ < 1/2.
func (m LogLaplace) ExactSquaredRelErrShifted() float64 {
	lam := m.Lambda()
	if lam >= 0.5 {
		return math.Inf(1)
	}
	l2 := lam * lam
	return (2*l2 + 4*l2*l2) / ((1 - 4*l2) * (1 - l2))
}

// Split exposes the ε₁/ε₂ budget split, for the ablation benchmarks.
func (m SmoothGamma) Split() smooth.Split { return m.split }

// ExpectedL1 returns the exact expected L1 error for the cell:
// S*/a · E|η| = max(x_v·α, 1)·5/ε₁ · (1/√2).
func (m SmoothGamma) ExpectedL1(in CellInput) float64 {
	if !(m.split.A > 0) {
		return expInvalid
	}
	sens, err := smooth.Sensitivity(in.MaxContribution, m.Alpha, m.split.B)
	if err != nil {
		return expInvalid
	}
	return smooth.ExpectedL1(sens, m.split, m.noise)
}

// SmoothGammaWithSplit returns the mechanism with an explicit ε₁/ε₂
// split instead of Algorithm 2's default. The split must keep
// ε₁+ε₂ ≤ ε, ε₁ > 0, and e^{ε₂/5} ≥ 1+α. This is the knob the budget-split
// ablation benchmark sweeps to show the paper's default (smallest valid
// ε₂) minimizes error.
func SmoothGammaWithSplit(alpha, eps, eps2 float64) (SmoothGamma, error) {
	if !(eps > 0) || !(alpha > 0) {
		return SmoothGamma{}, fmt.Errorf("mech: SmoothGamma requires alpha, eps > 0")
	}
	eps1 := eps - eps2
	if !(eps1 > 0) {
		return SmoothGamma{}, fmt.Errorf("mech: split eps2=%v leaves no sliding budget at eps=%v", eps2, eps)
	}
	n := smooth.GenCauchyNoise{}
	split := smooth.Split{Eps1: eps1, Eps2: eps2, A: n.SlideBound(eps1), B: n.DilateBound(eps2)}
	if _, err := smooth.Sensitivity(1, alpha, split.B); err != nil {
		return SmoothGamma{}, fmt.Errorf("mech: split eps2=%v too small: %w", eps2, err)
	}
	return SmoothGamma{Alpha: alpha, Eps: eps, split: split}, nil
}

// ExpectedL1 returns the exact expected L1 error for the cell:
// S*/(ε/2)·1 = 2·max(x_v·α, 1)/ε.
func (m SmoothLaplace) ExpectedL1(in CellInput) float64 {
	if !(m.split.A > 0) {
		return expInvalid
	}
	sens, err := smooth.Sensitivity(in.MaxContribution, m.Alpha, m.split.B)
	if err != nil {
		return expInvalid
	}
	return smooth.ExpectedL1(sens, m.split, m.noise)
}

// BenchmarkAblationGammaBudgetSplit sweeps Smooth Gamma's ε₁/ε₂ split to
// show Algorithm 2's default (smallest valid ε₂) minimizes expected
// error — the design-choice ablation DESIGN.md calls out.
func BenchmarkAblationGammaBudgetSplit(b *testing.B) {
	in := CellInput{Count: 500, MaxContribution: 200}
	def, err := NewSmoothGamma(0.1, 2.0)
	if err != nil {
		b.Fatal(err)
	}
	base := def.Split().Eps2
	extras := []float64{0, 0.2, 0.5, 1.0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		best, bestErr := -1, 0.0
		for j, extra := range extras {
			m, err := SmoothGammaWithSplit(0.1, 2.0, base+extra)
			if err != nil {
				b.Fatal(err)
			}
			if e := m.ExpectedL1(in); best < 0 || e < bestErr {
				best, bestErr = j, e
			}
		}
		if best != 0 {
			b.Fatal("default split no longer optimal")
		}
	}
}
