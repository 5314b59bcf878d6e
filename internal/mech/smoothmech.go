package mech

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/smooth"
)

// SmoothGamma is Algorithm 2 of the paper: the generic smooth-sensitivity
// mechanism of Theorem 8.4 instantiated with the generalized-Cauchy noise
// h(z) ∝ 1/(1+z⁴) and the budget split ε₂ = 5·ln(1+α), ε₁ = ε − ε₂.
//
// Validity requires α+1 < e^{ε/5} (otherwise ε₁ ≤ 0). Within the validity
// region the release is
//
//	ñ = n + S*_{v, ε₂/5}(x) / (ε₁/5) · η,   η ~ h,
//
// with S*_{v,b}(x) = max(x_v·α, 1) by Lemma 8.5. The mechanism is
// unbiased with expected L1 error O(x_v·α/ε + 1/ε) (Lemma 8.8).
type SmoothGamma struct {
	Alpha, Eps float64

	split smooth.Split
	noise smooth.GenCauchyNoise
}

// NewSmoothGamma validates α+1 < e^{ε/5} and returns the mechanism.
func NewSmoothGamma(alpha, eps float64) (SmoothGamma, error) {
	split, err := smooth.GammaSplit(eps, alpha)
	if err != nil {
		return SmoothGamma{}, err
	}
	return SmoothGamma{Alpha: alpha, Eps: eps, split: split}, nil
}

// Name identifies the mechanism.
func (m SmoothGamma) Name() string {
	return fmt.Sprintf("smooth-gamma(alpha=%g,eps=%g)", m.Alpha, m.Eps)
}

// ReleaseCell applies Algorithm 2 to the cell.
func (m SmoothGamma) ReleaseCell(in CellInput, s *dist.Stream) (float64, error) {
	if !(m.split.A > 0) {
		return 0, fmt.Errorf("mech: SmoothGamma not initialized; use NewSmoothGamma")
	}
	sens, err := smooth.Sensitivity(in.MaxContribution, m.Alpha, m.split.B)
	if err != nil {
		return 0, err
	}
	return smooth.Release(in.Count, sens, m.split, m.noise, s), nil
}

// releaseCellRange is the batch path: the validity check runs once for
// the chunk (smooth-sensitivity boundedness depends only on α and b,
// never on the cell), the generalized-Cauchy noise is batch-sampled
// from the per-cell stream family, and each cell scales it by its own
// smooth sensitivity — bit-identical to per-cell ReleaseCell. The
// invariant reciprocal 1/a is hoisted out of the cell loop; the scalar
// smooth.Release combines its scale the same reciprocal-first way, so
// hoisting does not change a single bit of output.
func (m SmoothGamma) releaseCellRange(out []float64, cells []CellInput, parent *dist.Stream, base int, noise []float64) (int, error) {
	if !(m.split.A > 0) {
		return 0, fmt.Errorf("mech: SmoothGamma not initialized; use NewSmoothGamma")
	}
	if _, err := smooth.Sensitivity(0, m.Alpha, m.split.B); err != nil {
		return 0, err
	}
	dist.FillSplit(noise, dist.GenCauchy{}, parent, "cell", base)
	smoothScaleCells(out, cells, noise, m.Alpha, 1/m.split.A)
	return -1, nil
}

// smoothScaleCells is the per-cell tail both smooth batch paths share:
// the inlined local sensitivity max(x_v·α, 1) — with the scalar path's
// negative-x_v panic relayed, so corrupt input fails as loudly as
// ReleaseCell — and the reciprocal-first scale-and-add whose operation
// order smooth.Release mirrors exactly (the bit-identity contract
// lives here, in one place).
func smoothScaleCells(out []float64, cells []CellInput, noise []float64, alpha, invA float64) {
	for i := range out {
		xv := cells[i].MaxContribution
		if xv < 0 {
			smooth.LocalSensitivity(xv, alpha) // panics on negative x_v
		}
		sens := float64(xv) * alpha
		if sens < 1 {
			sens = 1
		}
		out[i] = cells[i].Count + sens*invA*noise[i]
	}
}

// SmoothLaplace is Algorithm 3 of the paper: the smooth-sensitivity
// mechanism with unit Laplace noise and the Lemma 9.1 admissibility
// parameters a = ε/2, b = ε/(2·ln(1/δ)). It satisfies approximate
// (α,ε,δ)-ER-EE privacy; validity requires α+1 ≤ e^{ε/(2·ln(1/δ))}
// (Table 2 tabulates the induced minimum ε).
//
// The release is ñ = n + S*_{v,b}(x)/(ε/2) · η with η ~ Laplace(1); the
// mechanism is unbiased with expected L1 error O(x_v·α/ε + 1/ε)
// (Lemma 9.3). Note the error does not depend on δ — δ only gates which
// (α,ε) pairs are allowed.
type SmoothLaplace struct {
	Alpha, Eps, Delta float64

	split smooth.Split
	noise smooth.LaplaceNoise
}

// NewSmoothLaplace validates the parameters and returns the mechanism.
func NewSmoothLaplace(alpha, eps, delta float64) (SmoothLaplace, error) {
	split, err := smooth.LaplaceSplit(eps, delta, alpha)
	if err != nil {
		return SmoothLaplace{}, err
	}
	return SmoothLaplace{
		Alpha: alpha, Eps: eps, Delta: delta,
		split: split, noise: smooth.NewLaplaceNoise(delta),
	}, nil
}

// Name identifies the mechanism.
func (m SmoothLaplace) Name() string {
	return fmt.Sprintf("smooth-laplace(alpha=%g,eps=%g,delta=%g)", m.Alpha, m.Eps, m.Delta)
}

// ReleaseCell applies Algorithm 3 to the cell.
func (m SmoothLaplace) ReleaseCell(in CellInput, s *dist.Stream) (float64, error) {
	if !(m.split.A > 0) {
		return 0, fmt.Errorf("mech: SmoothLaplace not initialized; use NewSmoothLaplace")
	}
	sens, err := smooth.Sensitivity(in.MaxContribution, m.Alpha, m.split.B)
	if err != nil {
		return 0, err
	}
	return smooth.Release(in.Count, sens, m.split, m.noise, s), nil
}

// releaseCellRange is the batch path for Algorithm 3; see
// SmoothGamma.releaseCellRange — identical structure (hoisted 1/a,
// inlined local sensitivity) with unit Laplace noise.
func (m SmoothLaplace) releaseCellRange(out []float64, cells []CellInput, parent *dist.Stream, base int, noise []float64) (int, error) {
	if !(m.split.A > 0) {
		return 0, fmt.Errorf("mech: SmoothLaplace not initialized; use NewSmoothLaplace")
	}
	if _, err := smooth.Sensitivity(0, m.Alpha, m.split.B); err != nil {
		return 0, err
	}
	dist.FillSplit(noise, dist.NewLaplace(1), parent, "cell", base)
	smoothScaleCells(out, cells, noise, m.Alpha, 1/m.split.A)
	return -1, nil
}
