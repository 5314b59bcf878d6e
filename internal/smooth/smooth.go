// Package smooth implements the extended smooth-sensitivity framework of
// Section 8.2 of the paper: local sensitivity of cell-count queries under
// α-neighbor definitions, b-smooth upper bounds (Lemma 8.5), admissible
// noise distributions with a flexible ε₁+ε₂ budget split (Definition 8.3,
// the paper's generalization of Nissim–Raskhodnikova–Smith), and the
// generic additive mechanism of Theorem 8.4.
package smooth

import (
	"fmt"
	"math"

	"repro/internal/dist"
)

// LocalSensitivity returns the local sensitivity of a single cell-count
// query q_v at a database where the largest single-establishment
// contribution to the cell is xv (the paper's x_v), under either α-neighbor
// definition: the count can change by at most max(x_v·α, 1), because a
// neighbor either rescales one establishment's matching workforce by a
// factor (1+α) or adds/removes one worker.
func LocalSensitivity(xv int64, alpha float64) float64 {
	if xv < 0 {
		panic(fmt.Sprintf("smooth: negative x_v %d", xv))
	}
	if !(alpha >= 0) {
		panic(fmt.Sprintf("smooth: negative alpha %v", alpha))
	}
	ls := float64(xv) * alpha
	if ls < 1 {
		return 1
	}
	return ls
}

// ErrUnboundedSensitivity reports that the requested smoothing parameter b
// cannot bound the smooth sensitivity: by Lemma 8.5, when e^b < 1+α the
// supremum of e^{-jb}·A^(j) diverges, because each neighbor step can grow
// an establishment by the factor 1+α faster than the smoothing discounts it.
type ErrUnboundedSensitivity struct {
	Alpha, B float64
}

func (e ErrUnboundedSensitivity) Error() string {
	return fmt.Sprintf("smooth: b-smooth sensitivity unbounded: e^b = %v < 1+alpha = %v",
		math.Exp(e.B), 1+e.Alpha)
}

// Sensitivity returns the b-smooth sensitivity S*_{v,b}(x) of a cell-count
// query (Lemma 8.5): max(x_v·α, 1) when e^b >= 1+α, and an
// ErrUnboundedSensitivity otherwise.
func Sensitivity(xv int64, alpha, b float64) (float64, error) {
	if math.Exp(b) < 1+alpha {
		return 0, ErrUnboundedSensitivity{Alpha: alpha, B: b}
	}
	return LocalSensitivity(xv, alpha), nil
}

// Admissible describes an (a, b)-admissible noise distribution in the
// sense of Definition 8.3: given a split ε₁+ε₂ <= ε of the privacy budget,
// the distribution tolerates shifts up to a(ε₁) (sliding) and log-scalings
// up to b(ε₂) (dilation) while changing probabilities by at most e^ε (+δ).
type Admissible interface {
	// Sample draws one unit-scale noise variate.
	Sample(*dist.Stream) float64
	// SlideBound returns a(ε₁), the largest L1 shift tolerated at ε₁.
	SlideBound(eps1 float64) float64
	// DilateBound returns b(ε₂), the largest |log-scaling| tolerated at ε₂.
	DilateBound(eps2 float64) float64
	// Delta returns the failure probability δ of the admissibility
	// guarantee (0 for pure definitions).
	Delta() float64
	// MeanAbs returns E|Z| of the unit-scale distribution, used in
	// analytical error bounds.
	MeanAbs() float64
	// Name identifies the distribution in diagnostics.
	Name() string
}

// GenCauchyNoise is the paper's choice for pure (δ=0) ER-EE privacy:
// h(z) ∝ 1/(1+z⁴), which by Lemma 8.6 is (ε₁/(γ+1), ε₂/(γ+1))-admissible
// with γ = 4 and δ = 0.
type GenCauchyNoise struct{}

// gamma is the exponent of the generalized-Cauchy density.
const gencauchyGamma = 4

// Sample draws one variate.
func (GenCauchyNoise) Sample(s *dist.Stream) float64 { return dist.GenCauchy{}.Sample(s) }

// SlideBound returns ε₁/(γ+1) = ε₁/5.
func (GenCauchyNoise) SlideBound(eps1 float64) float64 { return eps1 / (gencauchyGamma + 1) }

// DilateBound returns ε₂/(γ+1) = ε₂/5.
func (GenCauchyNoise) DilateBound(eps2 float64) float64 { return eps2 / (gencauchyGamma + 1) }

// Delta returns 0: the admissibility guarantee is exact.
func (GenCauchyNoise) Delta() float64 { return 0 }

// MeanAbs returns E|Z| = 1/√2.
func (GenCauchyNoise) MeanAbs() float64 { return dist.GenCauchy{}.MeanAbs() }

// Name returns the distribution's name.
func (GenCauchyNoise) Name() string { return "gencauchy(gamma=4)" }

// LaplaceNoise is the unit-scale Laplace distribution, which by Lemma 9.1
// (from Nissim et al.) is (ε/2, ε/(2·ln(1/δ)))-admissible with failure
// probability δ. It underlies the Smooth Laplace mechanism (Algorithm 3).
type LaplaceNoise struct {
	// Del is the admissibility failure probability δ ∈ (0, 1).
	Del float64
}

// NewLaplaceNoise validates δ and returns the distribution.
func NewLaplaceNoise(delta float64) LaplaceNoise {
	if !(delta > 0 && delta < 1) {
		panic(fmt.Sprintf("smooth: Laplace admissibility requires delta in (0,1), got %v", delta))
	}
	return LaplaceNoise{Del: delta}
}

// Sample draws one unit-scale Laplace variate.
func (LaplaceNoise) Sample(s *dist.Stream) float64 { return dist.NewLaplace(1).Sample(s) }

// SlideBound returns ε₁ treated as the full sliding half: the Laplace
// admissibility of Lemma 9.1 fixes the split at ε₁ = ε/2, so callers pass
// eps1 = ε/2 and receive a = ε/2.
func (LaplaceNoise) SlideBound(eps1 float64) float64 { return eps1 }

// DilateBound returns b(ε₂) = ε₂/ln(1/δ); with the fixed split ε₂ = ε/2
// this is the paper's ε/(2·ln(1/δ)).
func (l LaplaceNoise) DilateBound(eps2 float64) float64 { return eps2 / math.Log(1/l.Del) }

// Delta returns the failure probability δ.
func (l LaplaceNoise) Delta() float64 { return l.Del }

// MeanAbs returns E|Z| = 1 for the unit-scale Laplace.
func (LaplaceNoise) MeanAbs() float64 { return 1 }

// Name returns the distribution's name.
func (l LaplaceNoise) Name() string { return fmt.Sprintf("laplace(delta=%g)", l.Del) }

// Split is a division of the privacy budget between the sliding (ε₁) and
// dilation (ε₂) properties of Definition 8.3, together with the derived
// noise parameters.
type Split struct {
	Eps1, Eps2 float64
	// A is the sliding bound a(ε₁): the mechanism releases
	// q(x) + S(x)/A · Z.
	A float64
	// B is the dilation bound b(ε₂): the smoothing parameter the smooth
	// sensitivity must be computed with.
	B float64
}

// GammaSplit computes Algorithm 2's budget split for the generalized-
// Cauchy noise: ε₂ = 5·ln(1+α) — the smallest ε₂ whose dilation bound
// b = ε₂/5 satisfies e^b >= 1+α — and ε₁ = ε − ε₂. It errors when
// α+1 >= e^{ε/5}, the validity condition in Algorithm 2's input line.
//
// In floating point 5·ln(1+α) can round low enough that e^b < 1+α (for
// α = 0.3, 0.58 and a few others), which would leave every cell's
// smooth sensitivity unbounded. ε₂ is then raised by single ulps until
// e^b >= 1+α, and the split is refused if that leaves no ε₁ > 0.
// Where the formula already holds, the split is exactly the formula's.
func GammaSplit(eps, alpha float64) (Split, error) {
	if !(eps > 0) {
		return Split{}, fmt.Errorf("smooth: eps must be positive, got %v", eps)
	}
	if !(alpha > 0) {
		return Split{}, fmt.Errorf("smooth: alpha must be positive, got %v", alpha)
	}
	if 1+alpha >= math.Exp(eps/5) {
		return Split{}, fmt.Errorf("smooth: Smooth Gamma requires alpha+1 < e^(eps/5); alpha=%v eps=%v", alpha, eps)
	}
	n := GenCauchyNoise{}
	eps2 := 5 * math.Log(1+alpha)
	for math.Exp(n.DilateBound(eps2)) < 1+alpha {
		eps2 = math.Nextafter(eps2, math.Inf(1))
	}
	eps1 := eps - eps2
	if !(eps1 > 0) {
		return Split{}, fmt.Errorf("smooth: Smooth Gamma requires alpha+1 < e^(eps/5); alpha=%v eps=%v", alpha, eps)
	}
	return Split{
		Eps1: eps1,
		Eps2: eps2,
		A:    n.SlideBound(eps1),
		B:    n.DilateBound(eps2),
	}, nil
}

// LaplaceSplit computes Algorithm 3's parameters: the fixed even split
// a = ε/2, b = ε/(2·ln(1/δ)) of Lemma 9.1. It errors when
// α+1 > e^{ε/(2·ln(1/δ))}, the validity condition in Algorithm 3's input
// line (equivalently, ε < 2·ln(1/δ)·ln(1+α); see Table 2).
func LaplaceSplit(eps, delta, alpha float64) (Split, error) {
	if !(eps > 0) {
		return Split{}, fmt.Errorf("smooth: eps must be positive, got %v", eps)
	}
	if !(delta > 0 && delta < 1) {
		return Split{}, fmt.Errorf("smooth: delta must be in (0,1), got %v", delta)
	}
	if !(alpha > 0) {
		return Split{}, fmt.Errorf("smooth: alpha must be positive, got %v", alpha)
	}
	n := NewLaplaceNoise(delta)
	b := n.DilateBound(eps / 2)
	if 1+alpha > math.Exp(b) {
		return Split{}, fmt.Errorf(
			"smooth: Smooth Laplace requires alpha+1 <= e^(eps/(2 ln(1/delta))); alpha=%v eps=%v delta=%v (need eps >= %v)",
			alpha, eps, delta, MinEpsilonLaplace(alpha, delta))
	}
	return Split{Eps1: eps / 2, Eps2: eps / 2, A: n.SlideBound(eps / 2), B: b}, nil
}

// MinEpsilonLaplace returns the smallest ε for which Smooth Laplace's
// validity condition holds at the given α and δ: ε = 2·ln(1/δ)·ln(1+α).
// This is the formula behind the paper's Table 2.
func MinEpsilonLaplace(alpha, delta float64) float64 {
	if !(alpha > 0) || !(delta > 0 && delta < 1) {
		panic(fmt.Sprintf("smooth: MinEpsilonLaplace requires alpha>0, delta in (0,1); got %v, %v", alpha, delta))
	}
	return 2 * math.Log(1/delta) * math.Log(1+alpha)
}

// Release applies the generic mechanism of Theorem 8.4 to one count:
// M(x) = q(x) + S(x)/a · Z, where S(x) is a b-smooth upper bound on local
// sensitivity and Z is drawn from the admissible distribution.
//
// The scale is combined as S(x)·(1/a)·Z — multiplication by the
// reciprocal rather than division — so the batch release pipeline can
// hoist the invariant 1/a out of its per-cell loop and still produce
// output bit-identical to this scalar reference (the two forms differ
// in the last ulp, so both sides must use the same one).
func Release(count float64, smoothSens float64, split Split, noise Admissible, s *dist.Stream) float64 {
	if !(smoothSens >= 0) {
		panic(fmt.Sprintf("smooth: negative smooth sensitivity %v", smoothSens))
	}
	if !(split.A > 0) {
		panic(fmt.Sprintf("smooth: sliding bound a must be positive, got %v", split.A))
	}
	invA := 1 / split.A
	return count + smoothSens*invA*noise.Sample(s)
}

// ExpectedL1 returns the expected L1 error of the generic mechanism for a
// cell with the given smooth sensitivity: S(x)/a · E|Z|. For the
// generalized-Cauchy noise this instantiates the paper's Lemma 8.8 bound
// O(x_v·α/ε + 1/ε); for Laplace it instantiates Lemma 9.3. The scale is
// combined reciprocal-first, matching Release.
func ExpectedL1(smoothSens float64, split Split, noise Admissible) float64 {
	invA := 1 / split.A
	return smoothSens * invA * noise.MeanAbs()
}
