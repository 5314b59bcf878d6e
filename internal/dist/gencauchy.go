package dist

import (
	"fmt"
	"math"
)

// GenCauchy is the generalized Cauchy distribution with exponent γ = 4:
// density h(z) ∝ 1/(1+z⁴). It is the admissible noise of the Smooth
// Gamma mechanism (Algorithm 2): heavy enough in the tails to absorb
// dilations of the smooth-sensitivity scale, yet with finite mean
// absolute deviation E|Z| = 1/√2 — unlike the ordinary Cauchy.
type GenCauchy struct{}

// gcNorm is the normalizing constant √2/π: ∫ dz/(1+z⁴) = π/√2.
var gcNorm = math.Sqrt2 / math.Pi

// PDF returns the density (√2/π)/(1+z⁴) at z.
func (GenCauchy) PDF(z float64) float64 {
	z2 := z * z
	return gcNorm / (1 + z2*z2)
}

// sf returns the survival function P(Z > z) for z >= 0, computed
// without subtracting nearly-equal quantities so it stays accurate
// (and in [0, 0.5]) arbitrarily far into the tail.
func (GenCauchy) sf(z float64) float64 {
	if z > 12 {
		// 1−CDF(z) = (√2/π)·(1/(3z³) − 1/(7z⁷) + 1/(11z¹¹) − 1/(15z¹⁵) + …).
		// The truncation error of the four-term series is a relative
		// 3/(19z¹⁶) < 10⁻¹⁷ at z = 12, so the series is correctly rounded
		// from here on out — whereas the closed form's cancellation error
		// grows like z³ relative to the shrinking tail (by z = 10⁴ it
		// reaches ~10⁻⁵ relative, which used to make extreme quantiles
		// ill-determined at the ulp level). Far out, the z⁷/z¹¹/z¹⁵ powers
		// overflow to +Inf and their terms vanish, which is exactly the
		// right limit.
		z3 := z * z * z
		z7 := z3 * z3 * z
		z11 := z7 * z3 * z
		z15 := z11 * z3 * z
		return gcNorm * (1/(3*z3) - 1/(7*z7) + 1/(11*z11) - 1/(15*z15))
	}
	z2 := z * z
	r2z := math.Sqrt2 * z
	lg := math.Log((z2+r2z+1)/(z2-r2z+1)) * math.Sqrt2 / 8
	// atan(√2z+1) + atan(√2z−1) − π = −atan((√2z+1)⁻¹) − atan((√2z−1)⁻¹)
	// for z > 1/√2, avoiding the π-sized cancellation; below that the
	// direct form is exact enough.
	var at float64
	if r2z > 1 {
		at = -(math.Atan(1/(r2z+1)) + math.Atan(1/(r2z-1))) * math.Sqrt2 / 4
	} else {
		at = (math.Atan(r2z+1)+math.Atan(r2z-1))*math.Sqrt2/4 - math.Pi*math.Sqrt2/4
	}
	// With gcNorm·π√2/4 = 0.5, the 0.5 constants cancel exactly:
	// SF(z) = 0.5 − gcNorm·(lg + at + π√2/4) = −gcNorm·(lg + at).
	s := -gcNorm * (lg + at)
	if s < 0 {
		return 0
	}
	if s > 0.5 {
		return 0.5
	}
	return s
}

// Quantile returns the p-quantile for p in (0, 1), by table-seeded
// Newton inversion of the closed-form survival function (see
// gencauchy_table.go). Both halves invert against the tail probability
// directly (for p >= 0.5 the subtraction 1−p is exact in floating
// point), so extreme quantiles never suffer cancellation or produce
// infinities.
func (g GenCauchy) Quantile(p float64) float64 {
	if !(p > 0 && p < 1) {
		panic(fmt.Sprintf("dist: GenCauchy quantile requires p in (0,1), got %v", p))
	}
	if p == 0.5 {
		return 0
	}
	if p < 0.5 {
		return -g.quantileTail(p)
	}
	return g.quantileTail(1 - p)
}

// quantileTailBracketed is the cold inversion path: Newton inside a
// guaranteed bracket from a crude cube-root starting point. It is the
// reference the quantile table is built from (and differentially tested
// against), and the fallback for the corner the polish cannot certify.
func (g GenCauchy) quantileTailBracketed(tail float64) float64 {
	// Tail bound P(Z > z) < (√2/π)/(3z³) makes this an upper bracket.
	hi := math.Cbrt(gcNorm / (3 * tail))
	if math.IsInf(hi, 1) {
		// Subnormal tails overflow the quotient; rescale. (The guard — not
		// an unconditional rewrite — keeps the bracket, and with it every
		// iterate, bit-identical for all non-overflowing tails. Note sf's
		// own z³ overflow still caps how deep this search can truly
		// resolve, ~8.4e-310; the series branch of the fast path owns the
		// regime below that, this just keeps the bracket finite.)
		hi = math.Cbrt(gcNorm/3) / math.Cbrt(tail)
	}
	lo, hi := 0.0, hi+1
	z := hi / 2
	for i := 0; i < 64; i++ {
		f := tail - g.sf(z) // increasing in z, like a CDF residual
		if f > 0 {
			hi = z
		} else {
			lo = z
		}
		step := f / g.PDF(z)
		next := z - step
		if !(next > lo && next < hi) {
			next = (lo + hi) / 2 // Newton left the bracket; bisect
		}
		if math.Abs(next-z) <= 1e-15*(1+math.Abs(z)) {
			return next
		}
		z = next
	}
	return z
}

// Sample draws one variate by CDF inversion.
func (g GenCauchy) Sample(s *Stream) float64 {
	return g.Quantile(s.float64Open())
}

// MeanAbs returns E|Z| = 1/√2.
func (GenCauchy) MeanAbs() float64 { return 1 / math.Sqrt2 }
