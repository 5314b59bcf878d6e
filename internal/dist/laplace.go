package dist

import (
	"fmt"
	"math"
)

// Laplace is the zero-centered Laplace distribution with scale b:
// density e^{−|x|/b}/(2b). It is the noise of the pure-DP baselines and,
// in log space, of the Log-Laplace mechanism (Algorithm 1).
type Laplace struct {
	// B is the scale parameter (the paper's λ when used in log space).
	B float64
}

// NewLaplace returns the Laplace distribution with scale b. It panics
// if b is not positive: every mechanism computes its scale from
// validated parameters, so a bad scale is a programming error.
func NewLaplace(b float64) Laplace {
	if !(b > 0) {
		panic(fmt.Sprintf("dist: Laplace scale must be positive, got %v", b))
	}
	return Laplace{B: b}
}

// Sample draws one variate by CDF inversion, so a stream position maps
// to exactly one draw.
func (l Laplace) Sample(s *Stream) float64 {
	return l.Quantile(s.float64Open())
}

// PDF returns the density at x.
func (l Laplace) PDF(x float64) float64 {
	return math.Exp(-math.Abs(x)/l.B) / (2 * l.B)
}

// Quantile returns the p-quantile for p in (0, 1); it is the exact
// inverse of CDF.
func (l Laplace) Quantile(p float64) float64 {
	if !(p > 0 && p < 1) {
		panic(fmt.Sprintf("dist: Laplace quantile requires p in (0,1), got %v", p))
	}
	if p < 0.5 {
		return l.B * math.Log(2*p)
	}
	return -l.B * math.Log(2*(1-p))
}
