package dist

import (
	"fmt"
	"math"
)

// LogNormal is the log-normal distribution: e^{μ+σZ} for standard
// normal Z. It models the body of the establishment-size mixture and
// the quarter-over-quarter employment growth shocks.
type LogNormal struct {
	// Mu and Sigma are the mean and standard deviation of the
	// underlying normal (of the logarithm).
	Mu, Sigma float64
}

// NewLogNormal returns the log-normal with log-mean mu and log-standard
// deviation sigma. It panics if sigma is negative (sigma = 0 is the
// degenerate point mass at e^mu, allowed so configurations can switch
// randomness off).
func NewLogNormal(mu, sigma float64) LogNormal {
	if sigma < 0 {
		panic(fmt.Sprintf("dist: LogNormal sigma must be >= 0, got %v", sigma))
	}
	return LogNormal{Mu: mu, Sigma: sigma}
}

// Sample draws one variate. The explicit conversion rounds the product
// before the sum, so no architecture fuses them into one multiply-add
// and the variate is the same on arm64 as on amd64.
func (l LogNormal) Sample(s *Stream) float64 {
	return math.Exp(l.Mu + float64(l.Sigma*s.NormFloat64()))
}

// Mean returns E X = e^{μ+σ²/2}.
func (l LogNormal) Mean() float64 {
	return math.Exp(l.Mu + l.Sigma*l.Sigma/2)
}

// Median returns the median e^μ.
func (l LogNormal) Median() float64 { return math.Exp(l.Mu) }

// CDF returns P(X <= x).
func (l LogNormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if l.Sigma == 0 {
		if x < math.Exp(l.Mu) {
			return 0
		}
		return 1
	}
	return 0.5 * math.Erfc(-(math.Log(x)-l.Mu)/(l.Sigma*math.Sqrt2))
}
