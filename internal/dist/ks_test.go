package dist

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// KolmogorovSmirnov runs the one-sample Kolmogorov–Smirnov test of the
// sample against the distribution with the given CDF. It returns the
// statistic D (the supremum distance between the empirical and
// theoretical CDFs) and the asymptotic p-value of observing a distance
// at least that large under the null hypothesis that the sample was
// drawn from cdf.
//
// It is the sampler test-suite's goodness-of-fit check: a correctly
// implemented sampler must produce p-values that are not astronomically
// small.
func KolmogorovSmirnov(sample []float64, cdf func(float64) float64) (stat, p float64, err error) {
	if cdf == nil {
		return 0, 0, fmt.Errorf("dist: KolmogorovSmirnov requires a CDF")
	}
	n := len(sample)
	if n < 8 {
		return 0, 0, fmt.Errorf("dist: KolmogorovSmirnov needs at least 8 observations, got %d", n)
	}
	sorted := make([]float64, n)
	copy(sorted, sample)
	sort.Float64s(sorted)

	var d float64
	for i, x := range sorted {
		f := cdf(x)
		if math.IsNaN(f) || f < 0 || f > 1 {
			return 0, 0, fmt.Errorf("dist: CDF returned %v at %v", f, x)
		}
		// Distance above (empirical steps up after x) and below.
		if up := float64(i+1)/float64(n) - f; up > d {
			d = up
		}
		if down := f - float64(i)/float64(n); down > d {
			d = down
		}
	}
	return d, ksPValue(d, n), nil
}

// ksPValue returns the asymptotic Kolmogorov distribution tail
// Q(λ) = 2 Σ_{k>=1} (−1)^{k−1} e^{−2k²λ²} with the Stephens small-n
// correction λ = (√n + 0.12 + 0.11/√n)·D.
func ksPValue(d float64, n int) float64 {
	if d <= 0 {
		return 1
	}
	sqrtN := math.Sqrt(float64(n))
	lambda := (sqrtN + 0.12 + 0.11/sqrtN) * d
	// Below λ = 0.2 the alternating series converges too slowly to
	// truncate, but the dual theta-series shows Q(0.2) = 1 − 5·10⁻¹³:
	// the tail probability is 1 to double precision.
	if lambda < 0.2 {
		return 1
	}
	sum := 0.0
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := math.Exp(-2 * lambda * lambda * float64(k) * float64(k))
		sum += sign * term
		if term < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// BenchmarkKolmogorovSmirnov measures the sampler-validation test.
func BenchmarkKolmogorovSmirnov(b *testing.B) {
	l := NewLaplace(1)
	s := NewStreamFromSeed(33)
	sample := make([]float64, 10000)
	for i := range sample {
		sample[i] = l.Sample(s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := KolmogorovSmirnov(sample, l.CDF); err != nil {
			b.Fatal(err)
		}
	}
}
