package dist

import (
	"fmt"
	"math"
)

// GapUniform is the distortion-factor distribution of input noise
// infusion (Section 5.1): uniform on the band [1−t, 1−s] ∪ [1+s, 1+t].
// The gap (1−s, 1+s) around 1 is what guarantees every distorted value
// moves by at least a relative s — no establishment is ever released
// (almost) exactly.
type GapUniform struct {
	// S and T bound the relative distortion: |f − 1| ∈ [S, T].
	S, T float64
}

// NewGapUniform returns the distribution for the band parameters
// (s, t). It panics unless 0 < s < t.
func NewGapUniform(s, t float64) GapUniform {
	if !(s > 0 && t > s) {
		panic(fmt.Sprintf("dist: GapUniform requires 0 < s < t, got s=%v t=%v", s, t))
	}
	return GapUniform{S: s, T: t}
}

// Sample draws one factor: a uniform magnitude in [S, T), then a side
// (below or above 1) with equal probability.
func (g GapUniform) Sample(s *Stream) float64 {
	mag := g.S + s.Float64()*(g.T-g.S)
	if s.Float64() < 0.5 {
		return 1 - mag
	}
	return 1 + mag
}

// Fill draws len(dst) factors into the caller-owned buffer, consuming
// the stream exactly as len(dst) scalar Sample calls would (see
// Laplace.Fill for the contract). The SDL system draws one factor per
// establishment through this path.
func (g GapUniform) Fill(dst []float64, s *Stream) {
	for i := range dst {
		dst[i] = g.Sample(s)
	}
}

// Contains reports whether f lies in the band the distribution samples
// from, up to floating-point round-off in |f − 1| (1 − 0.1 rounds to a
// value whose distance from 1 is slightly below 0.1).
func (g GapUniform) Contains(f float64) bool {
	d := math.Abs(f - 1)
	const tol = 1e-9
	return d >= g.S-tol && d <= g.T+tol
}
