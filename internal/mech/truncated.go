package mech

import (
	"fmt"

	"repro/internal/bipartite"
	"repro/internal/dist"
)

// TruncatedLaplace is the node-differential-privacy baseline of Section 6
// and Finding 6: project the employer–employee graph so no establishment
// exceeds θ employees (removing every larger establishment entirely),
// then answer each marginal cell with Laplace(θ/ε) noise — the projected
// query has node sensitivity θ.
//
// Unlike the cell mechanisms, truncation changes the counts themselves,
// so the mechanism perturbs a whole marginal of truncated counts, which
// the caller computes (table.Index.ComputeTruncated). The error
// therefore has two components the paper's Finding 6 teases apart: bias
// from deleting large establishments (independent of ε) and Laplace
// noise (shrinking with ε).
type TruncatedLaplace struct {
	Eps   float64
	Theta int
}

// NewTruncatedLaplace validates the parameters and returns the mechanism.
func NewTruncatedLaplace(eps float64, theta int) (TruncatedLaplace, error) {
	if !(eps > 0) {
		return TruncatedLaplace{}, fmt.Errorf("mech: TruncatedLaplace requires eps > 0, got %v", eps)
	}
	if theta < 1 {
		return TruncatedLaplace{}, fmt.Errorf("mech: TruncatedLaplace requires theta >= 1, got %d", theta)
	}
	if err := checkLaplaceScale("TruncatedLaplace", float64(theta)/eps); err != nil {
		return TruncatedLaplace{}, err
	}
	return TruncatedLaplace{Eps: eps, Theta: theta}, nil
}

// Name identifies the mechanism.
func (m TruncatedLaplace) Name() string {
	return fmt.Sprintf("truncated-laplace(eps=%g,theta=%d)", m.Eps, m.Theta)
}

// ReleaseCounts adds Laplace(θ/ε) noise to every cell of a θ-truncated
// marginal's counts. Cell c draws from s.SplitIndex("trunc-cell", c).
func (m TruncatedLaplace) ReleaseCounts(truncated []int64, s *dist.Stream) ([]float64, error) {
	if !(m.Eps > 0) || m.Theta < 1 {
		return nil, fmt.Errorf("mech: TruncatedLaplace not initialized; use NewTruncatedLaplace")
	}
	noisy := make([]float64, len(truncated))
	scale := bipartite.SensitivityAfterTruncation(m.Theta) / m.Eps
	dist.FillSplit(noisy, dist.NewLaplace(scale), s, "trunc-cell", 0)
	for cell, c := range truncated {
		noisy[cell] = float64(c) + noisy[cell]
	}
	return noisy, nil
}

// NoiseExpectedL1 returns the per-cell expected L1 error from the Laplace
// component alone, θ/ε. The truncation bias comes on top and depends on
// the data, not the mechanism.
func (m TruncatedLaplace) NoiseExpectedL1() float64 {
	return float64(m.Theta) / m.Eps
}

// Clamped wraps a cell mechanism and truncates its releases at zero.
// Employment counts are non-negative, and clamping is post-processing, so
// the wrapped mechanism's privacy guarantee is preserved while L1 error
// can only shrink.
type Clamped struct {
	Inner CellMechanism
}

// Name identifies the wrapper and its inner mechanism.
func (c Clamped) Name() string { return "clamped(" + c.Inner.Name() + ")" }

// ReleaseCell releases through the inner mechanism and clamps at zero.
func (c Clamped) ReleaseCell(in CellInput, s *dist.Stream) (float64, error) {
	v, err := c.Inner.ReleaseCell(in, s)
	if err != nil {
		return 0, err
	}
	return clampNonNegative(v), nil
}

// ExpectedL1 returns the inner mechanism's expected L1 error, which upper
// bounds the clamped error.
func (c Clamped) ExpectedL1(in CellInput) float64 { return c.Inner.ExpectedL1(in) }

// Rounded wraps a cell mechanism and rounds its releases to the nearest
// non-negative integer, matching the integer counts agencies actually
// publish. Rounding is post-processing and preserves privacy.
type Rounded struct {
	Inner CellMechanism
}

// Name identifies the wrapper and its inner mechanism.
func (r Rounded) Name() string { return "rounded(" + r.Inner.Name() + ")" }

// ReleaseCell releases through the inner mechanism, clamps at zero and
// rounds to an integer.
func (r Rounded) ReleaseCell(in CellInput, s *dist.Stream) (float64, error) {
	v, err := r.Inner.ReleaseCell(in, s)
	if err != nil {
		return 0, err
	}
	v = clampNonNegative(v)
	return float64(int64(v + 0.5)), nil
}

// ExpectedL1 returns the inner expected error plus the worst-case
// rounding error of 1/2.
func (r Rounded) ExpectedL1(in CellInput) float64 { return r.Inner.ExpectedL1(in) + 0.5 }
