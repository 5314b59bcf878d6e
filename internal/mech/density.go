package mech

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/smooth"
)

// DensityMechanism is a cell mechanism whose released value has a known
// probability density given the input. Densities are what make the
// Pufferfish verification of Table 1 possible (the tests of
// internal/pufferfish): the privacy definitions bound ratios of release
// densities across neighboring inputs, and with closed forms those
// ratios can be checked directly instead of estimated from samples. No
// release path evaluates a density; they live here, not in a test file,
// because that verifier is another package's test and methods cannot be
// declared outside package mech.
type DensityMechanism interface {
	CellMechanism
	// ReleaseDensity returns the pdf of the released value at o for a
	// cell with the given input.
	ReleaseDensity(in CellInput, o float64) float64
}

// ReleaseDensity for the Laplace mechanism: the released value is
// count + Laplace(Sensitivity/ε), a location shift of the Laplace
// density.
func (m PureLaplace) ReleaseDensity(in CellInput, o float64) float64 {
	if !(m.Eps > 0) || !(m.Sensitivity > 0) {
		panic("mech: Laplace mechanism not initialized")
	}
	return dist.NewLaplace(m.Sensitivity / m.Eps).PDF(o - in.Count)
}

// ReleaseDensity for Log-Laplace: the release is (n+γ)·e^η − γ with
// η ~ Laplace(λ), so by change of variables the density at o > −γ is
// Laplace_λ(ln((o+γ)/(n+γ))) / (o+γ), and 0 for o ≤ −γ.
func (m LogLaplace) ReleaseDensity(in CellInput, o float64) float64 {
	gamma := m.Gamma()
	if o <= -gamma {
		return 0
	}
	eta := math.Log((o + gamma) / (in.Count + gamma))
	return dist.NewLaplace(m.Lambda()).PDF(eta) / (o + gamma)
}

// smoothScale returns the noise scale S*/a the smooth mechanisms apply to a
// cell, or an error outside the validity region.
func smoothScale(alpha float64, split smooth.Split, in CellInput) (float64, error) {
	sens, err := smooth.Sensitivity(in.MaxContribution, alpha, split.B)
	if err != nil {
		return 0, err
	}
	return sens / split.A, nil
}

// ReleaseDensity for Smooth Gamma: a location-scale transform of the
// generalized-Cauchy density, with scale S*(x)/a.
func (m SmoothGamma) ReleaseDensity(in CellInput, o float64) float64 {
	if !(m.split.A > 0) {
		panic("mech: SmoothGamma not initialized; use NewSmoothGamma")
	}
	scale, err := smoothScale(m.Alpha, m.split, in)
	if err != nil {
		panic(fmt.Sprintf("mech: %v", err))
	}
	return dist.GenCauchy{}.PDF((o-in.Count)/scale) / scale
}

// ReleaseDensity for Smooth Laplace: a location-scale transform of the
// unit Laplace density, with scale S*(x)/(ε/2).
func (m SmoothLaplace) ReleaseDensity(in CellInput, o float64) float64 {
	if !(m.split.A > 0) {
		panic("mech: SmoothLaplace not initialized; use NewSmoothLaplace")
	}
	scale, err := smoothScale(m.Alpha, m.split, in)
	if err != nil {
		panic(fmt.Sprintf("mech: %v", err))
	}
	return dist.NewLaplace(1).PDF((o-in.Count)/scale) / scale
}
