// Package pufferfish verifies the paper's Pufferfish-style privacy
// requirements computationally. The Section 4 definitions all bound an
// informed attacker's Bayes factor — the ratio of posterior odds to
// prior odds between two secrets — after observing a release. For
// mechanisms with closed-form release densities (every parametric
// mechanism in internal/mech), that bound can be *checked directly*:
//
//   - pairwise: the density ratio between two neighboring inputs must be
//     at most e^ε everywhere on the output line (the Definition 7.2/7.4
//     inequality, and via Theorems 7.1/7.2 the statutory requirements);
//   - Bayesian: for any prior over a finite universe of candidate worlds
//     factored as the paper's Θ requires, the posterior/prior odds ratio
//     between two secret predicates must be at most e^ε (Definitions
//     4.1 and 4.2 verbatim).
//
// The package is test-only: its tests verify that the paper's
// mechanisms *pass* and the baselines *fail* exactly where Table 1 says
// they should. This file holds the verifier; the mechanisms' closed-form
// densities are mech.DensityMechanism's ReleaseDensity methods.
package pufferfish

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mech"
)

// Grid is a range of outputs to scan. Verification is sound up to the
// grid's resolution: the densities involved are smooth and unimodal, so
// a fine grid over a wide range bounds the supremum well.
type Grid struct {
	Lo, Hi, Step float64
}

// DefaultGrid covers an interval comfortably containing both inputs'
// central mass, at a resolution fine relative to the noise scale.
func DefaultGrid(a, b mech.CellInput) Grid {
	lo := math.Min(a.Count, b.Count)
	hi := math.Max(a.Count, b.Count)
	span := (hi - lo) + 40*math.Max(1, math.Max(float64(a.MaxContribution), float64(b.MaxContribution))/5)
	return Grid{Lo: lo - span, Hi: hi + span, Step: math.Max(span/4000, 1e-3)}
}

// Validate returns an error for degenerate grids.
func (g Grid) Validate() error {
	if !(g.Step > 0) || !(g.Hi > g.Lo) {
		return fmt.Errorf("pufferfish: invalid grid [%v, %v] step %v", g.Lo, g.Hi, g.Step)
	}
	return nil
}

// PairResult reports a pairwise neighbor check.
type PairResult struct {
	// MaxLogRatio is the largest |ln(f_A(o)/f_B(o))| observed.
	MaxLogRatio float64
	// ArgMax is the output where it occurred.
	ArgMax float64
	// Satisfied reports MaxLogRatio <= eps (up to numerical slack).
	Satisfied bool
}

// VerifyNeighbors scans the release-density ratio between two inputs
// that the caller asserts are neighbors (distance 1) under some privacy
// definition, and checks it never exceeds e^ε. Outputs where both
// densities are below floor are skipped: ratios of sub-floor tails are
// numerically meaningless and carry negligible probability.
func VerifyNeighbors(m mech.DensityMechanism, a, b mech.CellInput, eps float64, g Grid) (PairResult, error) {
	if err := g.Validate(); err != nil {
		return PairResult{}, err
	}
	if !(eps > 0) {
		return PairResult{}, fmt.Errorf("pufferfish: eps must be positive, got %v", eps)
	}
	const floor = 1e-300
	res := PairResult{}
	for o := g.Lo; o <= g.Hi; o += g.Step {
		fa, fb := m.ReleaseDensity(a, o), m.ReleaseDensity(b, o)
		if fa < floor && fb < floor {
			continue
		}
		if fa < floor || fb < floor {
			// One side has zero density where the other does not: the
			// ratio is unbounded (e.g. Log-Laplace supports differ only
			// at -gamma, which the grid may or may not straddle).
			res.MaxLogRatio = math.Inf(1)
			res.ArgMax = o
			res.Satisfied = false
			return res, nil
		}
		r := math.Abs(math.Log(fa / fb))
		if r > res.MaxLogRatio {
			res.MaxLogRatio = r
			res.ArgMax = o
		}
	}
	res.Satisfied = res.MaxLogRatio <= eps*(1+1e-9)+1e-12
	return res, nil
}

// World is one candidate dataset in a finite adversarial universe: a
// label naming the secret configuration, the cell input the mechanism
// would see, and the adversary's prior probability.
type World struct {
	Label string
	Input mech.CellInput
	Prior float64
}

// BayesResult reports a Bayes-factor check between two secret predicates.
type BayesResult struct {
	// MaxLogBayesFactor is the largest |ln(posterior-odds/prior-odds)|
	// observed over the output grid.
	MaxLogBayesFactor float64
	// ArgMax is the output where it occurred.
	ArgMax float64
	// Satisfied reports MaxLogBayesFactor <= eps (up to slack).
	Satisfied bool
}

// MaxBayesFactor computes the worst-case Bayes factor an adversary with
// the given prior can achieve between secrets A and B (predicates over
// world labels) from one release — Definition 4.1/4.2's left-hand side,
// evaluated exactly via the mechanism's densities:
//
//	BF(o) = [ Σ_{w∈A} π_w f_w(o) / Σ_{w∈B} π_w f_w(o) ] / [ π(A)/π(B) ].
func MaxBayesFactor(m mech.DensityMechanism, worlds []World, inA, inB func(World) bool, eps float64, g Grid) (BayesResult, error) {
	if err := g.Validate(); err != nil {
		return BayesResult{}, err
	}
	if !(eps > 0) {
		return BayesResult{}, fmt.Errorf("pufferfish: eps must be positive, got %v", eps)
	}
	var priorA, priorB float64
	for _, w := range worlds {
		if !(w.Prior >= 0) {
			return BayesResult{}, fmt.Errorf("pufferfish: world %q has negative prior", w.Label)
		}
		if inA(w) && inB(w) {
			return BayesResult{}, fmt.Errorf("pufferfish: world %q is in both secrets", w.Label)
		}
		if inA(w) {
			priorA += w.Prior
		}
		if inB(w) {
			priorB += w.Prior
		}
	}
	if priorA == 0 || priorB == 0 {
		return BayesResult{}, fmt.Errorf("pufferfish: a secret has zero prior mass (A=%v, B=%v)", priorA, priorB)
	}
	const floor = 1e-300
	res := BayesResult{}
	for o := g.Lo; o <= g.Hi; o += g.Step {
		var likeA, likeB float64
		for _, w := range worlds {
			if w.Prior == 0 {
				continue
			}
			f := m.ReleaseDensity(w.Input, o)
			if inA(w) {
				likeA += w.Prior * f
			}
			if inB(w) {
				likeB += w.Prior * f
			}
		}
		if likeA < floor && likeB < floor {
			continue
		}
		if likeA < floor || likeB < floor {
			res.MaxLogBayesFactor = math.Inf(1)
			res.ArgMax = o
			res.Satisfied = false
			return res, nil
		}
		bf := math.Abs(math.Log((likeA / likeB) / (priorA / priorB)))
		if bf > res.MaxLogBayesFactor {
			res.MaxLogBayesFactor = bf
			res.ArgMax = o
		}
	}
	res.Satisfied = res.MaxLogBayesFactor <= eps*(1+1e-9)+1e-12
	return res, nil
}

// EmployeeWorlds builds the canonical universe for the employee
// requirement (Definition 4.1): the attacker knows the whole cell except
// whether one target worker's record contributes to it. World "in" has
// the worker present (count n, the worker at an establishment already
// contributing c workers), world "out" has them absent. p is the
// attacker's prior that the worker is in.
func EmployeeWorlds(n int64, xv int64, p float64) []World {
	return []World{
		{Label: "in", Input: mech.CellInput{Count: float64(n), MaxContribution: xv}, Prior: p},
		{Label: "out", Input: mech.CellInput{Count: float64(n - 1), MaxContribution: maxI64(xv-1, 0)}, Prior: 1 - p},
	}
}

// EmployerSizeWorlds builds the universe for the employer-size
// requirement (Definition 4.2) on a single-establishment cell: candidate
// sizes with the attacker's prior over them. The requirement bounds the
// Bayes factor between any two sizes x ≤ y ≤ (1+α)x.
func EmployerSizeWorlds(sizes []int64, priors []float64) ([]World, error) {
	if len(sizes) != len(priors) {
		return nil, fmt.Errorf("pufferfish: %d sizes but %d priors", len(sizes), len(priors))
	}
	worlds := make([]World, len(sizes))
	for i, s := range sizes {
		if s < 0 {
			return nil, fmt.Errorf("pufferfish: negative size %d", s)
		}
		worlds[i] = World{
			Label: fmt.Sprintf("size=%d", s),
			Input: mech.CellInput{Count: float64(s), MaxContribution: s},
			Prior: priors[i],
		}
	}
	return worlds, nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// BenchmarkPufferfishVerify measures the Bayes-factor verifier on the
// employee-requirement universe.
func BenchmarkPufferfishVerify(b *testing.B) {
	m, err := mech.NewSmoothGamma(0.1, 2)
	if err != nil {
		b.Fatal(err)
	}
	worlds := EmployeeWorlds(1000, 40, 0.5)
	grid := DefaultGrid(worlds[0].Input, worlds[1].Input)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := MaxBayesFactor(m, worlds,
			func(w World) bool { return w.Label == "in" },
			func(w World) bool { return w.Label == "out" },
			2, grid)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Satisfied {
			b.Fatal("verification failed")
		}
	}
}
