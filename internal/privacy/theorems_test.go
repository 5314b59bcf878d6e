package privacy

// The paper's privacy semantics that no release path computes, kept as
// the closed forms privacy_test.go checks: the Section 7.2 database
// metric induced by α-neighbors, the Bayes-factor bounds an adversary
// can achieve at a given distance, the δ amplification of approximate
// privacy (Section 9, Equation 13), Section 6's edge-DP leakage bound,
// and the parallel composition of Theorems 7.4 and 7.5.

import (
	"fmt"
	"math"
)

// NeighborDistance returns the number of α-neighbor steps needed to move
// an establishment's size from x to y (Section 7.2): each step multiplies
// the size by at most (1+α) (or adds one worker, whichever is larger), so
// the distance from x to y ≥ x is the smallest k with x·(1+α)^k ≥ y,
// i.e. k = ⌈log(y/x) / log(1+α)⌉. x and y with x > y are symmetric.
// Changes to workplace attributes are at infinite distance (they are
// public and never perturbed), which callers represent separately.
func NeighborDistance(x, y float64, alpha float64) int {
	if !(alpha > 0) {
		panic(fmt.Sprintf("privacy: alpha must be positive, got %v", alpha))
	}
	if !(x > 0) || !(y > 0) {
		panic(fmt.Sprintf("privacy: sizes must be positive, got %v and %v", x, y))
	}
	if x > y {
		x, y = y, x
	}
	if x == y {
		return 0
	}
	ratio := y / x
	k := math.Log(ratio) / math.Log(1+alpha)
	// Guard against floating point landing just above an integer.
	ceil := math.Ceil(k - 1e-12)
	if ceil < 1 {
		ceil = 1
	}
	return int(ceil)
}

// BayesFactorBound returns the bound on the log Bayes factor an adversary
// can achieve between two databases at the given neighbor distance under
// an (α,ε) guarantee (Equation 8): ε·distance. A distance-k pair of
// establishment sizes x and (1+α)^k·x can be distinguished with log-odds
// at most ε·k.
func BayesFactorBound(eps float64, distance int) float64 {
	if !(eps > 0) || distance < 0 {
		panic(fmt.Sprintf("privacy: invalid eps=%v or distance=%d", eps, distance))
	}
	return eps * float64(distance)
}

// SizeInferenceBound combines the two: the maximum log Bayes factor an
// adversary can achieve between establishment sizes x and y under an
// (α,ε) guarantee.
func SizeInferenceBound(x, y, alpha, eps float64) float64 {
	return BayesFactorBound(eps, NeighborDistance(x, y, alpha))
}

// DeltaAtDistance returns the failure-probability amplification of
// approximate privacy at database distance d (Equation 13): releasing
// under (α,ε,δ)-ER-EE privacy lets an adversary distinguish databases at
// distance d with ratio e^{εd} plus an additive term of order
// δ·e^{ε(d−1)}·d (the geometric accumulation of per-step failures). When
// the returned value reaches 1 the adversary can, in the worst case, rule
// out one database entirely — the qualitative drawback Section 9 warns
// about.
func DeltaAtDistance(eps, delta float64, d int) float64 {
	if !(eps > 0) || !(delta >= 0 && delta < 1) || d < 1 {
		panic(fmt.Sprintf("privacy: invalid eps=%v delta=%v d=%d", eps, delta, d))
	}
	// delta * sum_{i=0}^{d-1} e^{eps*i} = delta * (e^{eps d} - 1)/(e^eps - 1).
	amplified := delta * (math.Exp(eps*float64(d)) - 1) / (math.Exp(eps) - 1)
	return math.Min(1, amplified)
}

// EdgeDPLeakage quantifies Section 6's argument that edge-DP leaks
// establishment sizes: with probability 1−p, Laplace(1/ε) noise has
// magnitude at most ln(1/p)/ε, so an attacker observing a
// single-establishment cell learns its size to within that absolute
// bound — a bound that does not grow with the establishment, violating
// the multiplicative protection Definition 4.2 demands.
func EdgeDPLeakage(eps, p float64) float64 {
	if !(eps > 0) || !(p > 0 && p < 1) {
		panic(fmt.Sprintf("privacy: invalid eps=%v or p=%v", eps, p))
	}
	return math.Log(1/p) / eps
}

// Partition describes how two sub-releases split the data, for parallel
// composition.
type Partition int

const (
	// DistinctEstablishments: the sub-datasets pertain to disjoint sets of
	// establishments (Theorem 7.4): parallel composition holds for both
	// strong and weak ER-EE privacy.
	DistinctEstablishments Partition = iota
	// DistinctWorkersSharedEstablishments: the sub-datasets pertain to
	// disjoint workers but can share establishments — e.g. "males in New
	// York" and "females in New York" (Theorem 7.5): parallel composition
	// holds for strong ER-EE privacy but NOT for weak.
	DistinctWorkersSharedEstablishments
)

// String names the partition for diagnostics.
func (p Partition) String() string {
	switch p {
	case DistinctEstablishments:
		return "distinct-establishments"
	case DistinctWorkersSharedEstablishments:
		return "distinct-workers-shared-establishments"
	}
	return fmt.Sprintf("Partition(%d)", int(p))
}

// ParallelCompose implements Theorems 7.4 and 7.5: the loss of releasing
// two mechanisms on disjoint parts of the data. For partitions where
// parallel composition holds the total ε is the max of the parts; where
// it does not hold (weak privacy across workers sharing establishments)
// it falls back to sequential composition and reports that via the
// returned fellBack flag.
func ParallelCompose(a, b Loss, p Partition) (total Loss, fellBack bool, err error) {
	if err := compatible(a, b); err != nil {
		return Loss{}, false, err
	}
	holds := true
	if p == DistinctWorkersSharedEstablishments && a.Def == WeakEREE {
		holds = false
	}
	if !holds {
		seq, err := SequentialCompose(a, b)
		return seq, true, err
	}
	return Loss{
		Def:   a.Def,
		Alpha: a.Alpha,
		Eps:   math.Max(a.Eps, b.Eps),
		Delta: math.Max(a.Delta, b.Delta),
	}, false, nil
}
