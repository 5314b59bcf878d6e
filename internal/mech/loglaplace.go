package mech

import (
	"fmt"
	"math"

	"repro/internal/dist"
)

// LogLaplace is Algorithm 1 of the paper: add Laplace noise to the
// logarithm of the (shifted) count. The count query has unbounded global
// sensitivity under α-neighbors (a neighbor can change a count of x by
// α·x), but ln(n + γ) with γ = 1/α has global sensitivity ln(1+α), so
//
//	ñ = e^{ln(n+γ) + η} − γ,   η ~ Laplace(2·ln(1+α)/ε)
//
// satisfies (α,ε)-ER-EE privacy for establishment-attribute queries and
// weak (α,ε)-ER-EE privacy for queries that also involve worker
// attributes (Theorem 8.1).
//
// The mechanism is multiplicative and therefore biased (Lemma 8.2):
// E[ñ] + γ = (n+γ)/(1−λ²) when λ = 2·ln(1+α)/ε < 1, and the expectation
// is unbounded when λ ≥ 1. Section 10 omits Log-Laplace results whenever
// the expectation is unbounded; ExpectationBounded exposes that predicate.
type LogLaplace struct {
	Alpha, Eps float64
}

// NewLogLaplace validates the parameters and returns the mechanism. It
// refuses any (α, ε) under which some count below 2⁶³ could release a
// non-finite value: no log-space draw exceeds ln(2⁵²)·λ (see
// maxLaplaceScale), so ln(2⁶³ + γ) + ln(2⁵²)·λ must stay below the log
// of the largest float64. Like maxLaplaceScale, the bound keeps half of
// it as headroom (math.Exp overflows a few ulps short of
// ln(math.MaxFloat64)) and depends on the parameters alone. At α = 0.1
// it refuses ε below about 0.0103.
func NewLogLaplace(alpha, eps float64) (LogLaplace, error) {
	if !(alpha > 0) {
		return LogLaplace{}, fmt.Errorf("mech: LogLaplace requires alpha > 0, got %v", alpha)
	}
	if !(eps > 0) {
		return LogLaplace{}, fmt.Errorf("mech: LogLaplace requires eps > 0, got %v", eps)
	}
	m := LogLaplace{Alpha: alpha, Eps: eps}
	if top := math.Log(0x1p63+m.Gamma()) + 52*math.Ln2*m.Lambda(); !(top < math.Log(math.MaxFloat64/2)) {
		return LogLaplace{}, fmt.Errorf("mech: LogLaplace log-space noise scale %g at alpha=%v eps=%v, where a draw could overflow float64", m.Lambda(), alpha, eps)
	}
	return m, nil
}

// Name identifies the mechanism.
func (m LogLaplace) Name() string {
	return fmt.Sprintf("log-laplace(alpha=%g,eps=%g)", m.Alpha, m.Eps)
}

// Gamma returns the shift γ = 1/α.
func (m LogLaplace) Gamma() float64 { return 1 / m.Alpha }

// Lambda returns the log-space noise scale λ = 2·ln(1+α)/ε.
func (m LogLaplace) Lambda() float64 { return 2 * math.Log(1+m.Alpha) / m.Eps }

// ExpectationBounded reports whether E[ñ] is finite, i.e. λ < 1
// (Lemma 8.2).
func (m LogLaplace) ExpectationBounded() bool { return m.Lambda() < 1 }

// ReleaseCell applies Algorithm 1 to the cell. x_v is not used: the
// mechanism calibrates to global (log-space) sensitivity, not smooth
// sensitivity.
func (m LogLaplace) ReleaseCell(in CellInput, s *dist.Stream) (float64, error) {
	if !(m.Alpha > 0) || !(m.Eps > 0) {
		return 0, fmt.Errorf("mech: LogLaplace not initialized (alpha=%v eps=%v)", m.Alpha, m.Eps)
	}
	gamma := m.Gamma()
	eta := dist.NewLaplace(m.Lambda()).Sample(s)
	return math.Exp(math.Log(in.Count+gamma)+eta) - gamma, nil
}

// releaseCellRange is the batch path: γ, λ and the log-space Laplace are
// hoisted out of the cell loop and the noise is batch-sampled from the
// per-cell stream family — bit-identical to per-cell ReleaseCell.
func (m LogLaplace) releaseCellRange(out []float64, cells []CellInput, parent *dist.Stream, base int, noise []float64) (int, error) {
	if !(m.Alpha > 0) || !(m.Eps > 0) {
		return 0, fmt.Errorf("mech: LogLaplace not initialized (alpha=%v eps=%v)", m.Alpha, m.Eps)
	}
	gamma := m.Gamma()
	dist.FillSplit(noise, dist.NewLaplace(m.Lambda()), parent, "cell", base)
	for i := range out {
		out[i] = math.Exp(math.Log(cells[i].Count+gamma)+noise[i]) - gamma
	}
	return -1, nil
}
