// Package sdl implements the current statistical-disclosure-limitation
// protection for ER-EE data described in Section 5.1 of the paper: input
// noise infusion. Every establishment w receives a unique, time-invariant,
// confidential multiplicative distortion factor f_w drawn from
// [1−t, 1−s] ∪ [1+s, 1+t]; every cell of its worker-attribute histogram
// h(w, ·) is scaled by f_w; marginal answers add up the distorted
// histograms. Small positive cells are replaced by draws from a posterior
// predictive distribution supported on {1, …, ⌊S⌋}; zero cells are left
// at zero.
//
// The package also implements, as executable code, the three Section 5.2
// inference attacks that motivate the paper: exact shape disclosure,
// distortion-factor reconstruction, and zero-count re-identification.
//
// Confidential-parameter substitution: in production the band (s, t), the
// small-cell limit S and the posterior predictive distribution are all
// confidential. We use documented defaults (s = 0.1, t = 0.25, S = 2.5)
// and a uniform posterior predictive on {1, …, ⌊S⌋}. The attacks do not
// depend on these choices — they exploit the *structure* of the scheme
// (one factor per establishment, zeros preserved), not its parameters.
package sdl

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/table"
)

// Config holds the noise-infusion parameters.
type Config struct {
	// S and T bound the distortion band [1−T, 1−S] ∪ [1+S, 1+T].
	S, T float64
	// SmallCellLimit is the threshold below which positive cells are
	// replaced (the paper's S = 2.5 for this dataset).
	SmallCellLimit float64
}

// DefaultConfig returns the documented synthetic stand-ins for the
// confidential production parameters.
func DefaultConfig() Config {
	return Config{S: 0.1, T: 0.25, SmallCellLimit: 2.5}
}

// Validate returns an error describing the first invalid field, if any.
func (c Config) Validate() error {
	if !(c.S > 0 && c.T > c.S) {
		return fmt.Errorf("sdl: need 0 < s < t, got s=%v t=%v", c.S, c.T)
	}
	if !(c.SmallCellLimit >= 1) {
		return fmt.Errorf("sdl: small-cell limit must be >= 1, got %v", c.SmallCellLimit)
	}
	return nil
}

// System is an instantiated noise-infusion protection system: the
// configuration plus the per-establishment distortion factors, drawn once
// and reused for every query — the time-invariance that both protects
// against averaging attacks and enables the Section 5.2 reconstruction.
type System struct {
	cfg     Config
	factors []float64
}

// NewSystem draws distortion factors for numEstablishments establishments.
func NewSystem(cfg Config, numEstablishments int, s *dist.Stream) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if numEstablishments < 0 {
		return nil, fmt.Errorf("sdl: negative establishment count %d", numEstablishments)
	}
	// Batch-drawn, one factor per establishment; dist.Fill consumes the
	// stream exactly as the scalar loop it replaces, so systems built at
	// any code version agree bit for bit.
	g := dist.NewGapUniform(cfg.S, cfg.T)
	factors := make([]float64, numEstablishments)
	g.Fill(factors, s.Split("sdl-factors"))
	return &System{cfg: cfg, factors: factors}, nil
}

// Config returns the system's configuration.
func (sys *System) Config() Config { return sys.cfg }

// Factor returns establishment w's confidential distortion factor. It is
// exported so the attack demonstrations can verify their reconstructions;
// a production system would never reveal it.
func (sys *System) Factor(w int32) float64 {
	if w < 0 || int(w) >= len(sys.factors) {
		panic(fmt.Sprintf("sdl: establishment %d out of range", w))
	}
	return sys.factors[int(w)]
}

// ReleaseMarginal answers a marginal query under input noise infusion:
// for each cell, sum f_w · h(w, cell) over contributing establishments;
// then, if the cell's true count lies in (0, SmallCellLimit), replace the
// answer with a posterior-predictive draw from {1, …, ⌊S⌋}; zero cells
// stay exactly zero.
func (sys *System) ReleaseMarginal(t *table.Table, q *table.Query, s *dist.Stream) ([]float64, error) {
	marg, hist := table.ComputeDetailed(t, q)
	out := make([]float64, q.NumCells())
	for _, h := range hist {
		if h.Entity < 0 || int(h.Entity) >= len(sys.factors) {
			return nil, fmt.Errorf("sdl: record references establishment %d outside the factor table", h.Entity)
		}
		out[h.Cell] += sys.factors[h.Entity] * float64(h.Count)
	}
	limit := sys.cfg.SmallCellLimit
	maxDraw := int(math.Floor(limit))
	ps := s.Split("sdl-smallcell")
	for cell := range out {
		true_ := float64(marg.Counts[cell])
		if true_ > 0 && true_ < limit {
			// Posterior-predictive replacement (uniform substitution for
			// the confidential production distribution).
			out[cell] = float64(1 + ps.IntN(maxDraw))
		}
	}
	return out, nil
}
