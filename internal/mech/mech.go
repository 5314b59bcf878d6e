// Package mech implements every release mechanism the paper evaluates:
//
//   - LogLaplace — Algorithm 1, the multiplicative mechanism whose global
//     sensitivity in log space is ln(1+α);
//   - SmoothGamma — Algorithm 2, smooth sensitivity with generalized-Cauchy
//     noise, pure (δ=0) ER-EE privacy;
//   - SmoothLaplace — Algorithm 3, smooth sensitivity with Laplace noise,
//     approximate (α,ε,δ)-ER-EE privacy;
//   - PureLaplace / EdgeLaplace — the classical Laplace mechanism, the
//     paper's edge-differential-privacy baseline (Section 6);
//   - TruncatedLaplace — the node-differential-privacy baseline: project
//     the bipartite graph to degree ≤ θ, then add Laplace(θ/ε) (Section 6,
//     Finding 6).
//
// All cell-level mechanisms consume a CellInput (the true count and the
// cell's largest single-establishment contribution x_v) and an explicit
// random stream, so releases are reproducible and parallelizable.
package mech

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/dist"
)

// CellInput is the per-cell data a mechanism needs: the true count and
// the paper's x_v, the largest number of workers a single establishment
// contributes to the cell (which sets smooth sensitivity via Lemma 8.5).
type CellInput struct {
	Count           float64
	MaxContribution int64
}

// CellMechanism releases cell counts. Implementations must be safe for
// concurrent use with distinct streams.
type CellMechanism interface {
	// Name identifies the mechanism in experiment output.
	Name() string
	// ReleaseCell returns the noisy count for one cell. It returns an
	// error if the mechanism's parameters are outside its validity region.
	ReleaseCell(in CellInput, s *dist.Stream) (float64, error)
	// releaseCellRange is the batch path every ReleaseCells chunk runs:
	// it releases a contiguous run of cells into a caller-owned buffer
	// with hoisted construction and batch-sampled noise. out and cells
	// are equal-length chunk views, base is the chunk's offset in the
	// full vector (cell j of the chunk draws from
	// parent.SplitIndex("cell", base+j)), and noise is a caller-owned
	// scratch of len(out) the implementation may overwrite. The result
	// must be bit-identical to calling ReleaseCell per cell. It returns
	// the chunk index of the first failing cell and its error, or −1 and
	// nil. The built-in mechanisms only fail on cell-independent
	// parameter checks, which every cell of the chunk fails, so they
	// report 0.
	releaseCellRange(out []float64, cells []CellInput, parent *dist.Stream, base int, noise []float64) (int, error)
}

// parallelCellCutoff is the vector length below which ReleaseCells stays
// single-chunk: goroutine startup costs more than drawing the noise.
const parallelCellCutoff = 512

// ReleaseCells applies a cell mechanism to a vector of cells, deriving a
// per-cell stream from the given parent so results do not depend on
// iteration order. Large vectors are released in parallel across
// GOMAXPROCS workers; the per-cell streams make the output bit-identical
// to the sequential path either way.
func ReleaseCells(m CellMechanism, cells []CellInput, parent *dist.Stream) ([]float64, error) {
	workers := runtime.GOMAXPROCS(0)
	if len(cells) < parallelCellCutoff {
		workers = 1
	}
	return ReleaseCellsParallel(m, cells, parent, workers)
}

// ReleaseCellsSequential is the scalar release loop, retained as the
// golden reference the batched chunk pipeline is tested against.
func ReleaseCellsSequential(m CellMechanism, cells []CellInput, parent *dist.Stream) ([]float64, error) {
	out := make([]float64, len(cells))
	for i, c := range cells {
		v, err := m.ReleaseCell(c, parent.SplitIndex("cell", i))
		if err != nil {
			return nil, fmt.Errorf("mech: %s cell %d: %w", m.Name(), i, err)
		}
		out[i] = v
	}
	return out, nil
}

// ReleaseCellsParallel releases the cell vector using the given number of
// worker goroutines over contiguous chunks. Cell i's noise always comes
// from parent.SplitIndex("cell", i) — the same label family the
// sequential loop uses — so the output is bit-identical at every worker
// count; only wall-clock time changes. SplitIndex is a pure function of
// the parent's identity, so sharing the parent across workers is safe.
//
// Each chunk runs the mechanism's batch path (hoisted construction,
// noise drawn through dist.FillSplit into a per-chunk buffer), so the
// steady-state release allocates one output vector and one scratch
// buffer per chunk — never per cell.
//
// On error the failing cell with the smallest index is reported,
// matching the sequential loop's first-error semantics.
func ReleaseCellsParallel(m CellMechanism, cells []CellInput, parent *dist.Stream, workers int) ([]float64, error) {
	if workers > len(cells) {
		workers = len(cells)
	}
	out := make([]float64, len(cells))
	if workers <= 1 {
		fail, err := m.releaseCellRange(out, cells, parent, 0, make([]float64, len(cells)))
		if err != nil {
			return nil, fmt.Errorf("mech: %s cell %d: %w", m.Name(), fail, err)
		}
		return out, nil
	}
	chunk := (len(cells) + workers - 1) / workers
	// Rounding the chunk up can leave trailing workers nothing to do
	// (10 cells over 8 workers are 5 chunks of 2); drop them.
	workers = (len(cells) + chunk - 1) / chunk
	errCells := make([]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(cells) {
			hi = len(cells)
		}
		errCells[w] = -1
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fail, err := m.releaseCellRange(out[lo:hi], cells[lo:hi], parent, lo, make([]float64, hi-lo))
			if err != nil {
				errCells[w] = lo + fail
				errs[w] = err
			}
		}(w, lo, hi)
	}
	wg.Wait()
	firstCell, firstErr := -1, error(nil)
	for w := range errs {
		if errs[w] != nil && (firstCell < 0 || errCells[w] < firstCell) {
			firstCell, firstErr = errCells[w], errs[w]
		}
	}
	if firstErr != nil {
		return nil, fmt.Errorf("mech: %s cell %d: %w", m.Name(), firstCell, firstErr)
	}
	return out, nil
}

// PureLaplace is the classical Laplace mechanism (Definition 2.4): add
// Laplace(Sensitivity/ε) noise. With Sensitivity = 1 it is the paper's
// edge-differential-privacy baseline; with Sensitivity = θ it is the
// post-truncation node-DP mechanism.
type PureLaplace struct {
	Eps         float64
	Sensitivity float64
	// label overrides the default name; NewEdgeLaplace sets it.
	label string
}

// NewPureLaplace validates the parameters and returns the mechanism.
func NewPureLaplace(eps, sensitivity float64) (PureLaplace, error) {
	if !(eps > 0) {
		return PureLaplace{}, fmt.Errorf("mech: Laplace requires eps > 0, got %v", eps)
	}
	if !(sensitivity > 0) {
		return PureLaplace{}, fmt.Errorf("mech: Laplace requires sensitivity > 0, got %v", sensitivity)
	}
	if err := checkLaplaceScale("Laplace", sensitivity/eps); err != nil {
		return PureLaplace{}, err
	}
	return PureLaplace{Eps: eps, Sensitivity: sensitivity}, nil
}

// maxLaplaceScale is the largest Laplace scale b a mechanism accepts.
// The sampler's uniform draw lies in [2⁻⁵³, 1 − 2⁻⁵³], so no draw is
// larger in magnitude than ln(2⁵²)·b ≈ 36.04·b; keeping that under half
// the largest float64 keeps any count below 2⁶³ plus its noise finite.
// The bound depends on the parameters alone, never on the data.
const maxLaplaceScale = math.MaxFloat64 / 2 / (52 * math.Ln2)

// checkLaplaceScale refuses a noise scale whose draws could overflow
// float64 (an infinite or NaN scale included).
func checkLaplaceScale(name string, b float64) error {
	if !(b <= maxLaplaceScale) {
		return fmt.Errorf("mech: %s noise scale %g exceeds %g, where a draw could overflow float64", name, b, float64(maxLaplaceScale))
	}
	return nil
}

// Name identifies the mechanism.
func (m PureLaplace) Name() string {
	if m.label != "" {
		return m.label
	}
	return fmt.Sprintf("laplace(eps=%g,sens=%g)", m.Eps, m.Sensitivity)
}

// ReleaseCell adds Laplace(Sensitivity/ε) noise to the count.
func (m PureLaplace) ReleaseCell(in CellInput, s *dist.Stream) (float64, error) {
	if !(m.Eps > 0) || !(m.Sensitivity > 0) {
		return 0, fmt.Errorf("mech: Laplace mechanism not initialized (eps=%v sens=%v)", m.Eps, m.Sensitivity)
	}
	return in.Count + dist.NewLaplace(m.Sensitivity/m.Eps).Sample(s), nil
}

// releaseCellRange is the batch path: one Laplace distribution for the
// whole chunk, noise batch-sampled from the per-cell stream family.
func (m PureLaplace) releaseCellRange(out []float64, cells []CellInput, parent *dist.Stream, base int, noise []float64) (int, error) {
	if !(m.Eps > 0) || !(m.Sensitivity > 0) {
		return 0, fmt.Errorf("mech: Laplace mechanism not initialized (eps=%v sens=%v)", m.Eps, m.Sensitivity)
	}
	dist.FillSplit(noise, dist.NewLaplace(m.Sensitivity/m.Eps), parent, "cell", base)
	for i := range out {
		out[i] = cells[i].Count + noise[i]
	}
	return -1, nil
}

// NewEdgeLaplace returns the edge-differential-privacy baseline:
// Laplace(1/ε) noise per cell. It satisfies the employee privacy
// requirement (Definition 4.1) but, as Section 6 shows, lets an informed
// attacker learn establishment sizes to within ±ln(1/p)/ε, violating
// Definitions 4.2 and 4.3.
func NewEdgeLaplace(eps float64) (PureLaplace, error) {
	m, err := NewPureLaplace(eps, 1)
	if err != nil {
		return PureLaplace{}, err
	}
	m.label = fmt.Sprintf("edge-laplace(eps=%g)", eps)
	return m, nil
}
