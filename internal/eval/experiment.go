package eval

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/lodes"
	"repro/internal/mech"
	"repro/internal/sdl"
	"repro/internal/table"
)

// Harness runs the paper's experiments over one dataset: it holds the
// instantiated SDL baseline (whose factors are drawn once, like the
// production system's time-invariant factors), caches the SDL release per
// workload (the "current publication" every ratio is computed against),
// and derives per-trial noise streams from a single seed. True marginals
// are served by a core.Publisher, so the harness shares the engine's
// marginal cache instead of keeping its own.
type Harness struct {
	Data   *lodes.Dataset
	Trials int

	pub      *core.Publisher
	sdlSys   *sdl.System
	seed     *dist.Stream
	sdlCache map[string][]float64
}

// NewHarness builds a harness over the dataset with the given trial count.
func NewHarness(d *lodes.Dataset, seed *dist.Stream, trials int) (*Harness, error) {
	if trials < 1 {
		return nil, fmt.Errorf("eval: trials must be >= 1, got %d", trials)
	}
	sys, err := sdl.NewSystem(sdl.DefaultConfig(), d.NumEstablishments(), seed.Split("sdl"))
	if err != nil {
		return nil, err
	}
	return &Harness{
		Data:     d,
		Trials:   trials,
		pub:      core.NewPublisher(d),
		sdlSys:   sys,
		seed:     seed,
		sdlCache: make(map[string][]float64),
	}, nil
}

// SDL returns the harness's SDL system (for the attack example).
func (h *Harness) SDL() *sdl.System { return h.sdlSys }

// Publisher returns the harness's release engine (and with it the
// marginal cache the figures share).
func (h *Harness) Publisher() *core.Publisher { return h.pub }

func attrsKey(attrs []string) string { return strings.Join(attrs, ",") }

// Marginal returns the (cached) true marginal for the attribute set.
func (h *Harness) Marginal(attrs []string) (*table.Marginal, error) {
	return h.pub.Marginal(attrs)
}

// Prefetch computes every not-yet-cached marginal among the attribute
// sets in one pass over the dataset, so a run of several figures pays a
// single table scan up front.
func (h *Harness) Prefetch(attrSets ...[]string) error {
	return h.pub.PrefetchMarginals(attrSets)
}

// PrefetchWorkloads prefetches the marginals behind every figure and
// finding (Workloads 1–3 share two distinct attribute sets).
func (h *Harness) PrefetchWorkloads() error {
	return h.Prefetch(Workload1Attrs(), Workload2Attrs(), Workload3Attrs())
}

// SDLRelease returns the (cached) SDL publication of the attribute set.
// The release is drawn once per harness, mirroring the fact that agencies
// publish a single noise-infused table, not a fresh draw per comparison.
func (h *Harness) SDLRelease(attrs []string) ([]float64, error) {
	key := attrsKey(attrs)
	if r, ok := h.sdlCache[key]; ok {
		return r, nil
	}
	m, err := h.Marginal(attrs)
	if err != nil {
		return nil, err
	}
	rel, err := h.sdlSys.ReleaseMarginal(h.Data.WorkerFull, m.Query, h.seed.Split("sdl-release-"+key))
	if err != nil {
		return nil, err
	}
	h.sdlCache[key] = rel
	return rel, nil
}

// Point is one grid point of a figure: a (mechanism, ε, α) combination
// with its overall metric and the metric per place-population stratum.
// Invalid points (parameters outside the mechanism's validity region, or
// Log-Laplace with unbounded expectation, which the paper does not plot)
// carry Valid=false and a Reason.
type Point struct {
	Mechanism core.MechanismKind
	Eps       float64
	Alpha     float64
	Valid     bool
	Reason    string
	Overall   float64
	Strata    [lodes.NumStrata]float64
}

// GridSpec describes a figure's experiment grid.
type GridSpec struct {
	// Attrs is the marginal's attribute set.
	Attrs []string
	// Eps and Alpha are the parameter grids.
	Eps, Alpha []float64
	// Mechanisms are the algorithms to compare.
	Mechanisms []core.MechanismKind
	// Delta is Smooth Laplace's failure probability.
	Delta float64
	// DivideEpsByWorkerDomain applies Workload 3's budget accounting: the
	// x-axis ε is the *total* marginal loss, so each cell runs at
	// ε / d where d is the worker-attribute domain size (weak ER-EE
	// privacy's Theorem 7.5 fallback).
	DivideEpsByWorkerDomain bool
	// Slice optionally restricts the evaluated cells to one
	// worker-attribute combination (Figure 5's "females with college
	// degrees" ranking).
	Slice *SliceSpec
}

// SliceSpec selects the cells of a marginal matching fixed values of a
// subset of its attributes.
type SliceSpec struct {
	Attrs  []string
	Values []string
}

// sliceMask returns the boolean mask of cells matching the slice.
func sliceMask(q *table.Query, slice *SliceSpec) ([]bool, error) {
	mask := make([]bool, q.NumCells())
	if slice == nil {
		for i := range mask {
			mask[i] = true
		}
		return mask, nil
	}
	if len(slice.Attrs) != len(slice.Values) {
		return nil, fmt.Errorf("eval: slice has %d attrs but %d values", len(slice.Attrs), len(slice.Values))
	}
	// Positions of the slice attributes within the query.
	pos := make([]int, len(slice.Attrs))
	want := make([]int, len(slice.Attrs))
	for i, name := range slice.Attrs {
		found := -1
		for j, a := range q.Attrs() {
			if q.Schema().Attr(a).Name == name {
				found = j
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("eval: slice attribute %q not in query", name)
		}
		pos[i] = found
		code, err := q.Schema().Attr(q.Attrs()[found]).Code(slice.Values[i])
		if err != nil {
			return nil, err
		}
		want[i] = code
	}
	codes := make([]int, len(q.Attrs()))
	for cell := range mask {
		codes = q.DecodeCell(cell, codes)
		ok := true
		for i := range pos {
			if codes[pos[i]] != want[i] {
				ok = false
				break
			}
		}
		mask[cell] = ok
	}
	return mask, nil
}

// buildCellMechanism constructs the cell mechanism for a grid point, or
// reports why the point is skipped.
func buildCellMechanism(kind core.MechanismKind, alpha, eps, delta float64) (mech.CellMechanism, string, error) {
	switch kind {
	case core.MechLogLaplace:
		m, err := mech.NewLogLaplace(alpha, eps)
		if err != nil {
			return nil, err.Error(), nil
		}
		if !m.ExpectationBounded() {
			return nil, "log-laplace expectation unbounded (lambda >= 1)", nil
		}
		return m, "", nil
	case core.MechSmoothGamma:
		m, err := mech.NewSmoothGamma(alpha, eps)
		if err != nil {
			return nil, err.Error(), nil
		}
		return m, "", nil
	case core.MechSmoothLaplace:
		m, err := mech.NewSmoothLaplace(alpha, eps, delta)
		if err != nil {
			return nil, err.Error(), nil
		}
		return m, "", nil
	case core.MechEdgeLaplace:
		m, err := mech.NewEdgeLaplace(eps)
		if err != nil {
			return nil, err.Error(), nil
		}
		return m, "", nil
	}
	return nil, "", fmt.Errorf("eval: mechanism %v is not a cell mechanism", kind)
}

// Metric selects which comparison a grid computes.
type Metric int

const (
	// MetricL1Ratio: average (over trials) DP L1 error divided by the SDL
	// release's L1 error, per Figure 1/3/4.
	MetricL1Ratio Metric = iota
	// MetricSpearman: average Spearman correlation between the DP ranking
	// and the SDL ranking, per Figure 2/5.
	MetricSpearman
)

// String names the metric.
func (m Metric) String() string {
	switch m {
	case MetricL1Ratio:
		return "l1-ratio"
	case MetricSpearman:
		return "spearman"
	}
	return fmt.Sprintf("Metric(%d)", int(m))
}

// RunGrid evaluates the grid and returns one Point per
// (mechanism, ε, α) combination, in mechanism-major order.
func (h *Harness) RunGrid(spec GridSpec, metric Metric) ([]Point, error) {
	marg, err := h.Marginal(spec.Attrs)
	if err != nil {
		return nil, err
	}
	q := marg.Query
	sdlRel, err := h.SDLRelease(spec.Attrs)
	if err != nil {
		return nil, err
	}
	strata, err := CellStrata(q, h.Data)
	if err != nil {
		return nil, err
	}
	stratumMasks := StratumMasks(strata)
	slice, err := sliceMask(q, spec.Slice)
	if err != nil {
		return nil, err
	}
	// Intersect each stratum mask with the slice.
	var masks [lodes.NumStrata][]bool
	for s := range masks {
		masks[s] = make([]bool, len(slice))
		for i := range slice {
			masks[s][i] = slice[i] && stratumMasks[s][i]
		}
	}

	// SDL reference errors (for L1 ratios).
	sdlOverall, _ := L1Masked(sdlRel, marg.Counts, slice)
	var sdlStrata [lodes.NumStrata]float64
	for s := range masks {
		sdlStrata[s], _ = L1Masked(sdlRel, marg.Counts, masks[s])
	}

	cells := core.CellInputs(marg)
	scoreMasks := append([][]bool{slice}, masks[:]...)

	// Enumerate the grid, then evaluate points in parallel. Per-point and
	// per-trial noise streams are derived from (mechanism, α, ε, trial)
	// labels — never from shared mutable state — so the parallel run is
	// bit-identical to the sequential one.
	grid := spec.gridPoints()
	mechs := make([]mech.CellMechanism, len(grid))
	points := make([]Point, len(grid))
	divisor := h.epsDivisor(spec)
	for i, p := range grid {
		m, reason, err := buildCellMechanism(p.kind, p.alpha, p.eps/divisor, spec.Delta)
		if err != nil {
			return nil, err
		}
		mechs[i] = m
		points[i] = Point{Mechanism: p.kind, Eps: p.eps, Alpha: p.alpha, Reason: reason}
	}
	var (
		wg       sync.WaitGroup
		firstErr error
		errOnce  sync.Once
	)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, p := range grid {
		if mechs[i] == nil {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			scores, err := h.trialScores(p, mechs[i], metric, cells, marg.Counts, sdlRel, scoreMasks)
			if err != nil {
				errOnce.Do(func() { firstErr = err })
				return
			}
			// Sum in trial order: the figure CSVs are pinned to it.
			var overall float64
			var strataAcc [lodes.NumStrata]float64
			for _, sc := range scores {
				overall += sc[0]
				for s := range strataAcc {
					strataAcc[s] += sc[1+s]
				}
			}
			n := float64(h.Trials)
			pt := &points[i]
			pt.Valid = true
			switch metric {
			case MetricL1Ratio:
				pt.Overall = overall / n / sdlOverall
				for s := range strataAcc {
					if sdlStrata[s] > 0 {
						pt.Strata[s] = strataAcc[s] / n / sdlStrata[s]
					} else {
						pt.Strata[s] = math.NaN()
					}
				}
			case MetricSpearman:
				pt.Overall = overall / n
				for s := range strataAcc {
					pt.Strata[s] = strataAcc[s] / n
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return points, nil
}

// TrialValues collects the per-trial overall metric values for one grid
// point (mechanism, ε, α) so callers can bootstrap error bars for it. It
// runs the same per-point trials as RunGrid, so the mean of the returned
// values equals the corresponding Point.Overall up to rounding.
func (h *Harness) TrialValues(spec GridSpec, metric Metric, pointIdx int) ([]float64, error) {
	grid := spec.gridPoints()
	if pointIdx < 0 || pointIdx >= len(grid) {
		return nil, fmt.Errorf("eval: point index %d out of range (%d points)", pointIdx, len(grid))
	}
	marg, err := h.Marginal(spec.Attrs)
	if err != nil {
		return nil, err
	}
	sdlRel, err := h.SDLRelease(spec.Attrs)
	if err != nil {
		return nil, err
	}
	slice, err := sliceMask(marg.Query, spec.Slice)
	if err != nil {
		return nil, err
	}
	p := grid[pointIdx]
	m, reason, err := buildCellMechanism(p.kind, p.alpha, p.eps/h.epsDivisor(spec), spec.Delta)
	if err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("eval: point invalid: %s", reason)
	}
	scores, err := h.trialScores(p, m, metric, core.CellInputs(marg), marg.Counts, sdlRel, [][]bool{slice})
	if err != nil {
		return nil, err
	}
	sdlL1, _ := L1Masked(sdlRel, marg.Counts, slice)
	out := make([]float64, len(scores))
	for trial, sc := range scores {
		out[trial] = sc[0]
		if metric == MetricL1Ratio {
			out[trial] /= sdlL1
		}
	}
	return out, nil
}

// gridPoint is one (mechanism, α, ε) combination of a GridSpec, ε as
// plotted.
type gridPoint struct {
	kind       core.MechanismKind
	alpha, eps float64
}

// gridPoints enumerates the spec's grid in mechanism-major order.
func (spec GridSpec) gridPoints() []gridPoint {
	var out []gridPoint
	for _, kind := range spec.Mechanisms {
		for _, alpha := range spec.Alpha {
			for _, eps := range spec.Eps {
				out = append(out, gridPoint{kind: kind, alpha: alpha, eps: eps})
			}
		}
	}
	return out
}

// epsDivisor is what each cell's ε is the plotted ε divided by: the
// worker-attribute domain size under Workload 3's accounting, else 1.
func (h *Harness) epsDivisor(spec GridSpec) float64 {
	if spec.DivideEpsByWorkerDomain {
		return float64(lodes.WorkerAttrDomainSize(h.Data.Schema(), spec.Attrs))
	}
	return 1
}

// trialScores runs the point's h.Trials releases of m, each from the
// point's label-derived trial stream, and scores every noisy vector
// under metric on each mask: scores[trial][k] is the score on masks[k].
// An L1 score is the raw L1 error against truth (callers divide by the
// SDL release's); a Spearman score is the correlation with the SDL
// ranking.
func (h *Harness) trialScores(p gridPoint, m mech.CellMechanism, metric Metric, cells []mech.CellInput, truth []int64, sdlRel []float64, masks [][]bool) ([][]float64, error) {
	if metric != MetricL1Ratio && metric != MetricSpearman {
		return nil, fmt.Errorf("eval: unknown metric %v", metric)
	}
	label := fmt.Sprintf("grid/%v/a=%g/e=%g/%v", p.kind, p.alpha, p.eps, metric)
	scores := make([][]float64, h.Trials)
	for trial := range scores {
		stream := h.seed.Split(label).SplitIndex("trial", trial)
		noisy, err := mech.ReleaseCells(m, cells, stream)
		if err != nil {
			return nil, err
		}
		scores[trial] = make([]float64, len(masks))
		for k, mask := range masks {
			if metric == MetricL1Ratio {
				scores[trial][k], _ = L1Masked(noisy, truth, mask)
			} else {
				scores[trial][k] = SpearmanMasked(noisy, sdlRel, mask)
			}
		}
	}
	return scores, nil
}

// TruncatedPoint is one grid point of the node-DP baseline sweep.
type TruncatedPoint struct {
	Theta            int
	Eps              float64
	L1Ratio          float64
	Spearman         float64
	RemovedEmployers int
	RemovedEdges     int
}

// RunTruncatedGrid evaluates the Truncated Laplace baseline over
// (θ, ε) for the attribute set, producing the data behind Finding 6.
// Each θ's truncated marginal is one θ-filtered scan of the dataset's
// index; every (ε, trial) draws only its noise.
func (h *Harness) RunTruncatedGrid(attrs []string, thetas []int, epsGrid []float64) ([]TruncatedPoint, error) {
	marg, err := h.Marginal(attrs)
	if err != nil {
		return nil, err
	}
	sdlRel, err := h.SDLRelease(attrs)
	if err != nil {
		return nil, err
	}
	sdlL1 := L1(sdlRel, marg.Counts)
	ix := h.Data.WorkerFull.Index()
	var points []TruncatedPoint
	for _, theta := range thetas {
		truncated, tr, err := ix.ComputeTruncated(marg.Query, theta)
		if err != nil {
			return nil, err
		}
		for _, eps := range epsGrid {
			m, err := mech.NewTruncatedLaplace(eps, theta)
			if err != nil {
				return nil, err
			}
			var l1Sum, spSum float64
			label := fmt.Sprintf("trunc/t=%d/e=%g", theta, eps)
			for trial := 0; trial < h.Trials; trial++ {
				stream := h.seed.Split(label).SplitIndex("trial", trial)
				noisy, err := m.ReleaseCounts(truncated.Counts, stream)
				if err != nil {
					return nil, err
				}
				l1Sum += L1(noisy, marg.Counts)
				spSum += Spearman(noisy, sdlRel)
			}
			n := float64(h.Trials)
			points = append(points, TruncatedPoint{
				Theta: theta, Eps: eps,
				L1Ratio:          l1Sum / n / sdlL1,
				Spearman:         spSum / n,
				RemovedEmployers: tr.RemovedGroups,
				RemovedEdges:     tr.RemovedRows,
			})
		}
	}
	return points, nil
}

// RelativeErrorComparison returns the fraction of *published* cells
// (cells with a positive true count — relative error is ill-defined on
// empty cells) whose per-cell relative error under the mechanism is
// within tol of the SDL release's (averaged over trials) — the paper's
// "within 10 percentage points for 65% / 75% / 29% of counts" statistic
// in Finding 1.
func (h *Harness) RelativeErrorComparison(attrs []string, kind core.MechanismKind, alpha, eps, delta, tol float64) (float64, error) {
	marg, err := h.Marginal(attrs)
	if err != nil {
		return 0, err
	}
	sdlRel, err := h.SDLRelease(attrs)
	if err != nil {
		return 0, err
	}
	sdlRelErr := RelativeErrors(sdlRel, marg.Counts)
	m, reason, err := buildCellMechanism(kind, alpha, eps, delta)
	if err != nil {
		return 0, err
	}
	if m == nil {
		return 0, fmt.Errorf("eval: invalid parameters: %s", reason)
	}
	cells := core.CellInputs(marg)
	positive := make([]int, 0, len(marg.Counts))
	for i, c := range marg.Counts {
		if c > 0 {
			positive = append(positive, i)
		}
	}
	if len(positive) == 0 {
		return 0, fmt.Errorf("eval: marginal has no positive cells")
	}
	var acc float64
	for trial := 0; trial < h.Trials; trial++ {
		stream := h.seed.Split("relerr").SplitIndex("trial", trial)
		noisy, err := mech.ReleaseCells(m, cells, stream)
		if err != nil {
			return 0, err
		}
		dpRelErr := RelativeErrors(noisy, marg.Counts)
		a := make([]float64, len(positive))
		b := make([]float64, len(positive))
		for j, i := range positive {
			a[j], b[j] = dpRelErr[i], sdlRelErr[i]
		}
		acc += FractionWithin(a, b, tol)
	}
	return acc / float64(h.Trials), nil
}
