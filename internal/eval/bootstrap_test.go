package eval

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
)

func TestBootstrapCIValidation(t *testing.T) {
	s := dist.NewStreamFromSeed(1)
	if _, _, err := BootstrapCI([]float64{1}, 0.95, 100, s); err == nil {
		t.Error("singleton accepted")
	}
	if _, _, err := BootstrapCI([]float64{1, 2}, 0, 100, s); err == nil {
		t.Error("level 0 accepted")
	}
	if _, _, err := BootstrapCI([]float64{1, 2}, 0.95, 5, s); err == nil {
		t.Error("too few resamples accepted")
	}
}

func TestBootstrapCICoversMean(t *testing.T) {
	s := dist.NewStreamFromSeed(2)
	values := []float64{1.0, 1.1, 0.9, 1.05, 0.95, 1.02, 0.98, 1.01}
	lo, hi, err := BootstrapCI(values, 0.95, 2000, s)
	if err != nil {
		t.Fatal(err)
	}
	mean := Mean(values)
	if !(lo <= mean && mean <= hi) {
		t.Errorf("CI [%v, %v] excludes the sample mean %v", lo, hi, mean)
	}
	if !(hi-lo > 0) || hi-lo > 0.5 {
		t.Errorf("CI width %v implausible for tight data", hi-lo)
	}
}

func TestBootstrapCIWidensWithSpread(t *testing.T) {
	tight := []float64{1, 1.01, 0.99, 1, 1.02, 0.98}
	wide := []float64{0.2, 1.8, 0.5, 1.5, 0.1, 1.9}
	loT, hiT, err := BootstrapCI(tight, 0.9, 1000, dist.NewStreamFromSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	loW, hiW, err := BootstrapCI(wide, 0.9, 1000, dist.NewStreamFromSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if hiW-loW <= hiT-loT {
		t.Errorf("wide data CI %v not wider than tight %v", hiW-loW, hiT-loT)
	}
}

func TestBootstrapCIDeterministic(t *testing.T) {
	values := []float64{1, 2, 3, 4, 5}
	lo1, hi1, err := BootstrapCI(values, 0.95, 500, dist.NewStreamFromSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	lo2, hi2, err := BootstrapCI(values, 0.95, 500, dist.NewStreamFromSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if lo1 != lo2 || hi1 != hi2 {
		t.Error("bootstrap not deterministic for fixed stream")
	}
}

func TestTrialValuesMatchRunGrid(t *testing.T) {
	// The per-trial values' mean must equal the corresponding grid
	// point's Overall exactly (same label-derived streams).
	h := testHarness(t)
	spec := GridSpec{
		Attrs:      Workload1Attrs(),
		Eps:        []float64{2, 4},
		Alpha:      []float64{0.1},
		Mechanisms: []core.MechanismKind{core.MechSmoothLaplace},
		Delta:      PaperDelta,
	}
	points, err := h.RunGrid(spec, MetricL1Ratio)
	if err != nil {
		t.Fatal(err)
	}
	for idx, p := range points {
		values, err := h.TrialValues(spec, MetricL1Ratio, idx)
		if err != nil {
			t.Fatal(err)
		}
		if len(values) != h.Trials {
			t.Fatalf("point %d: %d trial values, want %d", idx, len(values), h.Trials)
		}
		if math.Abs(Mean(values)-p.Overall) > 1e-9 {
			t.Errorf("point %d: trial mean %v != grid overall %v", idx, Mean(values), p.Overall)
		}
	}
}

func TestTrialValuesErrorBars(t *testing.T) {
	// End to end: bootstrap error bars for a grid point, covering the
	// point estimate.
	h := testHarness(t)
	spec := GridSpec{
		Attrs:      Workload1Attrs(),
		Eps:        []float64{2},
		Alpha:      []float64{0.1},
		Mechanisms: []core.MechanismKind{core.MechSmoothGamma},
		Delta:      PaperDelta,
	}
	points, err := h.RunGrid(spec, MetricL1Ratio)
	if err != nil {
		t.Fatal(err)
	}
	values, err := h.TrialValues(spec, MetricL1Ratio, 0)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := BootstrapCI(values, 0.95, 1000, dist.NewStreamFromSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if !(lo <= points[0].Overall && points[0].Overall <= hi) {
		t.Errorf("CI [%v, %v] excludes point estimate %v", lo, hi, points[0].Overall)
	}
}

func TestTrialValuesErrors(t *testing.T) {
	h := testHarness(t)
	spec := GridSpec{
		Attrs:      Workload1Attrs(),
		Eps:        []float64{0.25},
		Alpha:      []float64{0.1},
		Mechanisms: []core.MechanismKind{core.MechSmoothGamma},
		Delta:      PaperDelta,
	}
	if _, err := h.TrialValues(spec, MetricL1Ratio, 0); err == nil {
		t.Error("invalid point accepted")
	}
	if _, err := h.TrialValues(spec, MetricL1Ratio, 5); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("mean of empty should be NaN")
	}
}

// BootstrapCI computes a percentile-bootstrap confidence interval for the
// mean of per-trial metric values — the error bars for a figure's grid
// points. The paper plots point estimates over 20 trials; the bootstrap
// quantifies how much of the visual difference between mechanisms is
// trial noise (for the L1 ratios at small ε, quite a lot, which is why
// points near validity boundaries look erratic).
//
// level is the confidence level (e.g. 0.95); resamples the number of
// bootstrap resamples. The interval is deterministic given the stream.
func BootstrapCI(values []float64, level float64, resamples int, s *dist.Stream) (lo, hi float64, err error) {
	if len(values) < 2 {
		return 0, 0, fmt.Errorf("eval: bootstrap needs at least 2 values, got %d", len(values))
	}
	if !(level > 0 && level < 1) {
		return 0, 0, fmt.Errorf("eval: confidence level must be in (0,1), got %v", level)
	}
	if resamples < 10 {
		return 0, 0, fmt.Errorf("eval: need at least 10 resamples, got %d", resamples)
	}
	means := make([]float64, resamples)
	n := len(values)
	for r := range means {
		var sum float64
		for i := 0; i < n; i++ {
			sum += values[s.IntN(n)]
		}
		means[r] = sum / float64(n)
	}
	sort.Float64s(means)
	alpha := (1 - level) / 2
	loIdx := int(alpha * float64(resamples))
	hiIdx := int((1 - alpha) * float64(resamples))
	if hiIdx >= resamples {
		hiIdx = resamples - 1
	}
	return means[loIdx], means[hiIdx], nil
}

// Mean returns the arithmetic mean of the values.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}
