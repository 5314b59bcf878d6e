package mech

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dist"
)

// cellMechanisms instantiates every cell-level mechanism at paper-typical
// parameters.
func cellMechanisms(t *testing.T) map[string]CellMechanism {
	t.Helper()
	out := make(map[string]CellMechanism)
	ll, err := NewLogLaplace(0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	out["log-laplace"] = ll
	sg, err := NewSmoothGamma(0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	out["smooth-gamma"] = sg
	sl, err := NewSmoothLaplace(0.1, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	out["smooth-laplace"] = sl
	el, err := NewEdgeLaplace(2)
	if err != nil {
		t.Fatal(err)
	}
	out["edge-laplace"] = el
	return out
}

func testCells(n int) []CellInput {
	cells := make([]CellInput, n)
	for i := range cells {
		cells[i] = CellInput{
			Count:           float64((i * 37) % 900),
			MaxContribution: int64(1 + (i*13)%400),
		}
	}
	return cells
}

// TestReleaseCellsParallelGolden is the determinism contract of the
// parallel release pipeline: for every mechanism, the parallel path at
// worker counts 1, 2 and 8 is bit-identical to the sequential loop —
// stream-label splitting ties cell i's noise to the cell, not to the
// goroutine that draws it.
func TestReleaseCellsParallelGolden(t *testing.T) {
	cells := testCells(1000)
	for name, m := range cellMechanisms(t) {
		parent := dist.NewStreamFromSeed(77)
		want, err := ReleaseCellsSequential(m, cells, parent)
		if err != nil {
			t.Fatalf("%s: sequential: %v", name, err)
		}
		for _, workers := range []int{1, 2, 8} {
			got, err := ReleaseCellsParallel(m, cells, dist.NewStreamFromSeed(77), workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: cell %d = %v, want %v (not bit-identical)",
						name, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestReleaseCellsRoutesThroughParallel checks the public entry point
// agrees with the sequential reference on vectors both below and above
// the parallel cutoff.
func TestReleaseCellsRoutesThroughParallel(t *testing.T) {
	for _, n := range []int{0, 3, parallelCellCutoff - 1, parallelCellCutoff + 100, 2000} {
		cells := testCells(n)
		m, err := NewSmoothGamma(0.1, 2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ReleaseCellsSequential(m, cells, dist.NewStreamFromSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReleaseCells(m, cells, dist.NewStreamFromSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: length %d, want %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: cell %d = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

// failAfter errors on every cell whose count is >= failFrom, to test
// error propagation order.
type failAfter struct {
	inner    CellMechanism
	failFrom int
}

func (f *failAfter) Name() string { return "fail-after" }
func (f *failAfter) ReleaseCell(in CellInput, s *dist.Stream) (float64, error) {
	if int(in.Count) >= f.failFrom {
		return 0, fmt.Errorf("synthetic failure at %v", in.Count)
	}
	return f.inner.ReleaseCell(in, s)
}

// releaseCellRange fails at the chunk's first failing cell, unlike the
// built-in mechanisms, whose only failures are chunk-wide.
func (f *failAfter) releaseCellRange(out []float64, cells []CellInput, parent *dist.Stream, base int, noise []float64) (int, error) {
	for i := range out {
		v, err := f.ReleaseCell(cells[i], parent.SplitIndex("cell", base+i))
		if err != nil {
			return i, err
		}
		out[i] = v
	}
	return -1, nil
}

// TestReleaseCellsParallelFirstError checks the parallel path reports the
// lowest-index failing cell, like the sequential loop does.
func TestReleaseCellsParallelFirstError(t *testing.T) {
	el, err := NewEdgeLaplace(2)
	if err != nil {
		t.Fatal(err)
	}
	// Cell i carries Count=i, so cells >= 600 fail; the first failure the
	// caller sees must be cell 600 at every worker count.
	cells := make([]CellInput, 1000)
	for i := range cells {
		cells[i] = CellInput{Count: float64(i), MaxContribution: 1}
	}
	m := &failAfter{inner: el, failFrom: 600}
	for _, workers := range []int{1, 2, 8} {
		_, err := ReleaseCellsParallel(m, cells, dist.NewStreamFromSeed(9), workers)
		if err == nil {
			t.Fatalf("workers=%d: expected error", workers)
		}
		if !strings.Contains(err.Error(), "cell 600") {
			t.Fatalf("workers=%d: error %q does not name cell 600", workers, err)
		}
	}
}

// TestReleaseCellsParallelUnevenChunks: when rounding the chunk size up
// leaves trailing workers without cells (10 cells over 8 workers are 5
// chunks of 2), the release still covers every cell exactly once.
func TestReleaseCellsParallelUnevenChunks(t *testing.T) {
	m, err := NewEdgeLaplace(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{10, 513} {
		cells := testCells(n)
		want, err := ReleaseCellsSequential(m, cells, dist.NewStreamFromSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{8, 64} {
			got, err := ReleaseCellsParallel(m, cells, dist.NewStreamFromSeed(3), workers)
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d workers=%d: cell %d = %v, want %v", n, workers, i, got[i], want[i])
				}
			}
		}
	}
}
