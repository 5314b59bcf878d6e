package eval

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/lodes"
	"repro/internal/table"
)

func TestL1(t *testing.T) {
	got := L1([]float64{1, 2.5, 0}, []int64{0, 2, 3})
	if math.Abs(got-4.5) > 1e-12 {
		t.Errorf("L1 = %v, want 4.5", got)
	}
}

func TestL1Masked(t *testing.T) {
	got, n := L1Masked([]float64{1, 2.5, 0}, []int64{0, 2, 3}, []bool{true, false, true})
	if math.Abs(got-4) > 1e-12 || n != 2 {
		t.Errorf("L1Masked = (%v, %d), want (4, 2)", got, n)
	}
}

func TestRelativeErrors(t *testing.T) {
	got := RelativeErrors([]float64{110, 0, 3}, []int64{100, 0, 2})
	want := []float64{0.1, 0, 0.5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("rel err[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFractionWithin(t *testing.T) {
	a := []float64{0.1, 0.5, 0.9}
	b := []float64{0.15, 0.8, 0.95}
	if got := FractionWithin(a, b, 0.1); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("FractionWithin = %v, want 2/3", got)
	}
}

func TestSpearmanPerfect(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{10, 20, 30, 40, 50}
	if got := Spearman(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spearman of monotone pair = %v, want 1", got)
	}
}

func TestSpearmanReversed(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{4, 3, 2, 1}
	if got := Spearman(a, b); math.Abs(got+1) > 1e-12 {
		t.Errorf("Spearman of reversed pair = %v, want -1", got)
	}
}

func TestSpearmanKnownValue(t *testing.T) {
	// Classic example without ties: rho = 1 - 6*sum(d^2)/(n(n^2-1)).
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 1, 4, 3, 5}
	// ranks differ by d = (1,1,1,1,0) => sum d^2 = 4; rho = 1-24/120 = 0.8.
	if got := Spearman(a, b); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("Spearman = %v, want 0.8", got)
	}
}

func TestSpearmanTies(t *testing.T) {
	// With ties, average ranks are used; a tie-heavy vector against itself
	// still correlates perfectly.
	a := []float64{1, 1, 2, 2, 3}
	if got := Spearman(a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spearman(a,a) with ties = %v, want 1", got)
	}
}

func TestSpearmanDegenerate(t *testing.T) {
	if got := Spearman([]float64{1}, []float64{2}); !math.IsNaN(got) {
		t.Errorf("Spearman of singleton = %v, want NaN", got)
	}
	if got := Spearman([]float64{1, 1, 1}, []float64{1, 2, 3}); !math.IsNaN(got) {
		t.Errorf("Spearman with zero variance = %v, want NaN", got)
	}
}

func TestSpearmanInvariantToMonotoneTransform(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 3 {
			return true
		}
		a := make([]float64, len(raw))
		b := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			a[i] = v
			b[i] = v/2 + 1 // strictly monotone transform, no saturation
		}
		got := Spearman(a, b)
		if math.IsNaN(got) {
			return true // all-equal input
		}
		return math.Abs(got-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpearmanSymmetric(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 3 {
			return true
		}
		a := make([]float64, len(raw))
		b := make([]float64, len(raw))
		for i, v := range raw {
			a[i] = float64(v % 17)
			b[i] = float64((v * 31) % 13)
		}
		x, y := Spearman(a, b), Spearman(b, a)
		if math.IsNaN(x) && math.IsNaN(y) {
			return true
		}
		return math.Abs(x-y) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpearmanRange(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 4 {
			return true
		}
		a := make([]float64, len(raw))
		b := make([]float64, len(raw))
		for i, v := range raw {
			a[i] = float64(v % 101)
			b[i] = float64((v >> 3) % 97)
		}
		rho := Spearman(a, b)
		if math.IsNaN(rho) {
			return true
		}
		return rho >= -1-1e-9 && rho <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpearmanMasked(t *testing.T) {
	a := []float64{1, 100, 2, 200, 3}
	b := []float64{1, -5, 2, -10, 3}
	mask := []bool{true, false, true, false, true}
	if got := SpearmanMasked(a, b, mask); math.Abs(got-1) > 1e-12 {
		t.Errorf("masked Spearman = %v, want 1", got)
	}
}

func TestRanksAverageTies(t *testing.T) {
	got := ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ranks = %v, want %v", got, want)
			break
		}
	}
}

func TestCellStrata(t *testing.T) {
	d := lodes.MustGenerate(lodes.TestConfig(), dist.NewStreamFromSeed(1))
	q := table.MustNewQuery(d.Schema(), lodes.AttrPlace, lodes.AttrOwnership)
	strata, err := CellStrata(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(strata) != q.NumCells() {
		t.Fatalf("strata length %d, want %d", len(strata), q.NumCells())
	}
	// Spot-check: every cell of a given place has that place's stratum.
	placeStrata := d.PlaceStrata()
	codes := make([]int, 2)
	for cell := 0; cell < q.NumCells(); cell++ {
		codes = q.DecodeCell(cell, codes)
		if strata[cell] != placeStrata[codes[0]] {
			t.Fatalf("cell %d stratum %v, place stratum %v", cell, strata[cell], placeStrata[codes[0]])
		}
	}
}

func TestCellStrataRequiresPlace(t *testing.T) {
	d := lodes.MustGenerate(lodes.TestConfig(), dist.NewStreamFromSeed(2))
	q := table.MustNewQuery(d.Schema(), lodes.AttrSex)
	if _, err := CellStrata(q, d); err == nil {
		t.Error("CellStrata without place attribute did not error")
	}
}

func TestStratumMasksPartition(t *testing.T) {
	strata := []lodes.SizeStratum{
		lodes.StratumUnder100, lodes.StratumOver100k, lodes.Stratum100To10k, lodes.StratumUnder100,
	}
	masks := StratumMasks(strata)
	for cell := range strata {
		count := 0
		for s := range masks {
			if masks[s][cell] {
				count++
			}
		}
		if count != 1 {
			t.Fatalf("cell %d appears in %d strata, want exactly 1", cell, count)
		}
	}
}

func TestTopKOverlapIdentical(t *testing.T) {
	a := []float64{5, 3, 9, 1, 7}
	if got := TopKOverlap(a, a, 3); got != 1 {
		t.Errorf("self overlap = %v, want 1", got)
	}
}

func TestTopKOverlapPartial(t *testing.T) {
	a := []float64{10, 9, 8, 1, 2} // top-2: {0,1}
	b := []float64{10, 1, 9, 2, 8} // top-2: {0,2}
	if got := TopKOverlap(a, b, 2); got != 0.5 {
		t.Errorf("overlap = %v, want 0.5", got)
	}
}

func TestTopKOverlapDisjoint(t *testing.T) {
	a := []float64{9, 8, 1, 2}
	b := []float64{1, 2, 9, 8}
	if got := TopKOverlap(a, b, 2); got != 0 {
		t.Errorf("overlap = %v, want 0", got)
	}
}

func TestTopKOverlapPanics(t *testing.T) {
	for _, k := range []int{0, 5, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d did not panic", k)
				}
			}()
			TopKOverlap([]float64{1, 2}, []float64{1, 2}, k)
		}()
	}
}

func TestTopKOverlapNoisyRanking(t *testing.T) {
	// Small noise preserves the top-k membership of well-separated values.
	d := lodes.MustGenerate(lodes.TestConfig(), dist.NewStreamFromSeed(50))
	q := table.MustNewQuery(d.Schema(), lodes.AttrPlace)
	m := table.Compute(d.WorkerFull, q)
	truth := m.Float64Counts()
	noisy := make([]float64, len(truth))
	s := dist.NewStreamFromSeed(51)
	for i, v := range truth {
		noisy[i] = v + 3*s.NormFloat64()
	}
	if got := TopKOverlap(truth, noisy, 10); got < 0.8 {
		t.Errorf("top-10 overlap with mild noise = %v, want >= 0.8", got)
	}
}

// TopKOverlap returns |topK(a) ∩ topK(b)| / k: the fraction of b's top-k
// items (by value, descending) that also appear in a's top-k. This is
// the "did the ranked list get the right members" complement to
// Spearman's whole-ranking correlation, matching how OnTheMap users
// consume short ranked lists (Section 3.2).
func TopKOverlap(a, b []float64, k int) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("eval: length mismatch %d vs %d", len(a), len(b)))
	}
	if k <= 0 || k > len(a) {
		panic(fmt.Sprintf("eval: k=%d out of range for %d items", k, len(a)))
	}
	topA := topKSet(a, k)
	topB := topKSet(b, k)
	overlap := 0
	for i := range topB {
		if topA[i] {
			overlap++
		}
	}
	return float64(overlap) / float64(k)
}

// topKSet returns the index set of the k largest values (ties broken by
// lower index, making the result deterministic).
func topKSet(values []float64, k int) map[int]bool {
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if values[idx[a]] != values[idx[b]] {
			return values[idx[a]] > values[idx[b]]
		}
		return idx[a] < idx[b]
	})
	out := make(map[int]bool, k)
	for _, i := range idx[:k] {
		out[i] = true
	}
	return out
}

// BenchmarkTopKOverlap measures the ranked-list membership metric.
func BenchmarkTopKOverlap(b *testing.B) {
	s := dist.NewStreamFromSeed(32)
	n := 2400
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = s.Float64()
		y[i] = x[i] + 0.05*s.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TopKOverlap(x, y, 50)
	}
}
