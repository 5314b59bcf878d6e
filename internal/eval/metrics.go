// Package eval is the evaluation harness for Section 10 of the paper: L1
// and relative error metrics, tie-aware Spearman rank correlation, the
// place-population strata, Workloads 1–3, Rankings 1–2, and the
// experiment runner that produces every figure's series as
// "L1 error ratio vs SDL" or "Spearman correlation vs SDL" grids over
// (mechanism, ε, α).
package eval

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/lodes"
	"repro/internal/table"
)

// L1 returns the L1 distance between a released vector and the truth.
func L1(released []float64, truth []int64) float64 {
	if len(released) != len(truth) {
		panic(fmt.Sprintf("eval: length mismatch %d vs %d", len(released), len(truth)))
	}
	var sum float64
	for i := range released {
		sum += math.Abs(released[i] - float64(truth[i]))
	}
	return sum
}

// L1Masked returns the L1 distance restricted to cells where mask is true,
// along with the number of cells included.
func L1Masked(released []float64, truth []int64, mask []bool) (float64, int) {
	if len(released) != len(truth) || len(mask) != len(truth) {
		panic("eval: length mismatch")
	}
	var sum float64
	n := 0
	for i := range released {
		if !mask[i] {
			continue
		}
		sum += math.Abs(released[i] - float64(truth[i]))
		n++
	}
	return sum, n
}

// RelativeErrors returns per-cell |released − true| / max(true, 1). Cells
// with zero true counts use a denominator of 1 to stay finite.
func RelativeErrors(released []float64, truth []int64) []float64 {
	if len(released) != len(truth) {
		panic("eval: length mismatch")
	}
	out := make([]float64, len(released))
	for i := range released {
		den := float64(truth[i])
		if den < 1 {
			den = 1
		}
		out[i] = math.Abs(released[i]-float64(truth[i])) / den
	}
	return out
}

// FractionWithin returns the fraction of cells whose value in a is within
// tol of the corresponding value in b. The paper reports, e.g., the share
// of cells whose relative error is within 10 percentage points of SDL's.
func FractionWithin(a, b []float64, tol float64) float64 {
	if len(a) != len(b) {
		panic("eval: length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	n := 0
	for i := range a {
		if math.Abs(a[i]-b[i]) <= tol {
			n++
		}
	}
	return float64(n) / float64(len(a))
}

// ranks assigns tie-aware (average) ranks to the values: the standard
// preparation for Spearman's ρ.
func ranks(values []float64) []float64 {
	n := len(values)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return values[idx[a]] < values[idx[b]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && values[idx[j+1]] == values[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j] (1-based ranks).
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

// Spearman returns Spearman's rank-order correlation ρ between two
// vectors, using average ranks for ties (the general Pearson-of-ranks
// formulation, which reduces to 1 − 6Σd²/(n(n²−1)) when there are no
// ties). It returns NaN for vectors shorter than 2 or with zero rank
// variance.
func Spearman(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("eval: length mismatch %d vs %d", len(a), len(b)))
	}
	n := len(a)
	if n < 2 {
		return math.NaN()
	}
	ra, rb := ranks(a), ranks(b)
	var meanA, meanB float64
	for i := 0; i < n; i++ {
		meanA += ra[i]
		meanB += rb[i]
	}
	meanA /= float64(n)
	meanB /= float64(n)
	var cov, varA, varB float64
	for i := 0; i < n; i++ {
		da, db := ra[i]-meanA, rb[i]-meanB
		cov += da * db
		varA += da * da
		varB += db * db
	}
	if varA == 0 || varB == 0 {
		return math.NaN()
	}
	return cov / math.Sqrt(varA*varB)
}

// SpearmanMasked computes Spearman's ρ restricted to cells where mask is
// true.
func SpearmanMasked(a, b []float64, mask []bool) float64 {
	if len(a) != len(b) || len(mask) != len(a) {
		panic("eval: length mismatch")
	}
	var fa, fb []float64
	for i := range a {
		if mask[i] {
			fa = append(fa, a[i])
			fb = append(fb, b[i])
		}
	}
	return Spearman(fa, fb)
}

// CellStrata returns, for every cell of a query that includes the place
// attribute, the population stratum of the cell's place. It errors if the
// query does not group by place.
func CellStrata(q *table.Query, d *lodes.Dataset) ([]lodes.SizeStratum, error) {
	placePos := -1
	for i, a := range q.Attrs() {
		if q.Schema().Attr(a).Name == lodes.AttrPlace {
			placePos = i
			break
		}
	}
	if placePos < 0 {
		return nil, fmt.Errorf("eval: query does not group by %s; cannot stratify", lodes.AttrPlace)
	}
	placeStrata := d.PlaceStrata()
	out := make([]lodes.SizeStratum, q.NumCells())
	codes := make([]int, len(q.Attrs()))
	for cell := 0; cell < q.NumCells(); cell++ {
		codes = q.DecodeCell(cell, codes)
		out[cell] = placeStrata[codes[placePos]]
	}
	return out, nil
}

// StratumMasks converts per-cell strata into one boolean mask per stratum.
func StratumMasks(strata []lodes.SizeStratum) [lodes.NumStrata][]bool {
	var masks [lodes.NumStrata][]bool
	for s := range masks {
		masks[s] = make([]bool, len(strata))
	}
	for cell, st := range strata {
		masks[st][cell] = true
	}
	return masks
}
