// Package suppress implements the traditional cell-suppression SDL that
// Appendix A of the paper describes as the historical interpretation of
// the confidentiality statutes: Fellegi's conditions, implemented as
// primary suppression (sensitive cells withheld under threshold and
// dominance rules) plus complementary suppression (additional cells
// withheld so the primaries cannot be recovered by subtraction from
// published row and column totals).
//
// The package also provides an interval auditor that computes what an
// attacker can infer about every suppressed cell from the published
// values — which makes the paper's central criticism executable: cell
// suppression prevents *exact* disclosure (Fellegi's goal) but does not
// bound *inferential* disclosure; the audit regularly pins suppressed
// cells into narrow intervals. That gap is precisely what the formal
// definitions of Sections 4–7 close.
package suppress

import (
	"fmt"
	"math"
)

// Cell is one cell of a two-dimensional magnitude table: the employment
// count, the number of contributing establishments, and the two largest
// single-establishment contributions (what the dominance rules inspect).
type Cell struct {
	Count        int64
	Contributors int
	Largest      int64
	Second       int64
}

// Validate returns an error for internally inconsistent cells.
func (c Cell) Validate() error {
	if c.Count < 0 || c.Contributors < 0 || c.Largest < 0 || c.Second < 0 {
		return fmt.Errorf("suppress: negative cell fields: %+v", c)
	}
	if c.Largest+c.Second > c.Count {
		return fmt.Errorf("suppress: top contributors %d+%d exceed count %d",
			c.Largest, c.Second, c.Count)
	}
	if c.Second > c.Largest {
		return fmt.Errorf("suppress: second contributor %d exceeds largest %d", c.Second, c.Largest)
	}
	if c.Contributors == 0 && c.Count != 0 {
		return fmt.Errorf("suppress: count %d with no contributors", c.Count)
	}
	if c.Contributors == 1 && c.Largest != c.Count {
		return fmt.Errorf("suppress: single contributor must equal count")
	}
	return nil
}

// Table is a two-dimensional table with published row and column totals —
// the classic publication layout (e.g. industry × place employment).
type Table struct {
	Rows, Cols int
	Cells      [][]Cell
}

// NewTable validates dimensions and cells.
func NewTable(cells [][]Cell) (*Table, error) {
	if len(cells) == 0 || len(cells[0]) == 0 {
		return nil, fmt.Errorf("suppress: table must be non-empty")
	}
	cols := len(cells[0])
	for r, row := range cells {
		if len(row) != cols {
			return nil, fmt.Errorf("suppress: row %d has %d columns, want %d", r, len(row), cols)
		}
		for c, cell := range row {
			if err := cell.Validate(); err != nil {
				return nil, fmt.Errorf("suppress: cell (%d,%d): %w", r, c, err)
			}
		}
	}
	return &Table{Rows: len(cells), Cols: cols, Cells: cells}, nil
}

// RowTotal returns the published total of row r.
func (t *Table) RowTotal(r int) int64 {
	var sum int64
	for c := 0; c < t.Cols; c++ {
		sum += t.Cells[r][c].Count
	}
	return sum
}

// ColTotal returns the published total of column c.
func (t *Table) ColTotal(c int) int64 {
	var sum int64
	for r := 0; r < t.Rows; r++ {
		sum += t.Cells[r][c].Count
	}
	return sum
}

// Rule decides whether a cell is sensitive (must be primarily suppressed).
type Rule interface {
	Sensitive(c Cell) bool
	Name() string
}

// ThresholdRule marks cells with fewer than MinContributors contributing
// establishments — the classic "fewer than 3 firms" rule.
type ThresholdRule struct {
	MinContributors int
}

// Sensitive reports whether the cell has too few contributors. Empty
// cells are not sensitive: publishing a zero discloses no establishment's
// data (the same convention input noise infusion uses).
func (r ThresholdRule) Sensitive(c Cell) bool {
	return c.Contributors > 0 && c.Contributors < r.MinContributors
}

// Name identifies the rule.
func (r ThresholdRule) Name() string {
	return fmt.Sprintf("threshold(min=%d)", r.MinContributors)
}

// PPercentRule is the p%-rule: a cell is sensitive if the cell total
// minus the two largest contributions is less than p% of the largest —
// i.e. the second-largest contributor could estimate the largest to
// within p%.
type PPercentRule struct {
	P float64
}

// Sensitive applies the p% test.
func (r PPercentRule) Sensitive(c Cell) bool {
	if c.Contributors == 0 {
		return false
	}
	remainder := c.Count - c.Largest - c.Second
	return float64(remainder) < r.P/100*float64(c.Largest)
}

// Name identifies the rule.
func (r PPercentRule) Name() string { return fmt.Sprintf("p%%(p=%g)", r.P) }

// NKRule is the (n,k)-dominance rule: sensitive if the largest n=2
// contributors hold more than k% of the cell total. (The common n=2 form;
// the rule's purpose is the same as the p% rule's.)
type NKRule struct {
	K float64
}

// Sensitive applies the (2,k) dominance test.
func (r NKRule) Sensitive(c Cell) bool {
	if c.Contributors == 0 || c.Count == 0 {
		return false
	}
	return float64(c.Largest+c.Second) > r.K/100*float64(c.Count)
}

// Name identifies the rule.
func (r NKRule) Name() string { return fmt.Sprintf("nk(n=2,k=%g)", r.K) }

// Pattern is a suppression pattern: Suppressed[r][c] reports whether the
// cell is withheld from publication.
type Pattern struct {
	Suppressed [][]bool
}

// newPattern allocates an all-false pattern for the table.
func newPattern(t *Table) *Pattern {
	s := make([][]bool, t.Rows)
	for r := range s {
		s[r] = make([]bool, t.Cols)
	}
	return &Pattern{Suppressed: s}
}

// Count returns the number of suppressed cells.
func (p *Pattern) Count() int {
	n := 0
	for _, row := range p.Suppressed {
		for _, s := range row {
			if s {
				n++
			}
		}
	}
	return n
}

// Primary computes the primary suppression pattern: every cell any rule
// marks sensitive.
func Primary(t *Table, rules ...Rule) *Pattern {
	p := newPattern(t)
	for r := 0; r < t.Rows; r++ {
		for c := 0; c < t.Cols; c++ {
			for _, rule := range rules {
				if rule.Sensitive(t.Cells[r][c]) {
					p.Suppressed[r][c] = true
					break
				}
			}
		}
	}
	return p
}

// Complementary extends a primary pattern so that no row or column with
// a suppressed cell has exactly one suppressed non-zero residual — the
// necessary condition of Fellegi's subtraction-attack analysis: a single
// suppressed cell in a line with a published total is recoverable
// exactly. Complements are chosen greedily (the smallest-count unsuppressed
// non-zero cell in the line, so the least information is withheld), and
// the row/column conditions are iterated to a fixed point.
//
// Zero cells are never chosen as complements: suppressing a structural
// zero protects nothing (its value is public knowledge by the paper's
// conventions) and would not stop subtraction.
func Complementary(t *Table, primary *Pattern) *Pattern {
	p := newPattern(t)
	for r := range primary.Suppressed {
		copy(p.Suppressed[r], primary.Suppressed[r])
	}
	fixLines(t, p)
	// The >=2-per-line condition is necessary but not sufficient: in
	// interlocking patterns, the audit's constraint propagation can still
	// pin a cell exactly (the classic counterexample to naive
	// complementary suppression). Close the loop against the auditor:
	// while any suppressed cell audits as exactly recoverable, add a
	// further complement in one of its lines and re-establish the line
	// conditions. The iteration terminates because each round suppresses
	// at least one more cell or runs out of candidates.
	//
	// Residual limitation (kept deliberately, and reported by Audit): when
	// a pinned cell's row and column are already entirely suppressed or
	// zero, no local complement exists, and breaking the inference would
	// require restructuring the pattern globally — finding the minimal
	// such pattern is NP-hard, which is one of the practical reasons
	// agencies moved from suppression to noise-based SDL (Appendix A).
	for rounds := 0; rounds < t.Rows*t.Cols; rounds++ {
		audit := Audit(t, p)
		added := false
		for key, iv := range audit {
			if !iv.Exact() || t.Cells[key[0]][key[1]].Count == 0 {
				continue
			}
			if addComplementNear(t, p, key[0], key[1]) {
				added = true
				break
			}
		}
		if !added {
			break
		}
		fixLines(t, p)
	}
	return p
}

// fixLines iterates the >=2-suppressed-per-line condition to a fixed point.
func fixLines(t *Table, p *Pattern) {
	for changed := true; changed; {
		changed = false
		for r := 0; r < t.Rows; r++ {
			if fixLine(t, p, r, -1) {
				changed = true
			}
		}
		for c := 0; c < t.Cols; c++ {
			if fixLine(t, p, -1, c) {
				changed = true
			}
		}
	}
}

// addComplementNear suppresses the smallest unsuppressed non-zero cell in
// the row or column of (r, c), preferring the row. Returns whether a
// complement was added.
func addComplementNear(t *Table, p *Pattern, r, c int) bool {
	bestR, bestC := -1, -1
	var bestCount int64
	consider := func(rr, cc int) {
		if p.Suppressed[rr][cc] || t.Cells[rr][cc].Count == 0 {
			return
		}
		if bestR < 0 || t.Cells[rr][cc].Count < bestCount {
			bestR, bestC, bestCount = rr, cc, t.Cells[rr][cc].Count
		}
	}
	for cc := 0; cc < t.Cols; cc++ {
		consider(r, cc)
	}
	if bestR < 0 {
		for rr := 0; rr < t.Rows; rr++ {
			consider(rr, c)
		}
	}
	if bestR < 0 {
		return false
	}
	p.Suppressed[bestR][bestC] = true
	return true
}

// fixLine enforces the >=2-suppressed-or-0 condition on one row (col=-1)
// or one column (row=-1). Returns whether it added a complement.
func fixLine(t *Table, p *Pattern, row, col int) bool {
	var suppressedCount int
	type pos struct{ r, c int }
	var candidates []pos
	visit := func(r, c int) {
		cell := t.Cells[r][c]
		if p.Suppressed[r][c] {
			if cell.Count > 0 {
				suppressedCount++
			}
			return
		}
		if cell.Count > 0 {
			candidates = append(candidates, pos{r, c})
		}
	}
	if row >= 0 {
		for c := 0; c < t.Cols; c++ {
			visit(row, c)
		}
	} else {
		for r := 0; r < t.Rows; r++ {
			visit(r, col)
		}
	}
	if suppressedCount != 1 || len(candidates) == 0 {
		return false
	}
	// Pick the smallest-count candidate as the complement.
	best := candidates[0]
	for _, cand := range candidates[1:] {
		if t.Cells[cand.r][cand.c].Count < t.Cells[best.r][best.c].Count {
			best = cand
		}
	}
	p.Suppressed[best.r][best.c] = true
	return true
}

// Interval is the auditor's inference about one suppressed cell.
type Interval struct {
	Lo, Hi float64
}

// Width returns Hi - Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Exact reports whether the interval pins the cell to a single value.
func (iv Interval) Exact() bool { return iv.Hi-iv.Lo < 1e-9 }

// Audit computes, for every suppressed cell, the tightest interval an
// attacker can derive from the published cells and the row/column totals
// by interval constraint propagation: within each line, a suppressed
// cell equals the line residual minus the other suppressed cells, so its
// bounds tighten against the others' bounds. Propagation runs to a fixed
// point; the result is a (generally loose, never invalid) bound on the
// attacker's linear-programming inference.
func Audit(t *Table, p *Pattern) map[[2]int]Interval {
	// Line residuals: total minus published (unsuppressed) cells.
	rowResidual := make([]float64, t.Rows)
	colResidual := make([]float64, t.Cols)
	for r := 0; r < t.Rows; r++ {
		rowResidual[r] = float64(t.RowTotal(r))
	}
	for c := 0; c < t.Cols; c++ {
		colResidual[c] = float64(t.ColTotal(c))
	}
	for r := 0; r < t.Rows; r++ {
		for c := 0; c < t.Cols; c++ {
			if !p.Suppressed[r][c] {
				rowResidual[r] -= float64(t.Cells[r][c].Count)
				colResidual[c] -= float64(t.Cells[r][c].Count)
			}
		}
	}
	// Initialize every suppressed cell to the finite cap its two line
	// residuals impose, so propagation never handles infinities.
	intervals := make(map[[2]int]Interval)
	for r := 0; r < t.Rows; r++ {
		for c := 0; c < t.Cols; c++ {
			if p.Suppressed[r][c] {
				intervals[[2]int{r, c}] = Interval{
					Lo: 0,
					Hi: math.Min(rowResidual[r], colResidual[c]),
				}
			}
		}
	}
	// Iterative tightening against the line-sum constraints.
	tighten := func() bool {
		changed := false
		update := func(key [2]int, lo, hi float64) {
			iv := intervals[key]
			newLo := math.Max(iv.Lo, lo)
			newHi := math.Min(iv.Hi, hi)
			if newLo > iv.Lo+1e-12 || newHi < iv.Hi-1e-12 {
				intervals[key] = Interval{Lo: newLo, Hi: newHi}
				changed = true
			}
		}
		// Row constraints.
		for r := 0; r < t.Rows; r++ {
			residual := float64(t.RowTotal(r))
			var keys [][2]int
			for c := 0; c < t.Cols; c++ {
				if p.Suppressed[r][c] {
					keys = append(keys, [2]int{r, c})
				} else {
					residual -= float64(t.Cells[r][c].Count)
				}
			}
			propagate(residual, keys, intervals, update)
		}
		// Column constraints.
		for c := 0; c < t.Cols; c++ {
			residual := float64(t.ColTotal(c))
			var keys [][2]int
			for r := 0; r < t.Rows; r++ {
				if p.Suppressed[r][c] {
					keys = append(keys, [2]int{r, c})
				} else {
					residual -= float64(t.Cells[r][c].Count)
				}
			}
			propagate(residual, keys, intervals, update)
		}
		return changed
	}
	for i := 0; i < 1000 && tighten(); i++ {
	}
	return intervals
}

// propagate applies the residual-sum constraint Σ cells = residual to the
// suppressed cells of one line.
func propagate(residual float64, keys [][2]int, intervals map[[2]int]Interval, update func([2]int, float64, float64)) {
	if len(keys) == 0 {
		return
	}
	var sumLo, sumHi float64
	for _, k := range keys {
		sumLo += intervals[k].Lo
		sumHi += intervals[k].Hi
	}
	for _, k := range keys {
		iv := intervals[k]
		lo := residual - (sumHi - iv.Hi)
		hi := residual - (sumLo - iv.Lo)
		update(k, math.Max(0, lo), hi)
	}
}
