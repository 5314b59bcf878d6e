package suppress

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/table"
)

// mk builds a cell with count spread over n contributors, the largest two
// given explicitly.
func mk(count int64, contributors int, largest, second int64) Cell {
	return Cell{Count: count, Contributors: contributors, Largest: largest, Second: second}
}

// simpleTable builds a small industry x place table.
func simpleTable(t *testing.T) *Table {
	t.Helper()
	cells := [][]Cell{
		{mk(100, 10, 20, 15), mk(50, 5, 20, 10), mk(7, 1, 7, 0)},
		{mk(80, 8, 15, 12), mk(60, 6, 15, 12), mk(40, 4, 15, 10)},
		{mk(30, 3, 12, 10), mk(90, 9, 14, 13), mk(25, 2, 15, 10)},
	}
	tab, err := NewTable(cells)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestCellValidate(t *testing.T) {
	bad := []Cell{
		{Count: -1},
		{Count: 10, Contributors: 2, Largest: 8, Second: 9},
		{Count: 10, Contributors: 2, Largest: 6, Second: 6},
		{Count: 10, Contributors: 0},
		{Count: 10, Contributors: 1, Largest: 5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("cell %d should be invalid: %+v", i, c)
		}
	}
	good := mk(10, 2, 6, 4)
	if err := good.Validate(); err != nil {
		t.Errorf("valid cell rejected: %v", err)
	}
}

func TestNewTableValidates(t *testing.T) {
	if _, err := NewTable(nil); err == nil {
		t.Error("empty table accepted")
	}
	if _, err := NewTable([][]Cell{{mk(1, 1, 1, 0)}, {}}); err == nil {
		t.Error("ragged table accepted")
	}
}

func TestTotals(t *testing.T) {
	tab := simpleTable(t)
	if got := tab.RowTotal(0); got != 157 {
		t.Errorf("row 0 total = %d, want 157", got)
	}
	if got := tab.ColTotal(2); got != 72 {
		t.Errorf("col 2 total = %d, want 72", got)
	}
}

func TestThresholdRule(t *testing.T) {
	r := ThresholdRule{MinContributors: 3}
	if !r.Sensitive(mk(7, 1, 7, 0)) || !r.Sensitive(mk(25, 2, 15, 10)) {
		t.Error("cells under threshold not sensitive")
	}
	if r.Sensitive(mk(30, 3, 12, 10)) {
		t.Error("cell at threshold marked sensitive")
	}
	if r.Sensitive(Cell{}) {
		t.Error("empty cell marked sensitive")
	}
	if r.Name() == "" {
		t.Error("name empty")
	}
}

func TestPPercentRule(t *testing.T) {
	r := PPercentRule{P: 10}
	// remainder = 100-60-30 = 10 >= 10%*60=6: safe.
	if r.Sensitive(mk(100, 5, 60, 30)) {
		t.Error("safe cell marked sensitive")
	}
	// remainder = 100-70-28 = 2 < 7: sensitive.
	if !r.Sensitive(mk(100, 5, 70, 28)) {
		t.Error("dominated cell not sensitive")
	}
	if r.Sensitive(Cell{}) {
		t.Error("empty cell marked sensitive")
	}
}

func TestNKRule(t *testing.T) {
	r := NKRule{K: 80}
	if !r.Sensitive(mk(100, 4, 60, 25)) { // 85% > 80%
		t.Error("dominant pair not sensitive")
	}
	if r.Sensitive(mk(100, 6, 40, 30)) { // 70% <= 80%
		t.Error("balanced cell marked sensitive")
	}
	if r.Sensitive(Cell{}) {
		t.Error("empty cell marked sensitive")
	}
}

func TestPrimaryPattern(t *testing.T) {
	tab := simpleTable(t)
	p := Primary(tab, ThresholdRule{MinContributors: 3})
	// Sensitive cells: (0,2) 1 contributor, (2,2) 2 contributors.
	if !p.Suppressed[0][2] || !p.Suppressed[2][2] {
		t.Error("sensitive cells not suppressed")
	}
	if p.Count() != 2 {
		t.Errorf("primary count = %d, want 2", p.Count())
	}
}

func TestSinglePrimaryIsExactlyRecoverable(t *testing.T) {
	// The Fellegi premise: one suppressed cell per line is recovered
	// exactly from totals.
	tab := simpleTable(t)
	p := newPattern(tab)
	p.Suppressed[0][2] = true
	audit := Audit(tab, p)
	iv := audit[[2]int{0, 2}]
	if !iv.Exact() {
		t.Fatalf("lone suppressed cell not pinned: [%v, %v]", iv.Lo, iv.Hi)
	}
	if iv.Lo != 7 {
		t.Errorf("recovered %v, true 7", iv.Lo)
	}
}

func TestComplementaryBlocksExactRecovery(t *testing.T) {
	tab := simpleTable(t)
	primary := Primary(tab, ThresholdRule{MinContributors: 3})
	full := Complementary(tab, primary)
	if full.Count() <= primary.Count() {
		t.Fatal("no complements added")
	}
	audit := Audit(tab, full)
	for key, iv := range audit {
		if iv.Exact() {
			t.Errorf("cell %v still exactly recoverable: [%v, %v]", key, iv.Lo, iv.Hi)
		}
	}
}

func TestComplementaryLineCondition(t *testing.T) {
	tab := simpleTable(t)
	primary := Primary(tab, ThresholdRule{MinContributors: 3})
	full := Complementary(tab, primary)
	// Every row/column has 0 or >=2 suppressed non-zero cells.
	for r := 0; r < tab.Rows; r++ {
		n := 0
		for c := 0; c < tab.Cols; c++ {
			if full.Suppressed[r][c] && tab.Cells[r][c].Count > 0 {
				n++
			}
		}
		if n == 1 {
			t.Errorf("row %d has exactly one suppressed cell", r)
		}
	}
	for c := 0; c < tab.Cols; c++ {
		n := 0
		for r := 0; r < tab.Rows; r++ {
			if full.Suppressed[r][c] && tab.Cells[r][c].Count > 0 {
				n++
			}
		}
		if n == 1 {
			t.Errorf("col %d has exactly one suppressed cell", c)
		}
	}
}

func TestComplementaryNeverSuppressesZeros(t *testing.T) {
	cells := [][]Cell{
		{mk(5, 1, 5, 0), mk(0, 0, 0, 0), mk(20, 4, 8, 6)},
		{mk(30, 5, 10, 8), mk(0, 0, 0, 0), mk(15, 3, 6, 5)},
	}
	tab, err := NewTable(cells)
	if err != nil {
		t.Fatal(err)
	}
	full := Complementary(tab, Primary(tab, ThresholdRule{MinContributors: 3}))
	for r := range full.Suppressed {
		for c, s := range full.Suppressed[r] {
			if s && tab.Cells[r][c].Count == 0 {
				t.Errorf("zero cell (%d,%d) suppressed", r, c)
			}
		}
	}
}

func TestComplementaryPropertyTermination(t *testing.T) {
	// Property: on random tables, complementary suppression terminates and
	// achieves the line condition.
	f := func(raw []uint8) bool {
		if len(raw) < 12 {
			return true
		}
		cells := make([][]Cell, 3)
		idx := 0
		for r := range cells {
			cells[r] = make([]Cell, 4)
			for c := range cells[r] {
				v := int64(raw[idx%len(raw)] % 40)
				idx++
				contributors := 0
				largest, second := int64(0), int64(0)
				if v > 0 {
					contributors = int(v%4) + 1
					largest = v / int64(contributors)
					if contributors == 1 {
						largest = v
					}
					if contributors > 1 {
						second = (v - largest) / int64(contributors-1)
						if second > largest {
							second = largest
						}
					}
				}
				cells[r][c] = mk(v, contributors, largest, second)
			}
		}
		tab, err := NewTable(cells)
		if err != nil {
			return true // skip inconsistent random cells
		}
		full := Complementary(tab, Primary(tab, ThresholdRule{MinContributors: 3}))
		for r := 0; r < tab.Rows; r++ {
			n := 0
			for c := 0; c < tab.Cols; c++ {
				if full.Suppressed[r][c] && tab.Cells[r][c].Count > 0 {
					n++
				}
			}
			if n == 1 {
				// Permitted only when the row had no unsuppressed non-zero
				// candidate to add.
				for c := 0; c < tab.Cols; c++ {
					if !full.Suppressed[r][c] && tab.Cells[r][c].Count > 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAuditBoundsContainTruth(t *testing.T) {
	tab := simpleTable(t)
	full := Complementary(tab, Primary(tab, ThresholdRule{MinContributors: 3}))
	audit := Audit(tab, full)
	for key, iv := range audit {
		true_ := float64(tab.Cells[key[0]][key[1]].Count)
		if true_ < iv.Lo-1e-9 || true_ > iv.Hi+1e-9 {
			t.Errorf("cell %v true value %v outside audited interval [%v, %v]",
				key, true_, iv.Lo, iv.Hi)
		}
	}
}

func TestInferentialDisclosureDespiteSuppression(t *testing.T) {
	// The paper's criticism made executable: suppression blocks exact
	// recovery, but the audited intervals can still be narrow relative to
	// the protected values — inferential disclosure survives. Construct a
	// table where the complement is small, so the primary's interval is
	// tight.
	cells := [][]Cell{
		{mk(1000, 2, 980, 20), mk(3, 1, 3, 0), mk(500, 9, 80, 70)},
		{mk(400, 8, 60, 55), mk(5, 1, 5, 0), mk(300, 7, 50, 45)},
		{mk(200, 6, 40, 35), mk(100, 5, 25, 22), mk(250, 8, 40, 38)},
	}
	tab, err := NewTable(cells)
	if err != nil {
		t.Fatal(err)
	}
	full := Complementary(tab, Primary(tab, ThresholdRule{MinContributors: 3}))
	audit := Audit(tab, full)
	// No exact recovery...
	for key, iv := range audit {
		if iv.Exact() {
			t.Fatalf("cell %v exactly recovered", key)
		}
	}
	// ...but the protection band is tiny: the suppressed small cells are
	// pinned within a few units (their line residuals are small).
	ok, key, iv := ProtectedWithin(tab, full, 5.0)
	if ok {
		t.Error("expected an inferential-disclosure violation at band 5x")
	} else {
		t.Logf("cell %v inferred within [%v, %v] (true %d): inferential disclosure",
			key, iv.Lo, iv.Hi, tab.Cells[key[0]][key[1]].Count)
	}
}

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{Lo: 2, Hi: 5}
	if iv.Width() != 3 || iv.Exact() {
		t.Error("interval helpers wrong")
	}
	if !(Interval{Lo: 4, Hi: 4}).Exact() {
		t.Error("point interval not exact")
	}
}

func TestFromMarginal(t *testing.T) {
	s := table.NewSchema(
		table.NewDomain("industry", "retail", "mining"),
		table.NewDomain("place", "a", "b"),
	)
	tab := table.New(s)
	// retail/a: entities 0 (4 jobs) and 1 (2 jobs). mining/b: entity 2 (9 jobs).
	for i := 0; i < 4; i++ {
		tab.AppendRow(0, 0, 0)
	}
	for i := 0; i < 2; i++ {
		tab.AppendRow(1, 0, 0)
	}
	for i := 0; i < 9; i++ {
		tab.AppendRow(2, 1, 1)
	}
	m := table.Compute(tab, table.MustNewQuery(s, "industry", "place"))
	st, err := FromMarginal(m)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != 2 || st.Cols != 2 {
		t.Fatalf("dims = %dx%d", st.Rows, st.Cols)
	}
	got := st.Cells[0][0]
	if got.Count != 6 || got.Contributors != 2 || got.Largest != 4 || got.Second != 2 {
		t.Errorf("retail/a cell = %+v", got)
	}
	if st.Cells[1][1].Contributors != 1 || st.Cells[1][1].Largest != 9 {
		t.Errorf("mining/b cell = %+v", st.Cells[1][1])
	}
}

func TestFromMarginalRejectsWrongArity(t *testing.T) {
	s := table.NewSchema(table.NewDomain("x", "a"))
	tab := table.New(s)
	tab.AppendRow(0, 0)
	m := table.Compute(tab, table.MustNewQuery(s, "x"))
	if _, err := FromMarginal(m); err == nil {
		t.Error("one-attribute marginal accepted")
	}
}

// ProtectedWithin reports whether the audit leaves every suppressed cell
// with an interval at least band wide relative to its true value — the
// inferential-protection question the paper asks of every SDL method.
// It returns the first violating cell, if any.
func ProtectedWithin(t *Table, p *Pattern, band float64) (ok bool, violation [2]int, iv Interval) {
	audit := Audit(t, p)
	for key, interval := range audit {
		true_ := float64(t.Cells[key[0]][key[1]].Count)
		if interval.Width() < band*math.Max(true_, 1) {
			return false, key, interval
		}
	}
	return true, [2]int{-1, -1}, Interval{}
}
