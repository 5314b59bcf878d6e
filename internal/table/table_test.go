package table

import (
	"fmt"
	"testing"
	"testing/quick"
)

func testSchema() *Schema {
	return NewSchema(
		NewDomain("place", "springfield", "shelbyville", "ogdenville"),
		NewDomain("industry", "retail", "manufacturing"),
		NewDomain("sex", "M", "F"),
	)
}

func TestDomainCodeRoundTrip(t *testing.T) {
	d := NewDomain("industry", "retail", "manufacturing", "services")
	for i, v := range d.Values {
		c, err := d.Code(v)
		if err != nil {
			t.Fatalf("Code(%q): %v", v, err)
		}
		if c != i {
			t.Errorf("Code(%q) = %d, want %d", v, c, i)
		}
		if got := d.Value(c); got != v {
			t.Errorf("Value(%d) = %q, want %q", c, got, v)
		}
	}
}

func TestDomainUnknownValue(t *testing.T) {
	d := NewDomain("sex", "M", "F")
	if _, err := d.Code("X"); err == nil {
		t.Error("Code of unknown value did not error")
	}
}

func TestDomainDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate domain values did not panic")
		}
	}()
	NewDomain("bad", "a", "a")
}

func TestIntRangeDomain(t *testing.T) {
	d := IntRangeDomain("age", 1, 5)
	if d.Size() != 5 {
		t.Fatalf("size = %d, want 5", d.Size())
	}
	if d.MustCode("3") != 2 {
		t.Errorf("MustCode(3) = %d, want 2", d.MustCode("3"))
	}
}

func TestDomainSortedValuesDoesNotMutate(t *testing.T) {
	d := NewDomain("x", "b", "a", "c")
	_ = d.SortedValues()
	if d.Values[0] != "b" {
		t.Error("SortedValues mutated the domain order")
	}
}

func TestSchemaResolve(t *testing.T) {
	s := testSchema()
	idx, err := s.Resolve([]string{"sex", "place"})
	if err != nil {
		t.Fatal(err)
	}
	if idx[0] != 2 || idx[1] != 0 {
		t.Errorf("Resolve = %v, want [2 0]", idx)
	}
	if _, err := s.Resolve([]string{"sex", "sex"}); err == nil {
		t.Error("duplicate attribute in query did not error")
	}
	if _, err := s.Resolve([]string{"nope"}); err == nil {
		t.Error("unknown attribute did not error")
	}
}

func TestSchemaNames(t *testing.T) {
	s := testSchema()
	names := s.Names()
	want := []string{"place", "industry", "sex"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
	if !s.HasAttr("sex") || s.HasAttr("age") {
		t.Error("HasAttr wrong")
	}
}

func TestTableAppendAndAccess(t *testing.T) {
	s := testSchema()
	tab := New(s)
	tab.AppendRow(0, 0, 1, 0) // springfield, manufacturing, M
	if err := tab.AppendRowValues(1, "shelbyville", "retail", "F"); err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 2 {
		t.Fatalf("NumRows = %d, want 2", tab.NumRows())
	}
	if tab.Value(0, 1) != "manufacturing" {
		t.Errorf("Value(0,1) = %q", tab.Value(0, 1))
	}
	if tab.Value(1, 0) != "shelbyville" {
		t.Errorf("Value(1,0) = %q", tab.Value(1, 0))
	}
	if tab.Entity(0) != 0 || tab.Entity(1) != 1 {
		t.Error("entities wrong")
	}
	if tab.NumEntities() != 2 {
		t.Errorf("NumEntities = %d, want 2", tab.NumEntities())
	}
}

func TestTableAppendRowValidation(t *testing.T) {
	s := testSchema()
	tab := New(s)
	if err := tab.AppendRowValues(0, "springfield", "retail"); err == nil {
		t.Error("short row did not error")
	}
	if err := tab.AppendRowValues(0, "springfield", "retail", "X"); err == nil {
		t.Error("bad value did not error")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range code did not panic")
			}
		}()
		tab.AppendRow(0, 0, 5, 0)
	}()
}

// TestTableResizeSetRow: Resize keeps the rows below the old count and
// drops a cached index, SetRow fills rows in place, and SetRow keeps
// AppendRow's checks: a code outside its domain, a wrong arity or a row
// outside the table panics.
func TestTableResizeSetRow(t *testing.T) {
	tab := New(testSchema())
	tab.AppendRow(7, 2, 1, 1)
	if idx := tab.Index(); idx.n != 1 {
		t.Fatalf("index covers %d rows, want 1", idx.n)
	}
	tab.Resize(3)
	if tab.NumRows() != 3 || tab.Entity(0) != 7 || tab.Code(0, 0) != 2 {
		t.Fatalf("Resize(3) lost row 0: %d rows, entity %d, place %d", tab.NumRows(), tab.Entity(0), tab.Code(0, 0))
	}
	tab.SetRow(2, 9, 1, 0, 1)
	tab.SetRow(1, 8, 0, 1, 0)
	for row, want := range [][4]int{{7, 2, 1, 1}, {8, 0, 1, 0}, {9, 1, 0, 1}} {
		if int(tab.Entity(row)) != want[0] || tab.Code(row, 0) != want[1] || tab.Code(row, 1) != want[2] || tab.Code(row, 2) != want[3] {
			t.Errorf("row %d = entity %d codes %d,%d,%d; want %v",
				row, tab.Entity(row), tab.Code(row, 0), tab.Code(row, 1), tab.Code(row, 2), want)
		}
	}
	if idx := tab.Index(); idx.n != 3 {
		t.Fatalf("index after Resize covers %d rows, want 3", idx.n)
	}
	tab.Resize(1)
	if tab.NumRows() != 1 || tab.Entity(0) != 7 {
		t.Fatalf("Resize(1): %d rows, entity %d", tab.NumRows(), tab.Entity(0))
	}
	for name, set := range map[string]func(){
		"out-of-range code": func() { tab.SetRow(0, 0, 0, 2, 0) },
		"negative code":     func() { tab.SetRow(0, 0, -1, 0, 0) },
		"short row":         func() { tab.SetRow(0, 0, 0, 0) },
		"row past the end":  func() { tab.SetRow(1, 0, 0, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetRow with a %s did not panic", name)
				}
			}()
			set()
		}()
	}
}

func TestTableFilter(t *testing.T) {
	s := testSchema()
	tab := New(s)
	for i := 0; i < 10; i++ {
		tab.AppendRow(int32(i%3), i%3, i%2, (i/2)%2)
	}
	got := tab.Filter(func(row int) bool { return tab.Entity(row) == 1 })
	if got.NumRows() != 3 {
		t.Fatalf("filtered rows = %d, want 3", got.NumRows())
	}
	for r := 0; r < got.NumRows(); r++ {
		if got.Entity(r) != 1 {
			t.Error("filter kept wrong entity")
		}
	}
}

func TestQueryCellKeyRoundTrip(t *testing.T) {
	s := testSchema()
	q := MustNewQuery(s, "place", "sex")
	if q.NumCells() != 6 {
		t.Fatalf("NumCells = %d, want 6", q.NumCells())
	}
	f := func(a, b uint8) bool {
		p, x := int(a)%3, int(b)%2
		key := q.CellKey(p, x)
		codes := q.DecodeCell(key, nil)
		return codes[0] == p && codes[1] == x && key >= 0 && key < 6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQueryCellKeysDistinct(t *testing.T) {
	s := testSchema()
	q := MustNewQuery(s, "place", "industry", "sex")
	seen := map[int]bool{}
	for p := 0; p < 3; p++ {
		for i := 0; i < 2; i++ {
			for x := 0; x < 2; x++ {
				k := q.CellKey(p, i, x)
				if seen[k] {
					t.Fatalf("duplicate cell key %d", k)
				}
				seen[k] = true
			}
		}
	}
	if len(seen) != q.NumCells() {
		t.Fatalf("got %d distinct keys, want %d", len(seen), q.NumCells())
	}
}

func TestQueryCellValuesAndString(t *testing.T) {
	s := testSchema()
	q := MustNewQuery(s, "industry", "sex")
	key, err := q.CellKeyForValues("manufacturing", "F")
	if err != nil {
		t.Fatal(err)
	}
	values := q.CellValues(key)
	if values[0] != "manufacturing" || values[1] != "F" {
		t.Errorf("CellValues = %v", values)
	}
	if got := q.CellString(key); got != "industry=manufacturing,sex=F" {
		t.Errorf("CellString = %q", got)
	}
}

func TestEmptyQueryIsTotalCount(t *testing.T) {
	s := testSchema()
	tab := New(s)
	for i := 0; i < 7; i++ {
		tab.AppendRow(int32(i), i%3, i%2, i%2)
	}
	q := MustNewQuery(s)
	m := Compute(tab, q)
	if q.NumCells() != 1 {
		t.Fatalf("empty query cells = %d, want 1", q.NumCells())
	}
	if m.Counts[0] != 7 {
		t.Fatalf("q∅ count = %d, want 7", m.Counts[0])
	}
}

func TestComputeCounts(t *testing.T) {
	s := testSchema()
	tab := New(s)
	// 3 records in springfield/retail/M from entity 0,
	// 2 in springfield/retail/F from entity 1,
	// 1 in shelbyville/manufacturing/M from entity 2.
	for i := 0; i < 3; i++ {
		tab.AppendRow(0, 0, 0, 0)
	}
	for i := 0; i < 2; i++ {
		tab.AppendRow(1, 0, 0, 1)
	}
	tab.AppendRow(2, 1, 1, 0)

	q := MustNewQuery(s, "place", "industry")
	m := Compute(tab, q)
	if got := m.Counts[q.CellKey(0, 0)]; got != 5 {
		t.Errorf("springfield/retail = %d, want 5", got)
	}
	if got := m.Counts[q.CellKey(1, 1)]; got != 1 {
		t.Errorf("shelbyville/manufacturing = %d, want 1", got)
	}
	if m.Total() != 6 {
		t.Errorf("Total = %d, want 6", m.Total())
	}
	if m.NonZeroCells() != 2 {
		t.Errorf("NonZeroCells = %d, want 2", m.NonZeroCells())
	}
}

func TestComputeMaxEntityContribution(t *testing.T) {
	s := testSchema()
	tab := New(s)
	for i := 0; i < 3; i++ {
		tab.AppendRow(0, 0, 0, 0)
	}
	for i := 0; i < 2; i++ {
		tab.AppendRow(1, 0, 0, 1)
	}
	q := MustNewQuery(s, "place")
	m := Compute(tab, q)
	// Cell springfield has entity 0 with 3 records and entity 1 with 2;
	// x_v must be 3 and entity count 2.
	cell := q.CellKey(0)
	if m.MaxEntityContribution[cell] != 3 {
		t.Errorf("x_v = %d, want 3", m.MaxEntityContribution[cell])
	}
	if m.EntityCount[cell] != 2 {
		t.Errorf("entity count = %d, want 2", m.EntityCount[cell])
	}
}

func TestComputeAnonymousEntities(t *testing.T) {
	s := testSchema()
	tab := New(s)
	for i := 0; i < 4; i++ {
		tab.AppendRow(-1, 0, 0, 0)
	}
	q := MustNewQuery(s, "place")
	m := Compute(tab, q)
	cell := q.CellKey(0)
	if m.MaxEntityContribution[cell] != 1 {
		t.Errorf("anonymous records x_v = %d, want 1", m.MaxEntityContribution[cell])
	}
	if m.EntityCount[cell] != 4 {
		t.Errorf("anonymous records entity count = %d, want 4", m.EntityCount[cell])
	}
}

func TestComputeDetailedHistogram(t *testing.T) {
	s := testSchema()
	tab := New(s)
	for i := 0; i < 3; i++ {
		tab.AppendRow(7, 0, 0, 0)
	}
	tab.AppendRow(7, 0, 0, 1)
	tab.AppendRow(9, 0, 0, 0)
	q := MustNewQuery(s, "place", "sex")
	m, hist := ComputeDetailed(tab, q)
	if m.Total() != 5 {
		t.Fatalf("total = %d", m.Total())
	}
	if len(hist) != 3 {
		t.Fatalf("histogram entries = %d, want 3", len(hist))
	}
	// Sorted by (cell, entity); check entity 7's M-cell count is 3.
	found := false
	for _, h := range hist {
		if h.Entity == 7 && h.Cell == q.CellKey(0, 0) {
			found = true
			if h.Count != 3 {
				t.Errorf("h(7, springfield/M) = %d, want 3", h.Count)
			}
		}
	}
	if !found {
		t.Error("histogram missing entity 7 springfield/M")
	}
	for i := 1; i < len(hist); i++ {
		if hist[i].Cell < hist[i-1].Cell ||
			(hist[i].Cell == hist[i-1].Cell && hist[i].Entity <= hist[i-1].Entity) {
			t.Error("histogram not sorted by (cell, entity)")
		}
	}
}

func TestComputeSchemaMismatchPanics(t *testing.T) {
	s1 := testSchema()
	s2 := testSchema()
	tab := New(s1)
	q := MustNewQuery(s2, "place")
	defer func() {
		if recover() == nil {
			t.Error("schema mismatch did not panic")
		}
	}()
	Compute(tab, q)
}

func TestMarginalSumInvariant(t *testing.T) {
	// Property: for any table, the marginal total equals the row count,
	// for every attribute subset.
	s := testSchema()
	f := func(rows []uint16) bool {
		tab := New(s)
		for _, r := range rows {
			tab.AppendRow(int32(r%5), int(r)%3, int(r/3)%2, int(r/7)%2)
		}
		for _, names := range [][]string{{}, {"place"}, {"sex", "industry"}, {"place", "industry", "sex"}} {
			q := MustNewQuery(s, names...)
			if Compute(tab, q).Total() != int64(len(rows)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMarginalConsistencyAcrossQueries(t *testing.T) {
	// Property: a coarser marginal is the aggregation of a finer one.
	s := testSchema()
	f := func(rows []uint16) bool {
		tab := New(s)
		for _, r := range rows {
			tab.AppendRow(int32(r%4), int(r)%3, int(r/3)%2, int(r/5)%2)
		}
		fine := Compute(tab, MustNewQuery(s, "place", "sex"))
		coarse := Compute(tab, MustNewQuery(s, "place"))
		qf, qc := fine.Query, coarse.Query
		for p := 0; p < 3; p++ {
			var sum int64
			for x := 0; x < 2; x++ {
				sum += fine.Counts[qf.CellKey(p, x)]
			}
			if sum != coarse.Counts[qc.CellKey(p)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloat64Counts(t *testing.T) {
	s := testSchema()
	tab := New(s)
	tab.AppendRow(0, 0, 0, 0)
	tab.AppendRow(0, 0, 0, 0)
	m := Compute(tab, MustNewQuery(s, "sex"))
	fc := m.Float64Counts()
	if fc[0] != 2 || fc[1] != 0 {
		t.Errorf("Float64Counts = %v", fc)
	}
}

func TestComputeSecondEntityContribution(t *testing.T) {
	s := testSchema()
	tab := New(s)
	// Entity 0: 5 records, entity 1: 3, entity 2: 7 — all one cell.
	for i := 0; i < 5; i++ {
		tab.AppendRow(0, 0, 0, 0)
	}
	for i := 0; i < 3; i++ {
		tab.AppendRow(1, 0, 0, 0)
	}
	for i := 0; i < 7; i++ {
		tab.AppendRow(2, 0, 0, 0)
	}
	q := MustNewQuery(s, "place")
	m := Compute(tab, q)
	cell := q.CellKey(0)
	if m.MaxEntityContribution[cell] != 7 {
		t.Errorf("largest = %d, want 7", m.MaxEntityContribution[cell])
	}
	if m.SecondEntityContribution[cell] != 5 {
		t.Errorf("second = %d, want 5", m.SecondEntityContribution[cell])
	}
	if m.EntityCount[cell] != 3 {
		t.Errorf("contributors = %d, want 3", m.EntityCount[cell])
	}
}

func TestComputeSecondEntitySingleContributor(t *testing.T) {
	s := testSchema()
	tab := New(s)
	for i := 0; i < 4; i++ {
		tab.AppendRow(0, 0, 0, 0)
	}
	q := MustNewQuery(s, "place")
	m := Compute(tab, q)
	cell := q.CellKey(0)
	if m.SecondEntityContribution[cell] != 0 {
		t.Errorf("second with one contributor = %d, want 0", m.SecondEntityContribution[cell])
	}
}

// IntRangeDomain builds a domain whose values are the decimal strings
// lo..hi inclusive, a convenience for bucketed numeric attributes.
func IntRangeDomain(name string, lo, hi int) *Domain {
	if hi < lo {
		panic(fmt.Sprintf("table: IntRangeDomain %q has hi < lo", name))
	}
	values := make([]string, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		values = append(values, fmt.Sprintf("%d", v))
	}
	return NewDomain(name, values...)
}
