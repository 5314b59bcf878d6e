package table

import (
	"fmt"
	"sync"
)

// Table is a columnar table of coded records over a schema. Each column
// stores uint16 value codes, which comfortably covers every categorical
// domain in the LODES schema (the largest, Census place, is in the
// hundreds).
//
// A table optionally carries an entity column: a per-record integer
// identifying which entity (establishment, in the paper's setting) the
// record belongs to. Entity membership is not a query attribute — the
// paper never publishes per-establishment rows — but it is what privacy is
// defined over: neighboring databases differ in the workforce of a single
// entity, so the aggregation engine uses this column to compute per-cell
// maximum entity contributions.
type Table struct {
	schema   *Schema
	cols     [][]uint16
	entities []int32
	n        int

	// idxMu guards idx, the lazily built entity-sorted index. The index
	// records the row count it was built at; appending rows leaves it
	// stale and Index rebuilds on next use.
	idxMu sync.Mutex
	idx   *Index
}

// New returns an empty table over the given schema.
func New(schema *Schema) *Table {
	if schema == nil {
		panic("table: nil schema")
	}
	cols := make([][]uint16, schema.NumAttrs())
	return &Table{schema: schema, cols: cols}
}

// NewWithCapacity returns an empty table with storage preallocated for n
// records.
func NewWithCapacity(schema *Schema, n int) *Table {
	t := New(schema)
	for i := range t.cols {
		t.cols[i] = make([]uint16, 0, n)
	}
	t.entities = make([]int32, 0, n)
	return t
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// NumRows returns the number of records.
func (t *Table) NumRows() int { return t.n }

// AppendRow appends a record given as value codes in schema order, with
// the entity the record belongs to (-1 for tables without entities).
func (t *Table) AppendRow(entity int32, codes ...int) {
	if len(codes) != t.schema.NumAttrs() {
		panic(fmt.Sprintf("table: AppendRow got %d codes, schema has %d attributes",
			len(codes), t.schema.NumAttrs()))
	}
	for i, c := range codes {
		t.checkCode(i, c)
		t.cols[i] = append(t.cols[i], uint16(c))
	}
	t.entities = append(t.entities, entity)
	t.n++
}

// SetRow overwrites record row with value codes in schema order and the
// record's entity, under AppendRow's domain checks. Calls for distinct
// rows may run concurrently: each writes only its own row's elements.
// With Resize it lets a builder fill a table allocated at its final
// size in parallel, each goroutine owning a contiguous row range.
func (t *Table) SetRow(row int, entity int32, codes ...int) {
	t.checkRow(row)
	if len(codes) != t.schema.NumAttrs() {
		panic(fmt.Sprintf("table: SetRow got %d codes, schema has %d attributes",
			len(codes), t.schema.NumAttrs()))
	}
	for i, c := range codes {
		t.checkCode(i, c)
		t.cols[i][row] = uint16(c)
	}
	t.entities[row] = entity
}

// checkCode panics unless c is a code of attribute i's domain. It is
// small enough to inline into the row writers; the message is built out
// of line.
func (t *Table) checkCode(i, c int) {
	if uint(c) >= uint(len(t.schema.attrs[i].Values)) {
		t.badCode(i, c)
	}
}

func (t *Table) badCode(i, c int) {
	d := t.schema.attrs[i]
	panic(fmt.Sprintf("table: code %d out of range for attribute %q (size %d)", c, d.Name, d.Size()))
}

// AppendRowValues appends a record given as attribute values in schema
// order, returning an error if any value is outside its domain.
func (t *Table) AppendRowValues(entity int32, values ...string) error {
	if len(values) != t.schema.NumAttrs() {
		return fmt.Errorf("table: AppendRowValues got %d values, schema has %d attributes",
			len(values), t.schema.NumAttrs())
	}
	codes := make([]int, len(values))
	for i, v := range values {
		c, err := t.schema.Attr(i).Code(v)
		if err != nil {
			return err
		}
		codes[i] = c
	}
	t.AppendRow(entity, codes...)
	return nil
}

// AppendSpan appends rows [lo, hi) of src — which must share t's schema
// — preserving entities. Column storage is copied span-wise (one copy
// per column), the bulk path snapshot construction uses to carry
// untouched entity groups between dataset epochs.
func (t *Table) AppendSpan(src *Table, lo, hi int) {
	if src.schema != t.schema {
		panic("table: AppendSpan across different schemas")
	}
	if lo < 0 || hi > src.n || lo > hi {
		panic(fmt.Sprintf("table: AppendSpan range [%d,%d) out of bounds (src has %d rows)", lo, hi, src.n))
	}
	for i := range t.cols {
		t.cols[i] = append(t.cols[i], src.cols[i][lo:hi]...)
	}
	t.entities = append(t.entities, src.entities[lo:hi]...)
	t.n += hi - lo
}

// Resize sets the table to n rows, keeping column capacity where it
// suffices, so a chunk buffer can be refilled without reallocating and a
// table can be allocated once at its final size. Rows below the old
// count keep their records; the others hold in-domain codes (zero, or
// what an earlier fill left) until SetRow writes them. Any
// cached index is dropped; indexes or column views handed out earlier
// must not be used across a Resize.
func (t *Table) Resize(n int) {
	if n < 0 {
		panic(fmt.Sprintf("table: Resize to %d rows", n))
	}
	for i, col := range t.cols {
		t.cols[i] = resized(col, n)
	}
	t.entities = resized(t.entities, n)
	t.n = n
	t.idxMu.Lock()
	t.idx = nil
	t.idxMu.Unlock()
}

// resized returns s at length n, reallocating only when its capacity is
// short (new storage is zeroed; the old contents are copied over).
func resized[E uint16 | int32](s []E, n int) []E {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]E, n-cap(s))...)
}

// Code returns the value code of attribute attr for record row.
func (t *Table) Code(row, attr int) int {
	t.checkRow(row)
	return int(t.cols[attr][row])
}

// Value returns the attribute value of attribute attr for record row.
func (t *Table) Value(row, attr int) string {
	return t.schema.Attr(attr).Value(t.Code(row, attr))
}

// Entity returns the entity of record row (-1 if the record has none).
func (t *Table) Entity(row int) int32 {
	t.checkRow(row)
	return t.entities[row]
}

// NumEntities returns one more than the largest entity ID present, i.e.
// the size of a dense entity-indexed array that covers the table. Tables
// with no entities return 0.
func (t *Table) NumEntities() int {
	max := int32(-1)
	for _, e := range t.entities {
		if e > max {
			max = e
		}
	}
	return int(max) + 1
}

// Column returns the raw code column for attribute attr. The returned
// slice is shared with the table and must not be modified.
func (t *Table) Column(attr int) []uint16 {
	if attr < 0 || attr >= len(t.cols) {
		panic(fmt.Sprintf("table: column index %d out of range", attr))
	}
	return t.cols[attr]
}

// Entities returns the raw entity column. The returned slice is shared
// with the table and must not be modified.
func (t *Table) Entities() []int32 { return t.entities }

// Index returns the table's entity-sorted index, building it on first
// use and caching it. The cache is invalidated by appends (the index
// remembers the row count it covers); concurrent readers are safe, but
// appending concurrently with reads is not — same as every other Table
// accessor.
func (t *Table) Index() *Index {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if t.idx == nil || t.idx.n != t.n {
		t.idx = BuildIndex(t)
	}
	return t.idx
}

func (t *Table) checkRow(row int) {
	if row < 0 || row >= t.n {
		panic(fmt.Sprintf("table: row %d out of range (table has %d rows)", row, t.n))
	}
}

// Filter returns a new table containing the records for which keep returns
// true. Entities are preserved.
func (t *Table) Filter(keep func(row int) bool) *Table {
	out := New(t.schema)
	for row := 0; row < t.n; row++ {
		if !keep(row) {
			continue
		}
		for i := range t.cols {
			out.cols[i] = append(out.cols[i], t.cols[i][row])
		}
		out.entities = append(out.entities, t.entities[row])
		out.n++
	}
	return out
}
