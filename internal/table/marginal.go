package table

import (
	"fmt"
	"sort"
	"strings"
)

// Query is a compiled marginal query (Definition 2.1): a subset V of the
// schema's attributes. Cells of the marginal are identified by dense
// integer keys in mixed-radix encoding over the selected attribute
// domains, so a marginal is a flat vector of |dom(V)| counts.
//
// An empty attribute set is allowed and yields the single-cell query q∅
// whose count is the table size.
type Query struct {
	schema  *Schema
	attrs   []int
	radices []int
	size    int

	// planKey is the canonical plan handle: the query's attribute
	// positions encoded as big-endian uint16 pairs, set only when attrs
	// are in canonical (strictly ascending schema) order.
	planKey string
}

// NewQuery compiles a marginal query over the named attributes.
func NewQuery(schema *Schema, names ...string) (*Query, error) {
	attrs, err := schema.Resolve(names)
	if err != nil {
		return nil, err
	}
	q := &Query{schema: schema, attrs: attrs}
	q.size = 1
	q.radices = make([]int, len(attrs))
	canonical := true
	for i, a := range attrs {
		q.radices[i] = schema.Attr(a).Size()
		q.size *= q.radices[i]
		if i > 0 && attrs[i-1] >= a {
			canonical = false
		}
	}
	if canonical {
		enc := make([]byte, 2*len(attrs))
		for i, a := range attrs {
			enc[2*i] = byte(a >> 8)
			enc[2*i+1] = byte(a)
		}
		q.planKey = string(enc)
	}
	return q, nil
}

// MustNewQuery is NewQuery but panics on error; for trusted literals.
func MustNewQuery(schema *Schema, names ...string) *Query {
	q, err := NewQuery(schema, names...)
	if err != nil {
		panic(err)
	}
	return q
}

// Schema returns the schema the query was compiled against.
func (q *Query) Schema() *Schema { return q.schema }

// PlanKey returns the query's canonical plan handle: a compact encoding
// of its attribute positions, non-empty exactly when the attributes are
// in canonical (strictly ascending schema) order — q∅, the empty query,
// canonically encodes to "". Non-canonical queries return "". Queries
// compiled separately over the same canonical attribute list share it,
// so it names one attribute set compactly. (The publisher's truth cache
// holds one entry per canonical attribute set, keyed by the canonical
// spelling's attribute names so a hit needs no name resolution; any
// other attribute order is served by remapping that entry per request.)
func (q *Query) PlanKey() string { return q.planKey }

// Attrs returns the schema positions of the query's attributes.
func (q *Query) Attrs() []int { return q.attrs }

// AttrNames returns the names of the query's attributes in query order.
func (q *Query) AttrNames() []string {
	out := make([]string, len(q.attrs))
	for i, a := range q.attrs {
		out[i] = q.schema.Attr(a).Name
	}
	return out
}

// NumCells returns |dom(V)|, the number of cells in the marginal.
func (q *Query) NumCells() int { return q.size }

// CellKey encodes per-attribute value codes (in query order) into a cell key.
func (q *Query) CellKey(codes ...int) int {
	if len(codes) != len(q.attrs) {
		panic(fmt.Sprintf("table: CellKey got %d codes, query has %d attributes", len(codes), len(q.attrs)))
	}
	key := 0
	for i, c := range codes {
		if c < 0 || c >= q.radices[i] {
			panic(fmt.Sprintf("table: cell code %d out of range for attribute %q",
				c, q.schema.Attr(q.attrs[i]).Name))
		}
		key = key*q.radices[i] + c
	}
	return key
}

// CellKeyForValues encodes attribute values (in query order) into a cell key.
func (q *Query) CellKeyForValues(values ...string) (int, error) {
	if len(values) != len(q.attrs) {
		return 0, fmt.Errorf("table: CellKeyForValues got %d values, query has %d attributes",
			len(values), len(q.attrs))
	}
	codes := make([]int, len(values))
	for i, v := range values {
		c, err := q.schema.Attr(q.attrs[i]).Code(v)
		if err != nil {
			return 0, err
		}
		codes[i] = c
	}
	return q.CellKey(codes...), nil
}

// DecodeCell decodes a cell key into per-attribute value codes in query
// order. If out is non-nil and large enough it is reused.
func (q *Query) DecodeCell(key int, out []int) []int {
	if key < 0 || key >= q.size {
		panic(fmt.Sprintf("table: cell key %d out of range (query has %d cells)", key, q.size))
	}
	if cap(out) < len(q.attrs) {
		out = make([]int, len(q.attrs))
	}
	out = out[:len(q.attrs)]
	for i := len(q.attrs) - 1; i >= 0; i-- {
		out[i] = key % q.radices[i]
		key /= q.radices[i]
	}
	return out
}

// CellValues returns the attribute values of a cell, in query order.
func (q *Query) CellValues(key int) []string {
	codes := q.DecodeCell(key, nil)
	out := make([]string, len(codes))
	for i, c := range codes {
		out[i] = q.schema.Attr(q.attrs[i]).Value(c)
	}
	return out
}

// CellString renders a cell as "attr=value,attr=value" for diagnostics.
func (q *Query) CellString(key int) string {
	values := q.CellValues(key)
	parts := make([]string, len(values))
	for i, v := range values {
		parts[i] = q.schema.Attr(q.attrs[i]).Name + "=" + v
	}
	return strings.Join(parts, ",")
}

// KeyForRow returns the cell key the given record falls into.
func (q *Query) KeyForRow(t *Table, row int) int {
	key := 0
	for i, a := range q.attrs {
		key = key*q.radices[i] + t.Code(row, a)
	}
	return key
}

// Marginal is the result of evaluating a Query over a Table: the vector of
// true cell counts together with the per-cell entity statistics privacy
// mechanisms need.
type Marginal struct {
	Query *Query

	// Counts holds the true count per cell, indexed by cell key.
	Counts []int64

	// MaxEntityContribution holds, per cell, the largest number of records
	// any single entity contributes to that cell — the paper's x_v, the
	// quantity that sets smooth sensitivity (Lemma 8.5). Records without an
	// entity each count as their own entity (contribution 1).
	MaxEntityContribution []int64

	// SecondEntityContribution holds, per cell, the second-largest single-
	// entity contribution — what the classical p%% and (n,k) dominance
	// rules of cell suppression inspect (internal/suppress).
	SecondEntityContribution []int64

	// EntityCount holds, per cell, the number of distinct entities with at
	// least one record in the cell. Cells with exactly one establishment
	// are the ones the Section 5.2 attacks exploit.
	EntityCount []int64
}

// CellEntityCount is one (cell, entity, count) triple of the per-entity
// histogram h(w, c) that input noise infusion perturbs (Section 5.1).
type CellEntityCount struct {
	Cell   int
	Entity int32
	Count  int64
}

// Compute evaluates the query over the table, using the table's
// entity-sorted index (built lazily on first use and reused across
// queries). The result is bit-identical to ComputeReference.
func Compute(t *Table, q *Query) *Marginal {
	return t.Index().Compute(q)
}

// ComputeAll evaluates many queries in one sharded pass over the table's
// entity-sorted index, so a workload of several marginals pays for a
// single scan. Results are positionally aligned with the queries and
// bit-identical to evaluating each query with Compute.
func ComputeAll(t *Table, qs []*Query) []*Marginal {
	if len(qs) == 0 {
		return nil
	}
	return t.Index().ComputeAll(qs)
}

// ComputeDetailed evaluates the query and additionally returns the full
// per-entity histogram, sorted by (cell, entity). The histogram is what
// the SDL baseline perturbs and what the Section 5.2 attack demonstrations
// inspect.
func ComputeDetailed(t *Table, q *Query) (*Marginal, []CellEntityCount) {
	return t.Index().ComputeDetailed(q)
}

// ComputeReference evaluates the query with the scalar hash-map group-by
// engine: one pass over the rows into a per-(cell, entity) map. It is
// retained as the differential-testing oracle for the indexed engine (and
// for benchmarking the index against); production paths use Compute.
func ComputeReference(t *Table, q *Query) *Marginal {
	m, _ := computeReferenceImpl(t, q, false)
	return m
}

func computeReferenceImpl(t *Table, q *Query, detailed bool) (*Marginal, []CellEntityCount) {
	if t.Schema() != q.schema {
		panic("table: query compiled against a different schema")
	}
	m := &Marginal{
		Query:                    q,
		Counts:                   make([]int64, q.size),
		MaxEntityContribution:    make([]int64, q.size),
		SecondEntityContribution: make([]int64, q.size),
		EntityCount:              make([]int64, q.size),
	}
	// Per-(cell, entity) counts. Sparse map keyed by cell*width+entity;
	// both factors fit comfortably in int64 for every dataset we generate.
	type pairKey struct {
		cell   int
		entity int32
	}
	perEntity := make(map[pairKey]int64, t.NumRows()/4+16)
	var anonEntity int32 = -1
	for row := 0; row < t.NumRows(); row++ {
		cell := q.KeyForRow(t, row)
		m.Counts[cell]++
		e := t.Entity(row)
		if e < 0 {
			// Entity-less records are each their own entity: use a
			// decreasing synthetic ID so they never merge.
			e = anonEntity
			anonEntity--
		}
		perEntity[pairKey{cell, e}]++
	}
	var hist []CellEntityCount
	if detailed {
		hist = make([]CellEntityCount, 0, len(perEntity))
	}
	for k, c := range perEntity {
		m.EntityCount[k.cell]++
		switch {
		case c > m.MaxEntityContribution[k.cell]:
			m.SecondEntityContribution[k.cell] = m.MaxEntityContribution[k.cell]
			m.MaxEntityContribution[k.cell] = c
		case c > m.SecondEntityContribution[k.cell]:
			m.SecondEntityContribution[k.cell] = c
		}
		if detailed {
			hist = append(hist, CellEntityCount{Cell: k.cell, Entity: k.entity, Count: c})
		}
	}
	if detailed {
		sort.Slice(hist, func(i, j int) bool {
			if hist[i].Cell != hist[j].Cell {
				return hist[i].Cell < hist[j].Cell
			}
			return hist[i].Entity < hist[j].Entity
		})
	}
	return m, hist
}

// Total returns the sum of all cell counts (the table size).
func (m *Marginal) Total() int64 {
	var total int64
	for _, c := range m.Counts {
		total += c
	}
	return total
}

// NonZeroCells returns the number of cells with a positive count.
func (m *Marginal) NonZeroCells() int {
	n := 0
	for _, c := range m.Counts {
		if c > 0 {
			n++
		}
	}
	return n
}

// Count returns the count of the cell with the given key.
func (m *Marginal) Count(cell int) int64 {
	return m.Counts[cell]
}

// Float64Counts returns the counts as float64s, the form the noise
// mechanisms and error metrics consume.
func (m *Marginal) Float64Counts() []float64 {
	out := make([]float64, len(m.Counts))
	for i, c := range m.Counts {
		out[i] = float64(c)
	}
	return out
}
