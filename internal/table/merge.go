package table

import (
	"fmt"
	"sort"
)

// Incremental index maintenance for versioned (epoch-snapshot) tables.
//
// An epoch snapshot's successor table is built entity-sorted — rows
// grouped by strictly ascending entity, untouched groups copied verbatim
// from the predecessor — so its index needs neither the counting sort
// nor the per-attribute column gather of BuildIndex: the row permutation
// is the identity and the materialized columns alias the table's own.
// MergeIndex therefore only has to derive the new group boundaries,
// which it does by merging the predecessor's group layout with the set
// of touched entities: O(groups + touched) work, independent of the row
// count. AffectedCells then reports, per query, exactly which cells a
// delta can have changed — the contract the publisher's selective cache
// invalidation is built on.

// MergeIndex builds the index of next, the entity-sorted successor of
// the table base indexes, from base's group layout plus the delta's
// touched-entity set: untouched groups keep their size, touched[i] has
// touchedRows[i] rows in next (0 for a removed entity), and entities not
// in base with touchedRows > 0 are newborn groups. touched must be
// strictly ascending and non-negative, and neither table may contain
// entity-less rows (every lodes snapshot satisfies both).
//
// The returned index is in identity mode: next must hold its rows in
// strictly grouped ascending-entity order, exactly as
// lodes.Dataset.ApplyDelta constructs it. MergeIndex verifies each
// group's boundary rows against next's entity column (O(groups)); full
// interior validity is the constructor's contract, differentially
// tested against BuildIndex in merge_test.go.
func MergeIndex(base *Index, next *Table, touched []int32, touchedRows []int32) (*Index, error) {
	if base.t.Schema() != next.Schema() {
		return nil, fmt.Errorf("table: MergeIndex across different schemas")
	}
	if len(touched) != len(touchedRows) {
		return nil, fmt.Errorf("table: MergeIndex got %d touched entities but %d row counts",
			len(touched), len(touchedRows))
	}
	for i, e := range touched {
		if e < 0 {
			return nil, fmt.Errorf("table: MergeIndex touched entity %d is negative", e)
		}
		if i > 0 && touched[i-1] >= e {
			return nil, fmt.Errorf("table: MergeIndex touched entities not strictly ascending at %d", i)
		}
		if touchedRows[i] < 0 {
			return nil, fmt.Errorf("table: MergeIndex entity %d has negative row count", e)
		}
	}
	if base.hasEntityless() {
		return nil, fmt.Errorf("table: MergeIndex base index has entity-less rows")
	}
	baseEnts := base.entities

	ix := &Index{t: next, n: next.NumRows()}
	ix.starts = make([]int32, 0, len(baseEnts)+len(touched)+1)
	ix.entities = make([]int32, 0, len(baseEnts)+len(touched))
	var pos int32
	add := func(e, size int32) {
		if size == 0 {
			return
		}
		ix.starts = append(ix.starts, pos)
		ix.entities = append(ix.entities, e)
		if int(size) > ix.maxGroup {
			ix.maxGroup = int(size)
		}
		pos += size
	}
	i, j := 0, 0
	for i < len(baseEnts) || j < len(touched) {
		if j >= len(touched) || (i < len(baseEnts) && baseEnts[i] < touched[j]) {
			add(baseEnts[i], base.starts[i+1]-base.starts[i])
			i++
			continue
		}
		if i < len(baseEnts) && baseEnts[i] == touched[j] {
			i++
		}
		add(touched[j], touchedRows[j])
		j++
	}
	ix.starts = append(ix.starts, pos)
	if int(pos) != next.NumRows() {
		return nil, fmt.Errorf("table: MergeIndex group sizes sum to %d rows, next table has %d",
			pos, next.NumRows())
	}
	// Boundary verification: the first and last row of every claimed
	// group span must carry the group's entity.
	ents := next.Entities()
	for g, e := range ix.entities {
		lo, hi := ix.starts[g], ix.starts[g+1]
		if ents[lo] != e || ents[hi-1] != e {
			return nil, fmt.Errorf("table: MergeIndex boundary mismatch: group %d claims entity %d over rows [%d,%d) but found %d..%d",
				g, e, lo, hi, ents[lo], ents[hi-1])
		}
	}
	ix.cols = make([]lazyCol, len(next.cols))
	return ix, nil
}

// AdoptIndex installs a prebuilt index (typically from MergeIndex) as
// the table's cached index, so Table.Index serves it instead of running
// BuildIndex on first use.
func (t *Table) AdoptIndex(ix *Index) {
	if ix.t != t {
		panic("table: AdoptIndex of an index built for a different table")
	}
	if ix.n != t.n {
		panic(fmt.Sprintf("table: AdoptIndex of an index over %d rows onto a table with %d", ix.n, t.n))
	}
	t.idxMu.Lock()
	t.idx = ix
	t.idxMu.Unlock()
}

// Affected reports, per query, whether the delta can have changed it at
// all — the boolean the publisher's selective invalidation needs (it
// drops a marginal iff its affected-cell set is nonempty, and never
// looks at the set itself). Unlike AffectedCells this short-circuits:
// a query is marked at the first touched entity whose contribution to
// it changed, and the sweep stops once every query is marked — so a
// quarter of heavy churn over a warm cache costs roughly one entity
// comparison per query, not a pass over every touched group. For each
// i, Affected(...)[i] == (len(AffectedCells(...)[i]) > 0).
func Affected(base, next *Index, touched []int32, qs []*Query) []bool {
	out := make([]bool, len(qs))
	if len(touched) == 0 || len(qs) == 0 {
		return out
	}
	type qstate struct {
		q     *Query
		bcols [][]uint16
		ncols [][]uint16
	}
	states := make([]qstate, len(qs))
	for k, q := range qs {
		if q.schema != base.t.Schema() || q.schema != next.t.Schema() {
			panic("table: Affected query compiled against a different schema")
		}
		states[k] = qstate{q: q, bcols: queryCols(base, q), ncols: queryCols(next, q)}
	}
	remaining := len(qs)
	oldCells := make(map[int]int64)
	newCells := make(map[int]int64)
	for _, e := range touched {
		for k := range states {
			if out[k] {
				continue
			}
			st := &states[k]
			clear(oldCells)
			clear(newCells)
			entityCells(base, st.bcols, st.q.radices, e, oldCells)
			entityCells(next, st.ncols, st.q.radices, e, newCells)
			differs := len(oldCells) != len(newCells)
			if !differs {
				for key, c := range oldCells {
					if newCells[key] != c {
						differs = true
						break
					}
				}
			}
			if differs {
				out[k] = true
				remaining--
			}
		}
		if remaining == 0 {
			break
		}
	}
	return out
}

// queryCols resolves a query's columns in index order.
func queryCols(ix *Index, q *Query) [][]uint16 {
	cols := make([][]uint16, len(q.attrs))
	for i, a := range q.attrs {
		cols[i] = ix.col(a)
	}
	return cols
}

// entityCells accumulates entity e's per-cell row counts under the
// query's columns into cells. Entities absent from the index (a not-yet
// -born or fully removed establishment) contribute nothing.
func entityCells(ix *Index, cols [][]uint16, radices []int, e int32, cells map[int]int64) {
	g, ok := ix.findGroup(e)
	if !ok {
		return
	}
	for p := int(ix.starts[g]); p < int(ix.starts[g+1]); p++ {
		cells[keyAt(cols, radices, p)]++
	}
}

// findGroup locates the group of entity e by binary search over the
// ascending entity list. Indexes with entity-less (synthetic negative)
// groups are rejected: their group list is not globally sorted.
func (ix *Index) findGroup(e int32) (int, bool) {
	n := len(ix.entities)
	if n > 0 && ix.entities[n-1] < 0 {
		panic("table: entity search requires an entity-complete table")
	}
	g := sort.Search(n, func(i int) bool { return ix.entities[i] >= e })
	if g < n && ix.entities[g] == e {
		return g, true
	}
	return 0, false
}
