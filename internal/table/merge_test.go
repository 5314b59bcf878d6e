package table

import (
	"math/rand"
	"sort"
	"testing"
)

// Differential tests of the incremental index maintenance path:
// MergeIndex must be bit-identical to BuildIndex-from-scratch on the
// successor table, and AffectedCells must be sound — every cell outside
// a query's affected set carries identical statistics in both epochs.
// The delta shapes mirror the quarterly releases the versioned dataset
// absorbs: pure adds (hires and establishment births), deaths, and
// mixed churn.

// entityRows is a mutable entity-level view of a table: rows[e] holds
// the code tuples of entity e, in row order.
type entityRows struct {
	schema *Schema
	rows   map[int32][][]int
	order  []int32 // ascending entity ids with at least one historical row
}

// randomEntityRows builds a base population of numEnts entities with
// 1..maxSize rows each.
func randomEntityRows(rng *rand.Rand, numEnts, maxSize int) *entityRows {
	s := testSchema()
	er := &entityRows{schema: s, rows: make(map[int32][][]int)}
	for e := int32(0); int(e) < numEnts; e++ {
		n := 1 + rng.Intn(maxSize)
		for i := 0; i < n; i++ {
			er.rows[e] = append(er.rows[e], randomCodes(rng, s))
		}
		er.order = append(er.order, e)
	}
	return er
}

func randomCodes(rng *rand.Rand, s *Schema) []int {
	codes := make([]int, s.NumAttrs())
	for a := range codes {
		codes[a] = rng.Intn(s.Attr(a).Size())
	}
	return codes
}

// table materializes the current population as an entity-sorted table.
func (er *entityRows) table() *Table {
	t := New(er.schema)
	for _, e := range er.order {
		for _, codes := range er.rows[e] {
			t.AppendRow(e, codes...)
		}
	}
	return t
}

// touchedSets returns the touched entity list (ascending) and each
// touched entity's current row count.
func (er *entityRows) touchedSets(touched map[int32]bool) (ids, sizes []int32) {
	for _, e := range er.order {
		if touched[e] {
			ids = append(ids, e)
			sizes = append(sizes, int32(len(er.rows[e])))
		}
	}
	return ids, sizes
}

// applyChurn mutates the population with the given per-entity
// operations and returns the touched set. Newborn entities must use ids
// above every existing one to keep er.order ascending.
func (er *entityRows) applyChurn(rng *rand.Rand, removals map[int32]int, adds map[int32]int, births int) map[int32]bool {
	touched := make(map[int32]bool)
	for e, k := range removals {
		if k > len(er.rows[e]) {
			k = len(er.rows[e])
		}
		er.rows[e] = er.rows[e][:len(er.rows[e])-k]
		touched[e] = true
	}
	for e, k := range adds {
		for i := 0; i < k; i++ {
			er.rows[e] = append(er.rows[e], randomCodes(rng, er.schema))
		}
		touched[e] = true
	}
	next := er.order[len(er.order)-1] + 1
	for i := 0; i < births; i++ {
		e := next + int32(i)
		n := 1 + rng.Intn(4)
		for j := 0; j < n; j++ {
			er.rows[e] = append(er.rows[e], randomCodes(rng, er.schema))
		}
		er.order = append(er.order, e)
		touched[e] = true
	}
	return touched
}

func mergeQueries(t *testing.T, s *Schema) []*Query {
	t.Helper()
	return []*Query{
		MustNewQuery(s),
		MustNewQuery(s, "place"),
		MustNewQuery(s, "sex"),
		MustNewQuery(s, "place", "industry"),
		MustNewQuery(s, "industry", "place", "sex"),
	}
}

// checkMergeDifferential verifies, for one (base, delta) pair, that the
// merged index is bit-identical to a scratch rebuild and that
// AffectedCells is sound against the base marginals.
func checkMergeDifferential(t *testing.T, er *entityRows, mutate func() map[int32]bool, label string) {
	t.Helper()
	base := er.table()
	baseIx := base.Index()
	qs := mergeQueries(t, er.schema)
	baseMs := baseIx.ComputeAll(qs)

	touchedSet := mutate()
	next := er.table()
	ids, sizes := er.touchedSets(touchedSet)

	merged, err := MergeIndex(baseIx, next, ids, sizes)
	if err != nil {
		t.Fatalf("%s: MergeIndex: %v", label, err)
	}
	rebuilt := BuildIndex(next)
	if merged.NumGroups() != rebuilt.NumGroups() {
		t.Fatalf("%s: merged index has %d groups, rebuild has %d",
			label, merged.NumGroups(), rebuilt.NumGroups())
	}
	mergedMs := merged.ComputeAll(qs)
	rebuiltMs := rebuilt.ComputeAll(qs)
	for k := range qs {
		marginalsEqual(t, mergedMs[k], rebuiltMs[k], label+"/merged-vs-rebuilt")
		// The reference scalar engine closes the loop on the successor
		// table itself.
		marginalsEqual(t, mergedMs[k], ComputeReference(next, qs[k]), label+"/merged-vs-reference")
	}
	// Detailed histograms agree too.
	for k := range qs {
		_, mh := merged.ComputeDetailed(qs[k])
		_, rh := rebuilt.ComputeDetailed(qs[k])
		if len(mh) != len(rh) {
			t.Fatalf("%s: detailed histogram length %d vs %d", label, len(mh), len(rh))
		}
		for i := range mh {
			if mh[i] != rh[i] {
				t.Fatalf("%s: detailed histogram[%d] = %+v, want %+v", label, i, mh[i], rh[i])
			}
		}
	}

	// AffectedCells soundness: outside the affected set, every statistic
	// is unchanged from the base epoch.
	affected := AffectedCells(baseIx, merged, ids, qs)
	// The short-circuiting boolean variant must agree with the full set.
	for k, any := range Affected(baseIx, merged, ids, qs) {
		if any != (len(affected[k]) > 0) {
			t.Fatalf("%s: Affected[%d] = %v but AffectedCells has %d cells",
				label, k, any, len(affected[k]))
		}
	}
	for k, q := range qs {
		aff := make(map[int]bool, len(affected[k]))
		for _, c := range affected[k] {
			aff[c] = true
		}
		for cell := 0; cell < q.NumCells(); cell++ {
			if aff[cell] {
				continue
			}
			if baseMs[k].Counts[cell] != mergedMs[k].Counts[cell] ||
				baseMs[k].MaxEntityContribution[cell] != mergedMs[k].MaxEntityContribution[cell] ||
				baseMs[k].SecondEntityContribution[cell] != mergedMs[k].SecondEntityContribution[cell] ||
				baseMs[k].EntityCount[cell] != mergedMs[k].EntityCount[cell] {
				t.Fatalf("%s: query %d cell %d changed but is not in the affected set %v",
					label, k, cell, affected[k])
			}
		}
	}
}

func TestMergeIndexPureAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	er := randomEntityRows(rng, 40, 8)
	checkMergeDifferential(t, er, func() map[int32]bool {
		adds := map[int32]int{3: 2, 7: 5, 19: 1, 39: 3}
		return er.applyChurn(rng, nil, adds, 4)
	}, "pure-adds")
}

func TestMergeIndexDeaths(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	er := randomEntityRows(rng, 40, 8)
	checkMergeDifferential(t, er, func() map[int32]bool {
		removals := make(map[int32]int)
		for _, e := range []int32{0, 5, 11, 26, 39} {
			removals[e] = len(er.rows[e]) // full death
		}
		return er.applyChurn(rng, removals, nil, 0)
	}, "deaths")
}

func TestMergeIndexMixedChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	er := randomEntityRows(rng, 60, 10)
	checkMergeDifferential(t, er, func() map[int32]bool {
		removals := map[int32]int{2: 1, 9: 3, 30: 2}
		for _, e := range []int32{14, 45} {
			removals[e] = len(er.rows[e]) // deaths
		}
		adds := map[int32]int{2: 4, 17: 2, 58: 1} // entity 2 churns both ways
		return er.applyChurn(rng, removals, adds, 3)
	}, "mixed-churn")
}

// TestMergeIndexSuccessiveEpochs chains several random churn deltas,
// merging each epoch's index from the previous *merged* index — the
// shape the publisher's Advance path produces — and re-verifies the
// differential at every step.
func TestMergeIndexSuccessiveEpochs(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	er := randomEntityRows(rng, 50, 6)
	cur := er.table()
	curIx := cur.Index()
	qs := mergeQueries(t, er.schema)
	for epoch := 1; epoch <= 5; epoch++ {
		removals := make(map[int32]int)
		adds := make(map[int32]int)
		for _, e := range er.order {
			if len(er.rows[e]) == 0 {
				continue
			}
			switch rng.Intn(6) {
			case 0:
				removals[e] = 1 + rng.Intn(len(er.rows[e]))
			case 1:
				adds[e] = 1 + rng.Intn(3)
			}
		}
		touched := er.applyChurn(rng, removals, adds, rng.Intn(3))
		next := er.table()
		ids, sizes := er.touchedSets(touched)
		merged, err := MergeIndex(curIx, next, ids, sizes)
		if err != nil {
			t.Fatalf("epoch %d: MergeIndex: %v", epoch, err)
		}
		mergedMs := merged.ComputeAll(qs)
		rebuiltMs := BuildIndex(next).ComputeAll(qs)
		for k := range qs {
			marginalsEqual(t, mergedMs[k], rebuiltMs[k], "successive-epochs")
		}
		cur, curIx = next, merged
	}
}

// TestMergeIndexRejectsCorruptLayout pins the cheap boundary checks: a
// wrong row-count claim and a misgrouped table must both be rejected.
func TestMergeIndexRejectsCorruptLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	er := randomEntityRows(rng, 10, 4)
	base := er.table()
	baseIx := base.Index()

	touched := er.applyChurn(rng, nil, map[int32]int{4: 2}, 0)
	next := er.table()
	ids, sizes := er.touchedSets(touched)

	// Wrong size claim: totals no longer cover the table.
	if _, err := MergeIndex(baseIx, next, ids, []int32{sizes[0] + 1}); err == nil {
		t.Error("MergeIndex accepted a row-count mismatch")
	}
	// Misgrouped successor: swap two rows across a group boundary.
	bad := New(er.schema)
	for _, e := range er.order {
		for _, codes := range er.rows[e] {
			bad.AppendRow(e, codes...)
		}
	}
	bad.entities[0], bad.entities[bad.n-1] = bad.entities[bad.n-1], bad.entities[0]
	if _, err := MergeIndex(baseIx, bad, ids, sizes); err == nil {
		t.Error("MergeIndex accepted a misgrouped successor table")
	}
	// Unsorted touched list.
	if len(ids) >= 1 {
		if _, err := MergeIndex(baseIx, next, []int32{ids[0], ids[0]}, []int32{1, 1}); err == nil {
			t.Error("MergeIndex accepted a non-ascending touched list")
		}
	}
}

// TestAffectedCellsEmptyForNoOpDelta pins the survival side of the
// selective-invalidation contract: a delta that rewrites an entity's
// rows to the exact same tuples affects nothing.
func TestAffectedCellsEmptyForNoOpDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	er := randomEntityRows(rng, 20, 5)
	base := er.table()
	baseIx := base.Index()
	next := er.table() // identical population
	ids := []int32{3, 8}
	sizes := []int32{int32(len(er.rows[3])), int32(len(er.rows[8]))}
	merged, err := MergeIndex(baseIx, next, ids, sizes)
	if err != nil {
		t.Fatalf("MergeIndex: %v", err)
	}
	qs := mergeQueries(t, er.schema)
	for k, aff := range AffectedCells(baseIx, merged, ids, qs) {
		if len(aff) != 0 {
			t.Errorf("query %d: no-op delta affected cells %v, want none", k, aff)
		}
	}
}

// AffectedCells returns, for each query, the sorted cell keys whose
// marginal statistics can differ between base's table and next's: a
// cell is affected when some touched entity's per-cell contribution to
// it differs between the two snapshots. Untouched entities' rows are
// copied verbatim across snapshots, so a query whose affected set is
// empty has a bit-identical marginal (counts, top-two entity
// contributions, and distinct-entity counts all unchanged) — the
// soundness contract selective cache invalidation relies on.
//
// Both indexes must be over entity-complete tables (no entity-less
// rows) sharing one schema, and every query must be compiled against
// that schema. touched must be sorted ascending.
func AffectedCells(base, next *Index, touched []int32, qs []*Query) [][]int {
	out := make([][]int, len(qs))
	if len(touched) == 0 {
		return out
	}
	for k, q := range qs {
		if q.schema != base.t.Schema() || q.schema != next.t.Schema() {
			panic("table: AffectedCells query compiled against a different schema")
		}
		baseCols := queryCols(base, q)
		nextCols := queryCols(next, q)
		affected := make(map[int]bool)
		oldCells := make(map[int]int64)
		newCells := make(map[int]int64)
		for _, e := range touched {
			clear(oldCells)
			clear(newCells)
			entityCells(base, baseCols, q.radices, e, oldCells)
			entityCells(next, nextCols, q.radices, e, newCells)
			for key, c := range oldCells {
				if newCells[key] != c {
					affected[key] = true
				}
			}
			for key, c := range newCells {
				if oldCells[key] != c {
					affected[key] = true
				}
			}
		}
		keys := make([]int, 0, len(affected))
		for key := range affected {
			keys = append(keys, key)
		}
		sort.Ints(keys)
		out[k] = keys
	}
	return out
}
