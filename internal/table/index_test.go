package table

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// randomTable builds a table with a mix of entity sizes and a fraction of
// entity-less rows, the shapes that exercise every index code path.
func randomTable(t *testing.T, rng *rand.Rand, rows int) *Table {
	t.Helper()
	s := testSchema()
	tab := New(s)
	for i := 0; i < rows; i++ {
		entity := int32(rng.Intn(rows/3 + 1))
		if rng.Intn(10) == 0 {
			entity = -1
		}
		tab.AppendRow(entity,
			rng.Intn(s.Attr(0).Size()),
			rng.Intn(s.Attr(1).Size()),
			rng.Intn(s.Attr(2).Size()))
	}
	return tab
}

func marginalsEqual(t *testing.T, got, want *Marginal, label string) {
	t.Helper()
	check := func(name string, g, w []int64) {
		t.Helper()
		if len(g) != len(w) {
			t.Fatalf("%s: %s length %d, want %d", label, name, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s: %s[%d] = %d, want %d", label, name, i, g[i], w[i])
			}
		}
	}
	check("Counts", got.Counts, want.Counts)
	check("MaxEntityContribution", got.MaxEntityContribution, want.MaxEntityContribution)
	check("SecondEntityContribution", got.SecondEntityContribution, want.SecondEntityContribution)
	check("EntityCount", got.EntityCount, want.EntityCount)
}

// TestIndexedComputeMatchesReference is the differential test of the
// tentpole: the indexed engine must be bit-identical to the scalar
// hash-map reference for every statistic, across query shapes (including
// the empty query) and table shapes (including entity-less rows).
func TestIndexedComputeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	queries := [][]string{
		{},
		{"place"},
		{"sex"},
		{"place", "industry"},
		{"industry", "place"},
		{"place", "industry", "sex"},
	}
	for _, rows := range []int{0, 1, 7, 100, 2000} {
		tab := randomTable(t, rng, rows)
		for _, names := range queries {
			q := MustNewQuery(tab.Schema(), names...)
			label := fmt.Sprintf("rows=%d query=%v", rows, names)
			marginalsEqual(t, Compute(tab, q), ComputeReference(tab, q), label)
		}
	}
}

// TestComputeDetailedMatchesReference checks the per-entity histogram —
// including the synthetic IDs of entity-less rows — against the oracle.
func TestComputeDetailedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tab := randomTable(t, rng, 500)
	q := MustNewQuery(tab.Schema(), "place", "sex")
	gotM, gotH := ComputeDetailed(tab, q)
	wantM, wantH := ComputeReferenceDetailed(tab, q)
	marginalsEqual(t, gotM, wantM, "detailed")
	if len(gotH) != len(wantH) {
		t.Fatalf("histogram length %d, want %d", len(gotH), len(wantH))
	}
	for i := range gotH {
		if gotH[i] != wantH[i] {
			t.Fatalf("histogram[%d] = %+v, want %+v", i, gotH[i], wantH[i])
		}
	}
}

// TestComputeAllMatchesCompute checks the multi-query single-scan API
// against per-query evaluation.
func TestComputeAllMatchesCompute(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tab := randomTable(t, rng, 800)
	qs := []*Query{
		MustNewQuery(tab.Schema(), "place"),
		MustNewQuery(tab.Schema(), "place", "industry"),
		MustNewQuery(tab.Schema(), "sex", "industry"),
		MustNewQuery(tab.Schema()),
	}
	got := ComputeAll(tab, qs)
	if len(got) != len(qs) {
		t.Fatalf("ComputeAll returned %d marginals, want %d", len(got), len(qs))
	}
	for i, q := range qs {
		marginalsEqual(t, got[i], ComputeReference(tab, q), fmt.Sprintf("query %d", i))
	}
	if ComputeAll(tab, nil) != nil {
		t.Error("ComputeAll(nil) should return nil")
	}
}

// TestIndexDeterministicAcrossWorkerCounts pins the sharded engine's
// determinism: the same marginal at GOMAXPROCS 1, 2 and 8.
func TestIndexDeterministicAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	tab := randomTable(t, rng, 3000)
	q := MustNewQuery(tab.Schema(), "place", "industry", "sex")
	want := ComputeReference(tab, q)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, w := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(w)
		got := BuildIndex(tab).Compute(q)
		marginalsEqual(t, got, want, fmt.Sprintf("workers=%d", w))
	}
}

// TestIndexInvalidatedByAppend checks that a cached index never serves a
// stale row count.
func TestIndexInvalidatedByAppend(t *testing.T) {
	s := testSchema()
	tab := New(s)
	tab.AppendRow(0, 0, 0, 0)
	q := MustNewQuery(s, "place")
	if got := Compute(tab, q).Total(); got != 1 {
		t.Fatalf("total = %d, want 1", got)
	}
	tab.AppendRow(1, 0, 0, 0)
	if got := Compute(tab, q).Total(); got != 2 {
		t.Fatalf("total after append = %d, want 2 (stale index?)", got)
	}
}

// TestIndexConcurrentReaders exercises lazy index construction and reuse
// from many goroutines (meaningful under -race).
func TestIndexConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	tab := randomTable(t, rng, 1000)
	q := MustNewQuery(tab.Schema(), "place", "industry")
	want := ComputeReference(tab, q)
	results := make([]*Marginal, 8)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = Compute(tab, q)
		}(i)
	}
	wg.Wait()
	for i, m := range results {
		marginalsEqual(t, m, want, fmt.Sprintf("concurrent reader %d", i))
	}
}

// TestSortedIndexIdentityMode pins the streaming index build: tables
// appended in non-decreasing entity order (every generated LODES frame)
// index with no row permutation at all, while out-of-order or anonymous
// tables fall back to the counting sort — and both modes produce
// marginals and per-entity histograms identical to the oracle's.
func TestSortedIndexIdentityMode(t *testing.T) {
	s := testSchema()
	sorted := New(s)
	rng := rand.New(rand.NewSource(299792))
	for e := int32(0); e < 40; e++ {
		for i := 0; i < int(e%5)+1; i++ {
			sorted.AppendRow(e, rng.Intn(3), rng.Intn(2), rng.Intn(2))
		}
	}
	ix := BuildIndex(sorted)
	if ix.rows != nil {
		t.Fatal("entity-sorted table built a permutation index; want identity mode")
	}

	shuffled := New(s)
	perm := rng.Perm(sorted.NumRows())
	for _, row := range perm {
		codes := make([]int, s.NumAttrs())
		for a := range codes {
			codes[a] = sorted.Code(row, a)
		}
		shuffled.AppendRow(sorted.Entity(row), codes...)
	}
	if sx := BuildIndex(shuffled); sx.rows == nil {
		t.Fatal("shuffled table indexed in identity mode")
	}

	anon := New(s)
	anon.AppendRow(-1, 0, 0, 0)
	if ax := BuildIndex(anon); ax.rows == nil {
		t.Fatal("anonymous rows must take the counting-sort path (negative entities)")
	}

	q := MustNewQuery(s, "place", "sex")
	wantM, wantH := ComputeReferenceDetailed(sorted, q)
	for _, c := range []struct {
		label string
		tab   *Table
	}{{"identity-mode", sorted}, {"permuted-mode", shuffled}} {
		gotM, gotH := c.tab.Index().ComputeDetailed(q)
		marginalsEqual(t, gotM, wantM, c.label)
		if len(gotH) != len(wantH) {
			t.Fatalf("%s: histogram length %d, want %d", c.label, len(gotH), len(wantH))
		}
		for i := range gotH {
			if gotH[i] != wantH[i] {
				t.Fatalf("%s: histogram[%d] = %+v, want %+v", c.label, i, gotH[i], wantH[i])
			}
		}
	}
}
