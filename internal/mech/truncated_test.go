package mech

import (
	"math"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/dist"
	"repro/internal/table"
)

// truncTable builds a job table with one attribute and the given employer
// sizes, all in the same cell.
func truncTable(sizes []int) (*table.Table, *table.Query) {
	s := table.NewSchema(table.NewDomain("place", "a"))
	tab := table.New(s)
	for emp, n := range sizes {
		for j := 0; j < n; j++ {
			tab.AppendRow(int32(emp), 0)
		}
	}
	return tab, table.MustNewQuery(s, "place")
}

// releaseTruncated releases q over tab the way the oracle defines it:
// bipartite.Truncate's projected copy, its marginal, then the mechanism's
// noise on those counts.
func releaseTruncated(m TruncatedLaplace, tab *table.Table, q *table.Query, s *dist.Stream) ([]float64, *bipartite.TruncationResult, error) {
	res, err := bipartite.Truncate(tab, m.Theta)
	if err != nil {
		return nil, nil, err
	}
	noisy, err := m.ReleaseCounts(table.Compute(res.Kept, q).Counts, s)
	return noisy, res, err
}

func TestTruncatedLaplaceRemovesLargeEstablishments(t *testing.T) {
	tab, q := truncTable([]int{5, 8, 2000})
	m, err := NewTruncatedLaplace(4.0, 100)
	if err != nil {
		t.Fatal(err)
	}
	noisy, res, err := releaseTruncated(m, tab, q, dist.NewStreamFromSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.RemovedEmployers != 1 || res.RemovedEdges != 2000 {
		t.Fatalf("truncation removed %d employers / %d edges, want 1/2000",
			res.RemovedEmployers, res.RemovedEdges)
	}
	// True count 2013, truncated count 13. The release must be near 13,
	// demonstrating the ~2000 bias that Finding 6 attributes to truncation.
	if math.Abs(noisy[0]-13) > 300 {
		t.Errorf("release = %v, want near truncated count 13", noisy[0])
	}
}

func TestTruncatedLaplaceBiasDoesNotShrinkWithEps(t *testing.T) {
	// Finding 6: increasing eps does not reduce truncation bias.
	tab, q := truncTable([]int{10, 3000})
	const trials = 200
	biasAt := func(eps float64) float64 {
		m, err := NewTruncatedLaplace(eps, 50)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		parent := dist.NewStreamFromSeed(2)
		for i := 0; i < trials; i++ {
			noisy, _, err := releaseTruncated(m, tab, q, parent.SplitIndex("t", i))
			if err != nil {
				t.Fatal(err)
			}
			sum += math.Abs(noisy[0] - 3010) // true count
		}
		return sum / trials
	}
	lo, hi := biasAt(1), biasAt(16)
	// Both are dominated by the 3000-job truncation bias.
	if lo < 2900 || hi < 2900 {
		t.Errorf("errors %v (eps=1) and %v (eps=16) should both be ~3000", lo, hi)
	}
	if math.Abs(lo-hi)/lo > 0.05 {
		t.Errorf("error changed from %v to %v with eps; bias should dominate", lo, hi)
	}
}

func TestTruncatedLaplaceNoBiasWhenThetaLarge(t *testing.T) {
	tab, q := truncTable([]int{10, 20, 30})
	m, err := NewTruncatedLaplace(2.0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 400
	parent := dist.NewStreamFromSeed(3)
	var sum float64
	for i := 0; i < trials; i++ {
		noisy, res, err := releaseTruncated(m, tab, q, parent.SplitIndex("t", i))
		if err != nil {
			t.Fatal(err)
		}
		if res.RemovedEdges != 0 {
			t.Fatal("unexpected truncation")
		}
		sum += noisy[0]
	}
	mean := sum / trials
	// Unbiased, but noise scale theta/eps = 500 is enormous relative to the
	// count of 60 — the other horn of the truncation dilemma.
	if math.Abs(mean-60) > 150 {
		t.Errorf("mean release = %v, want ~60", mean)
	}
}

func TestTruncatedLaplaceZeroValue(t *testing.T) {
	var zero TruncatedLaplace
	if _, err := zero.ReleaseCounts([]int64{1}, dist.NewStreamFromSeed(1)); err == nil {
		t.Error("zero-value TruncatedLaplace released")
	}
}

func TestTruncatedLaplaceDeterministic(t *testing.T) {
	tab, q := truncTable([]int{5, 500, 7})
	m, err := NewTruncatedLaplace(1.0, 100)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := releaseTruncated(m, tab, q, dist.NewStreamFromSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := releaseTruncated(m, tab, q, dist.NewStreamFromSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("TruncatedLaplace not deterministic for a fixed stream")
		}
	}
}
