package bipartite

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/lodes"
	"repro/internal/table"
)

func jobTable(t *testing.T, degrees []int) *table.Table {
	t.Helper()
	s := table.NewSchema(table.NewDomain("place", "a", "b"))
	tab := table.New(s)
	for emp, d := range degrees {
		for j := 0; j < d; j++ {
			tab.AppendRow(int32(emp), emp%2)
		}
	}
	return tab
}

func TestFromTableDegrees(t *testing.T) {
	tab := jobTable(t, []int{3, 0, 7, 1})
	g, err := FromTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 11 {
		t.Errorf("edges = %d, want 11", g.NumEdges())
	}
	wantDeg := []int{3, 0, 7, 1}
	for e, want := range wantDeg {
		if got := g.Degree(e); got != want {
			t.Errorf("degree(%d) = %d, want %d", e, got, want)
		}
	}
	if g.MaxDegree() != 7 {
		t.Errorf("max degree = %d, want 7", g.MaxDegree())
	}
}

func TestFromTableRejectsAnonymous(t *testing.T) {
	s := table.NewSchema(table.NewDomain("x", "a"))
	tab := table.New(s)
	tab.AppendRow(-1, 0)
	if _, err := FromTable(tab); err == nil {
		t.Error("FromTable accepted a job with no employer")
	}
}

func TestEmployersOverAndEdgesRemoved(t *testing.T) {
	tab := jobTable(t, []int{5, 10, 20, 2})
	g, err := FromTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.EmployersOver(9); got != 2 {
		t.Errorf("EmployersOver(9) = %d, want 2", got)
	}
	if got := g.EdgesRemovedByTruncation(9); got != 30 {
		t.Errorf("EdgesRemovedByTruncation(9) = %d, want 30", got)
	}
}

func TestTruncateRemovesLargeEmployers(t *testing.T) {
	tab := jobTable(t, []int{5, 100, 3, 50})
	res, err := Truncate(tab, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemovedEmployers != 2 {
		t.Errorf("removed employers = %d, want 2", res.RemovedEmployers)
	}
	if res.RemovedEdges != 150 {
		t.Errorf("removed edges = %d, want 150", res.RemovedEdges)
	}
	if res.Kept.NumRows() != 8 {
		t.Errorf("kept rows = %d, want 8", res.Kept.NumRows())
	}
	g, err := FromTable(res.Kept)
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxDegree() > 10 {
		t.Errorf("post-truncation max degree = %d > theta", g.MaxDegree())
	}
}

func TestTruncateNoOpWhenThetaLarge(t *testing.T) {
	tab := jobTable(t, []int{5, 3, 9})
	res, err := Truncate(tab, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemovedEmployers != 0 || res.RemovedEdges != 0 {
		t.Error("truncation with huge theta removed something")
	}
	if res.Kept.NumRows() != tab.NumRows() {
		t.Error("truncation with huge theta changed the table")
	}
}

func TestTruncateInvalidTheta(t *testing.T) {
	tab := jobTable(t, []int{1})
	if _, err := Truncate(tab, 0); err == nil {
		t.Error("Truncate(0) did not error")
	}
}

func TestTruncatePropertyDegreeBound(t *testing.T) {
	// Property: after truncation, every remaining employer has degree <= theta
	// and edges kept + removed = total.
	f := func(raw []uint8, thetaRaw uint8) bool {
		theta := int(thetaRaw)%20 + 1
		degrees := make([]int, len(raw))
		total := 0
		for i, r := range raw {
			degrees[i] = int(r) % 40
			total += degrees[i]
		}
		s := table.NewSchema(table.NewDomain("x", "a"))
		tab := table.New(s)
		for emp, d := range degrees {
			for j := 0; j < d; j++ {
				tab.AppendRow(int32(emp), 0)
			}
		}
		res, err := Truncate(tab, theta)
		if err != nil {
			return false
		}
		if res.Kept.NumRows()+res.RemovedEdges != total {
			return false
		}
		if res.Kept.NumRows() == 0 {
			return true
		}
		g, err := FromTable(res.Kept)
		if err != nil {
			return false
		}
		return g.MaxDegree() <= theta
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTruncateOnLODESDistortsLargeEstablishments(t *testing.T) {
	// The Section 6 argument: small theta removes exactly the large
	// establishments whose preservation matters for economic statistics.
	d := lodes.MustGenerate(lodes.TestConfig(), dist.NewStreamFromSeed(42))
	g, err := FromTable(d.WorkerFull)
	if err != nil {
		t.Fatal(err)
	}
	theta := 100
	res, err := Truncate(d.WorkerFull, theta)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemovedEmployers != g.EmployersOver(theta) {
		t.Errorf("removed %d employers, graph says %d exceed theta",
			res.RemovedEmployers, g.EmployersOver(theta))
	}
	if res.RemovedEdges == 0 {
		t.Error("no jobs removed: the synthetic data has no establishments above 100, skew too weak")
	}
	// The removed share of employment must exceed the removed share of
	// establishments, because truncation targets the big ones.
	edgeShare := float64(res.RemovedEdges) / float64(d.NumJobs())
	empShare := float64(res.RemovedEmployers) / float64(d.NumEstablishments())
	if edgeShare <= empShare {
		t.Errorf("removed edge share %v <= employer share %v: truncation not hitting the tail",
			edgeShare, empShare)
	}
}

func TestSensitivityAfterTruncation(t *testing.T) {
	if got := SensitivityAfterTruncation(50); got != 50 {
		t.Errorf("sensitivity = %v, want 50", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("SensitivityAfterTruncation(0) did not panic")
		}
	}()
	SensitivityAfterTruncation(0)
}

// Degree statistics of the graph: the oracles the tests above check
// FromTable and Truncate against.

// NumEdges returns the number of edges (jobs). Because each worker holds
// exactly one job, this is also the number of employee nodes.
func (g *Graph) NumEdges() int { return g.edges }

// Degree returns the degree (employment) of the given employer.
func (g *Graph) Degree(employer int) int {
	if employer < 0 || employer >= len(g.degrees) {
		panic(fmt.Sprintf("bipartite: employer %d out of range", employer))
	}
	return g.degrees[employer]
}

// MaxDegree returns the largest employer degree. This is the quantity
// with no a priori bound that makes the Laplace mechanism inapplicable
// under node-differential privacy (Section 6).
func (g *Graph) MaxDegree() int {
	max := 0
	for _, d := range g.degrees {
		if d > max {
			max = d
		}
	}
	return max
}

// EmployersOver returns how many employers have degree strictly greater
// than theta.
func (g *Graph) EmployersOver(theta int) int {
	n := 0
	for _, d := range g.degrees {
		if d > theta {
			n++
		}
	}
	return n
}

// EdgesRemovedByTruncation returns how many edges (jobs) a θ-truncation
// would delete: the total employment of employers with degree > theta.
func (g *Graph) EdgesRemovedByTruncation(theta int) int {
	n := 0
	for _, d := range g.degrees {
		if d > theta {
			n += d
		}
	}
	return n
}
