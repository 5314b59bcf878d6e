package bipartite

// Differential tests of the θ-filtered scan (table.Index.ComputeTruncated)
// against Truncate's projected copy. They live here, not in package
// table, because table's tests cannot import bipartite.

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/lodes"
	"repro/internal/table"
)

// checkTruncatedScan compares the filtered scan of q at theta with
// Truncate + table.Compute over the same table: every statistic of the
// marginal, the removed employers and the removed edges.
func checkTruncatedScan(t *testing.T, tab *table.Table, q *table.Query, theta int) {
	t.Helper()
	got, tr, err := tab.Index().ComputeTruncated(q, theta)
	if err != nil {
		t.Fatalf("theta=%d: filtered scan: %v", theta, err)
	}
	res, err := Truncate(tab, theta)
	if err != nil {
		t.Fatalf("theta=%d: Truncate: %v", theta, err)
	}
	want := table.Compute(res.Kept, q)
	for _, st := range []struct {
		name      string
		got, want []int64
	}{
		{"counts", got.Counts, want.Counts},
		{"max contribution", got.MaxEntityContribution, want.MaxEntityContribution},
		{"second contribution", got.SecondEntityContribution, want.SecondEntityContribution},
		{"entity count", got.EntityCount, want.EntityCount},
	} {
		if !reflect.DeepEqual(st.got, st.want) {
			t.Fatalf("theta=%d %v: %s differ:\n  scan:     %v\n  truncate: %v", theta, q.AttrNames(), st.name, st.got, st.want)
		}
	}
	if tr.RemovedGroups != res.RemovedEmployers || tr.RemovedRows != res.RemovedEdges {
		t.Fatalf("theta=%d: scan removed %d employers / %d edges, Truncate %d / %d",
			theta, tr.RemovedGroups, tr.RemovedRows, res.RemovedEmployers, res.RemovedEdges)
	}
}

// Threshold placements the fuzz target chooses among.
const (
	thetaAt    = iota // θ equal to some group's length
	thetaBelow        // one below it
	thetaAbove        // one above it
	thetaAll          // at least the longest group: nothing removed
	thetaNone         // below the shortest group: everything removed
	numThetaModes
)

// fuzzTable builds a job table over three attributes with groups
// employers of 1..maxSize jobs (2..maxSize+1 when every group must
// exceed θ), entity IDs with gaps, rows in shuffled or entity order, and
// optionally one entity-less row. It returns the table and a θ placed
// against the group lengths by mode; pick chooses the group for the
// modes that name one.
func fuzzTable(seed int64, groups, maxSize, pick, mode int, shuffled, anon bool) (*table.Table, int) {
	s := dist.NewStreamFromSeed(seed)
	schema := table.NewSchema(
		table.NewDomain("a", "a0", "a1", "a2"),
		table.NewDomain("b", "b0", "b1", "b2", "b3"),
		table.NewDomain("c", "c0", "c1", "c2", "c3", "c4"),
	)
	sizes := make([]int, groups)
	var ents []int32
	for i := range sizes {
		sizes[i] = 1 + s.IntN(maxSize)
		if mode == thetaNone {
			sizes[i]++
		}
		for j := 0; j < sizes[i]; j++ {
			ents = append(ents, int32(3*i))
		}
	}
	if shuffled {
		for i := len(ents) - 1; i > 0; i-- {
			j := s.IntN(i + 1)
			ents[i], ents[j] = ents[j], ents[i]
		}
	}
	if anon {
		at := s.IntN(len(ents) + 1)
		ents = append(ents[:at], append([]int32{-1}, ents[at:]...)...)
	}
	tab := table.New(schema)
	for _, e := range ents {
		tab.AppendRow(e, s.IntN(3), s.IntN(4), s.IntN(5))
	}
	var theta int
	switch size := sizes[pick%groups]; mode {
	case thetaAt:
		theta = size
	case thetaBelow:
		theta = size - 1
	case thetaAbove:
		theta = size + 1
	case thetaAll:
		theta = slices.Max(sizes)
	case thetaNone:
		theta = slices.Min(sizes) - 1
	}
	return tab, max(theta, 1)
}

// FuzzTruncatedScanDifferential: on random tables, the θ-filtered scan
// agrees with Truncate + table.Compute on every marginal statistic and
// on the removed employers and edges, for queries of one, two and three
// attributes and θ at, just below and just above a group length, above
// every group and below every group (an all-zero marginal). A table
// with an entity-less row is refused by both.
func FuzzTruncatedScanDifferential(f *testing.F) {
	for mode := 0; mode < numThetaModes; mode++ {
		f.Add(int64(mode), uint8(12), uint8(9), uint8(mode), uint8(mode), true, false)
		f.Add(int64(10+mode), uint8(40), uint8(30), uint8(3*mode), uint8(2), false, false)
	}
	f.Add(int64(20), uint8(1), uint8(1), uint8(0), uint8(0), false, false)
	f.Add(int64(21), uint8(8), uint8(5), uint8(1), uint8(2), true, true)
	f.Add(int64(22), uint8(8), uint8(5), uint8(thetaAll), uint8(0), false, true)
	f.Fuzz(func(t *testing.T, seed int64, groups, maxSize, modePick, arity uint8, shuffled, anon bool) {
		g := 1 + int(groups)%64
		mode := int(modePick) % numThetaModes
		tab, theta := fuzzTable(seed, g, 1+int(maxSize)%48, int(modePick)/numThetaModes, mode, shuffled, anon)
		q := table.MustNewQuery(tab.Schema(), []string{"c", "a", "b"}[:1+int(arity)%3]...)
		if anon {
			if _, _, err := tab.Index().ComputeTruncated(q, theta); err == nil {
				t.Fatal("filtered scan accepted an entity-less row")
			}
			if _, err := Truncate(tab, theta); err == nil {
				t.Fatal("Truncate accepted an entity-less row")
			}
			return
		}
		checkTruncatedScan(t, tab, q, theta)
	})
}

// paperThetas is Finding 6's θ grid (eval.PaperThetaGrid, which this
// package's tests cannot import).
var paperThetas = []int{2, 20, 50, 100, 200, 500}

// TestTruncatedScanPaperThetas: at every θ of Finding 6, on default-scale
// data and on its successor after one quarterly delta, the filtered scan
// of Workload 1 — in schema order and in another order — matches
// Truncate + table.Compute.
func TestTruncatedScanPaperThetas(t *testing.T) {
	data := lodes.MustGenerate(lodes.DefaultConfig(), dist.NewStreamFromSeed(1))
	delta, err := lodes.GenerateDelta(data, lodes.DefaultDeltaConfig(), dist.NewStreamFromSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	next, err := data.ApplyDelta(delta)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*lodes.Dataset{data, next} {
		tab := d.WorkerFull
		for _, attrs := range [][]string{
			{lodes.AttrPlace, lodes.AttrIndustry, lodes.AttrOwnership},
			{lodes.AttrOwnership, lodes.AttrPlace, lodes.AttrIndustry},
		} {
			q := table.MustNewQuery(tab.Schema(), attrs...)
			for _, theta := range paperThetas {
				checkTruncatedScan(t, tab, q, theta)
			}
		}
	}
}
