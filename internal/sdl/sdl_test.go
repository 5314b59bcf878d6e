package sdl

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/lodes"
	"repro/internal/table"
)

// smallJobTable builds a two-attribute job table. Establishment sizes are
// given per (establishment, sexCode) as a map from entity to [2]int.
func smallJobTable(cells map[int32][2]int) (*table.Table, *table.Query, int) {
	s := table.NewSchema(
		table.NewDomain("place", "a", "b"),
		table.NewDomain("sex", "M", "F"),
	)
	tab := table.New(s)
	maxEnt := 0
	for ent, counts := range cells {
		if int(ent) > maxEnt {
			maxEnt = int(ent)
		}
		for sex, n := range counts {
			for j := 0; j < n; j++ {
				tab.AppendRow(ent, int(ent)%2, sex)
			}
		}
	}
	return tab, table.MustNewQuery(s, "place", "sex"), maxEnt + 1
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{S: 0, T: 0.2, SmallCellLimit: 2.5},
		{S: 0.3, T: 0.2, SmallCellLimit: 2.5},
		{S: 0.1, T: 0.25, SmallCellLimit: 0.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
}

func TestFactorsInBand(t *testing.T) {
	sys, err := NewSystem(DefaultConfig(), 1000, dist.NewStreamFromSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	g := dist.NewGapUniform(0.1, 0.25)
	for w := int32(0); w < 1000; w++ {
		f := sys.Factor(w)
		if !g.Contains(f) {
			t.Fatalf("factor %v for establishment %d outside band", f, w)
		}
	}
}

func TestFactorsTimeInvariant(t *testing.T) {
	sys, err := NewSystem(DefaultConfig(), 10, dist.NewStreamFromSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	for w := int32(0); w < 10; w++ {
		if sys.Factor(w) != sys.Factor(w) {
			t.Fatal("factor changed between calls")
		}
	}
}

func TestReleaseNoExactDisclosure(t *testing.T) {
	// A single-establishment cell must never be released exactly: the gap
	// in the factor band guarantees |released - true| >= s*true.
	tab, q, n := smallJobTable(map[int32][2]int{0: {100, 50}})
	sys, err := NewSystem(DefaultConfig(), n, dist.NewStreamFromSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := sys.ReleaseMarginal(tab, q, dist.NewStreamFromSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	cellM, _ := q.CellKeyForValues("a", "M")
	cellF, _ := q.CellKeyForValues("a", "F")
	if math.Abs(rel[cellM]-100) < 0.1*100-1e-9 {
		t.Errorf("released %v too close to true 100: exact disclosure", rel[cellM])
	}
	if math.Abs(rel[cellF]-50) < 0.1*50-1e-9 {
		t.Errorf("released %v too close to true 50", rel[cellF])
	}
}

func TestReleaseZeroCellsUnperturbed(t *testing.T) {
	tab, q, n := smallJobTable(map[int32][2]int{0: {10, 0}})
	sys, err := NewSystem(DefaultConfig(), n, dist.NewStreamFromSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := sys.ReleaseMarginal(tab, q, dist.NewStreamFromSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	cellF, _ := q.CellKeyForValues("a", "F")
	if rel[cellF] != 0 {
		t.Errorf("zero cell released as %v, must stay 0", rel[cellF])
	}
	cellB, _ := q.CellKeyForValues("b", "M")
	if rel[cellB] != 0 {
		t.Errorf("empty place cell released as %v", rel[cellB])
	}
}

func TestReleaseSmallCellReplacement(t *testing.T) {
	// True counts 1 and 2 are in (0, 2.5): the release must be an integer
	// in {1, 2}, never the factor-scaled value.
	tab, q, n := smallJobTable(map[int32][2]int{0: {1, 2}})
	sys, err := NewSystem(DefaultConfig(), n, dist.NewStreamFromSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	parent := dist.NewStreamFromSeed(8)
	for trial := 0; trial < 200; trial++ {
		rel, err := sys.ReleaseMarginal(tab, q, parent.SplitIndex("t", trial))
		if err != nil {
			t.Fatal(err)
		}
		for _, cellName := range []string{"M", "F"} {
			cell, _ := q.CellKeyForValues("a", cellName)
			v := rel[cell]
			if v != 1 && v != 2 {
				t.Fatalf("small cell released as %v, want 1 or 2", v)
			}
		}
	}
}

func TestReleaseSmallCellBothValuesOccur(t *testing.T) {
	tab, q, n := smallJobTable(map[int32][2]int{0: {1, 0}})
	sys, err := NewSystem(DefaultConfig(), n, dist.NewStreamFromSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	cell, _ := q.CellKeyForValues("a", "M")
	saw := map[float64]bool{}
	parent := dist.NewStreamFromSeed(10)
	for trial := 0; trial < 200; trial++ {
		rel, err := sys.ReleaseMarginal(tab, q, parent.SplitIndex("t", trial))
		if err != nil {
			t.Fatal(err)
		}
		saw[rel[cell]] = true
	}
	if !saw[1] || !saw[2] {
		t.Errorf("posterior predictive draws = %v, want both 1 and 2 to occur", saw)
	}
}

func TestReleaseAggregatesMultipleEstablishments(t *testing.T) {
	tab, q, n := smallJobTable(map[int32][2]int{0: {100, 0}, 2: {200, 0}})
	sys, err := NewSystem(DefaultConfig(), n, dist.NewStreamFromSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := sys.ReleaseMarginal(tab, q, dist.NewStreamFromSeed(12))
	if err != nil {
		t.Fatal(err)
	}
	cell, _ := q.CellKeyForValues("a", "M")
	want := sys.Factor(0)*100 + sys.Factor(2)*200
	if math.Abs(rel[cell]-want) > 1e-9 {
		t.Errorf("aggregated release = %v, want %v", rel[cell], want)
	}
}

func TestReleaseErrorWithinBand(t *testing.T) {
	// Relative error of any large single-establishment cell is within [s, t].
	tab, q, n := smallJobTable(map[int32][2]int{0: {1000, 0}})
	cfg := DefaultConfig()
	sys, err := NewSystem(cfg, n, dist.NewStreamFromSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := sys.ReleaseMarginal(tab, q, dist.NewStreamFromSeed(14))
	if err != nil {
		t.Fatal(err)
	}
	cell, _ := q.CellKeyForValues("a", "M")
	relErr := math.Abs(rel[cell]-1000) / 1000
	if relErr < cfg.S-1e-9 || relErr > cfg.T+1e-9 {
		t.Errorf("relative error %v outside [%v, %v]", relErr, cfg.S, cfg.T)
	}
}

func TestL1Error(t *testing.T) {
	got := L1Error([]float64{1, 2, 3}, []int64{0, 2, 5})
	if got != 3 {
		t.Errorf("L1 = %v, want 3", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	L1Error([]float64{1}, []int64{1, 2})
}

func TestSDLOnLODES(t *testing.T) {
	d := lodes.MustGenerate(lodes.TestConfig(), dist.NewStreamFromSeed(15))
	sys, err := NewSystem(DefaultConfig(), d.NumEstablishments(), dist.NewStreamFromSeed(16))
	if err != nil {
		t.Fatal(err)
	}
	q := table.MustNewQuery(d.Schema(), lodes.AttrPlace, lodes.AttrIndustry, lodes.AttrOwnership)
	m := table.Compute(d.WorkerFull, q)
	rel, err := sys.ReleaseMarginal(d.WorkerFull, q, dist.NewStreamFromSeed(17))
	if err != nil {
		t.Fatal(err)
	}
	// Zero cells stay zero; positive cells change; total L1 is bounded by
	// t * total employment plus small-cell effects.
	for cell, c := range m.Counts {
		if c == 0 && rel[cell] != 0 {
			t.Fatalf("zero cell %d released as %v", cell, rel[cell])
		}
		if c >= 3 && rel[cell] == float64(c) {
			t.Fatalf("cell %d released exactly (count %d)", cell, c)
		}
	}
	l1 := L1Error(rel, m.Counts)
	maxL1 := DefaultConfig().T*float64(d.NumJobs()) + 2*float64(len(m.Counts))
	if l1 <= 0 || l1 > maxL1 {
		t.Errorf("SDL L1 = %v, want in (0, %v]", l1, maxL1)
	}
}

// L1Error returns the L1 distance between an SDL release and the true
// counts — the denominator of every error ratio in Section 10.
func L1Error(released []float64, truth []int64) float64 {
	if len(released) != len(truth) {
		panic(fmt.Sprintf("sdl: length mismatch %d vs %d", len(released), len(truth)))
	}
	var sum float64
	for i := range released {
		sum += math.Abs(released[i] - float64(truth[i]))
	}
	return sum
}
