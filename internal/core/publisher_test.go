package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/lodes"
	"repro/internal/privacy"
	"repro/internal/table"
)

func testPublisher(t *testing.T, seed int64) *Publisher {
	t.Helper()
	d := lodes.MustGenerate(lodes.TestConfig(), dist.NewStreamFromSeed(seed))
	return NewPublisher(d)
}

func workload1Attrs() []string {
	return []string{lodes.AttrPlace, lodes.AttrIndustry, lodes.AttrOwnership}
}

func TestReleaseMarginalSmoothGamma(t *testing.T) {
	p := testPublisher(t, 1)
	rel, err := p.ReleaseMarginal(nil, Request{
		Attrs: workload1Attrs(), Mechanism: MechSmoothGamma, Alpha: 0.1, Eps: 2,
	}, dist.NewStreamFromSeed(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Noisy) != rel.Query.NumCells() {
		t.Fatalf("released %d cells, query has %d", len(rel.Noisy), rel.Query.NumCells())
	}
	if rel.Loss.Def != privacy.StrongEREE {
		t.Errorf("definition = %v, want StrongEREE for establishment-only marginal", rel.Loss.Def)
	}
	if rel.Loss.Eps != 2 {
		t.Errorf("loss eps = %v, want 2 (parallel composition)", rel.Loss.Eps)
	}
	// Noise was actually added somewhere.
	diff := 0
	for cell, c := range rel.Truth.Counts {
		if rel.Noisy[cell] != float64(c) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("release identical to truth")
	}
}

func TestReleaseMarginalWeakDefinitionAndSurcharge(t *testing.T) {
	p := testPublisher(t, 3)
	attrs := append(workload1Attrs(), lodes.AttrSex, lodes.AttrEducation)
	rel, err := p.ReleaseMarginal(nil, Request{
		Attrs: attrs, Mechanism: MechSmoothGamma, Alpha: 0.1, Eps: 2,
	}, dist.NewStreamFromSeed(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Loss.Def != privacy.WeakEREE {
		t.Errorf("definition = %v, want WeakEREE once worker attributes appear", rel.Loss.Def)
	}
	// d = |sex| * |education| = 8, so the marginal costs 8 * 2 = 16.
	if rel.Loss.Eps != 16 {
		t.Errorf("loss eps = %v, want d*eps = 16", rel.Loss.Eps)
	}
}

func TestReleaseMarginalEdgeLaplace(t *testing.T) {
	p := testPublisher(t, 5)
	rel, err := p.ReleaseMarginal(nil, Request{
		Attrs: workload1Attrs(), Mechanism: MechEdgeLaplace, Eps: 1,
	}, dist.NewStreamFromSeed(6), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Loss.Def != privacy.EdgeDP {
		t.Errorf("definition = %v, want EdgeDP", rel.Loss.Def)
	}
	// Edge-DP noise is tiny: average per-cell error ~1/eps.
	var l1 float64
	for cell, c := range rel.Truth.Counts {
		l1 += math.Abs(rel.Noisy[cell] - float64(c))
	}
	avg := l1 / float64(len(rel.Noisy))
	if avg > 3 {
		t.Errorf("edge-DP average cell error = %v, want ~1", avg)
	}
}

func TestReleaseMarginalTruncatedLaplace(t *testing.T) {
	p := testPublisher(t, 7)
	rel, err := p.ReleaseMarginal(nil, Request{
		Attrs: workload1Attrs(), Mechanism: MechTruncatedLaplace, Eps: 4, Theta: 100,
	}, dist.NewStreamFromSeed(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Loss.Def != privacy.NodeDP {
		t.Errorf("definition = %v, want NodeDP", rel.Loss.Def)
	}
	if rel.Truncation == nil {
		t.Fatal("truncation summary missing")
	}
	if rel.Truncation.RemovedEmployers == 0 {
		t.Error("synthetic data should have establishments above theta=100")
	}
	if !strings.Contains(rel.MechanismName, "truncated") {
		t.Errorf("mechanism name = %q", rel.MechanismName)
	}
}

func TestReleaseValidityErrors(t *testing.T) {
	p := testPublisher(t, 9)
	// Smooth Gamma out of validity region.
	if _, err := p.ReleaseMarginal(nil, Request{
		Attrs: workload1Attrs(), Mechanism: MechSmoothGamma, Alpha: 0.1, Eps: 0.25,
	}, dist.NewStreamFromSeed(1), nil); err == nil {
		t.Error("invalid SmoothGamma parameters accepted")
	}
	// Smooth Laplace below Table 2 minimum.
	if _, err := p.ReleaseMarginal(nil, Request{
		Attrs: workload1Attrs(), Mechanism: MechSmoothLaplace, Alpha: 0.2, Eps: 0.5, Delta: 0.05,
	}, dist.NewStreamFromSeed(1), nil); err == nil {
		t.Error("invalid SmoothLaplace parameters accepted")
	}
	// Unknown attribute.
	if _, err := p.ReleaseMarginal(nil, Request{
		Attrs: []string{"nonsense"}, Mechanism: MechSmoothGamma, Alpha: 0.1, Eps: 2,
	}, dist.NewStreamFromSeed(1), nil); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestReleaseSingleCell(t *testing.T) {
	p := testPublisher(t, 10)
	attrs := append(workload1Attrs(), lodes.AttrSex, lodes.AttrEducation)
	values := []string{lodes.PlaceName(0), "44-Retail", "Private", "F", "BachelorsPlus"}
	noisy, truth, loss, _, err := p.ReleaseSingleCell(nil, Request{
		Attrs: attrs, Mechanism: MechSmoothLaplace, Alpha: 0.1, Eps: 2, Delta: 0.05,
	}, values, dist.NewStreamFromSeed(11), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Single cells never pay the d*eps surcharge.
	if loss.Eps != 2 {
		t.Errorf("single-cell loss = %v, want 2", loss.Eps)
	}
	if loss.Def != privacy.WeakEREE {
		t.Errorf("definition = %v, want WeakEREE", loss.Def)
	}
	if truth < 0 {
		t.Errorf("truth = %d", truth)
	}
	if noisy == float64(truth) && truth > 0 {
		t.Error("single-cell release exactly equals the truth")
	}
}

func TestReleaseSingleCellErrors(t *testing.T) {
	p := testPublisher(t, 12)
	if _, _, _, _, err := p.ReleaseSingleCell(nil, Request{
		Attrs: workload1Attrs(), Mechanism: MechTruncatedLaplace, Eps: 1, Theta: 10,
	}, []string{lodes.PlaceName(0), "44-Retail", "Private"}, dist.NewStreamFromSeed(1), nil); err == nil {
		t.Error("truncated-laplace single cell accepted")
	}
	if _, _, _, _, err := p.ReleaseSingleCell(nil, Request{
		Attrs: workload1Attrs(), Mechanism: MechSmoothGamma, Alpha: 0.1, Eps: 2,
	}, []string{"bad-place", "44-Retail", "Private"}, dist.NewStreamFromSeed(1), nil); err == nil {
		t.Error("bad cell value accepted")
	}
}

func TestPublisherAccountantIntegration(t *testing.T) {
	d := lodes.MustGenerate(lodes.TestConfig(), dist.NewStreamFromSeed(13))
	acct, err := privacy.NewAccountant(privacy.StrongEREE, 0.1, 4.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPublisher(d)
	req := Request{Attrs: workload1Attrs(), Mechanism: MechSmoothGamma, Alpha: 0.1, Eps: 2}
	if _, err := p.ReleaseMarginal(acct, req, dist.NewStreamFromSeed(14), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReleaseMarginal(acct, req, dist.NewStreamFromSeed(15), nil); err != nil {
		t.Fatal(err)
	}
	// Third release would need eps=6 > 4.
	if _, err := p.ReleaseMarginal(acct, req, dist.NewStreamFromSeed(16), nil); err == nil {
		t.Error("budget-exhausting release accepted")
	}
	if acct.Releases() != 2 {
		t.Errorf("accountant charged %d releases, want 2", acct.Releases())
	}
}

func TestReleaseDeterministicForStream(t *testing.T) {
	p := testPublisher(t, 17)
	req := Request{Attrs: workload1Attrs(), Mechanism: MechSmoothLaplace, Alpha: 0.1, Eps: 2, Delta: 0.05}
	a, err := p.ReleaseMarginal(nil, req, dist.NewStreamFromSeed(18), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.ReleaseMarginal(nil, req, dist.NewStreamFromSeed(18), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Noisy {
		if a.Noisy[i] != b.Noisy[i] {
			t.Fatal("release not deterministic for a fixed stream")
		}
	}
}

func TestCellInputs(t *testing.T) {
	s := table.NewSchema(table.NewDomain("x", "a", "b"))
	tab := table.New(s)
	for i := 0; i < 5; i++ {
		tab.AppendRow(0, 0)
	}
	tab.AppendRow(1, 0)
	m := table.Compute(tab, table.MustNewQuery(s, "x"))
	cells := CellInputs(m)
	if cells[0].Count != 6 || cells[0].MaxContribution != 5 {
		t.Errorf("cell 0 = %+v, want count 6, maxContribution 5", cells[0])
	}
	if cells[1].Count != 0 || cells[1].MaxContribution != 0 {
		t.Errorf("cell 1 = %+v, want zeros", cells[1])
	}
}

func TestParseMechanismKind(t *testing.T) {
	for _, k := range []MechanismKind{
		MechLogLaplace, MechSmoothGamma, MechSmoothLaplace, MechEdgeLaplace, MechTruncatedLaplace,
	} {
		got, err := ParseMechanismKind(k.String())
		if err != nil || got != k {
			t.Errorf("round trip of %v failed: %v, %v", k, got, err)
		}
	}
	if _, err := ParseMechanismKind("bogus"); err == nil {
		t.Error("bogus mechanism parsed")
	}
}

func TestDefinitionFor(t *testing.T) {
	if def := definitionFor(MechSmoothGamma, workload1Attrs()); def != privacy.StrongEREE {
		t.Errorf("establishment-only = %v", def)
	}
	if def := definitionFor(MechSmoothGamma, []string{lodes.AttrPlace, lodes.AttrSex}); def != privacy.WeakEREE {
		t.Errorf("with worker attrs = %v", def)
	}
	if def := definitionFor(MechEdgeLaplace, workload1Attrs()); def != privacy.EdgeDP {
		t.Errorf("edge = %v", def)
	}
	if def := definitionFor(MechTruncatedLaplace, workload1Attrs()); def != privacy.NodeDP {
		t.Errorf("node = %v", def)
	}
}
