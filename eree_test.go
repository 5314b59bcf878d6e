package eree

import (
	"math"
	"testing"
)

// These tests exercise the public facade end to end, the way a downstream
// user would.

func TestPublicQuickstartFlow(t *testing.T) {
	data, err := Generate(TestDataConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	pub := NewPublisher(data)
	rel, err := pub.ReleaseMarginal(nil, Request{
		Attrs:     WorkplaceAttrs(),
		Mechanism: MechSmoothGamma,
		Alpha:     0.1,
		Eps:       2,
	}, NewStream(7), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Loss.Def != StrongEREE || rel.Loss.Eps != 2 {
		t.Errorf("loss = %v", rel.Loss)
	}
	if len(rel.Noisy) == 0 {
		t.Fatal("no cells released")
	}
}

func TestPublicAccountedRelease(t *testing.T) {
	data, err := Generate(TestDataConfig(), 43)
	if err != nil {
		t.Fatal(err)
	}
	acct, err := NewAccountant(StrongEREE, 0.1, 2.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	pub := NewPublisher(data)
	req := Request{Attrs: WorkplaceAttrs(), Mechanism: MechSmoothGamma, Alpha: 0.1, Eps: 2}
	if _, err := pub.ReleaseMarginal(acct, req, NewStream(1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.ReleaseMarginal(acct, req, NewStream(2), nil); err == nil {
		t.Error("second release should exhaust the eps=2 budget")
	}
}

func TestPublicTable1(t *testing.T) {
	if Satisfies(InputNoiseInfusion, Requirement(0)) != Satisfaction(0) {
		t.Error("SDL should satisfy nothing")
	}
	if got := Table1Text(); got == "" {
		t.Error("Table1Text empty")
	}
	if got := Table2Text(); got == "" {
		t.Error("Table2Text empty")
	}
}

func TestPublicSDLAndSpearman(t *testing.T) {
	data, err := Generate(TestDataConfig(), 44)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSDLSystem(DefaultSDLConfig(), data, NewStream(5))
	if err != nil {
		t.Fatal(err)
	}
	_ = sys
	if rho := Spearman([]float64{1, 2, 3}, []float64{2, 4, 6}); math.Abs(rho-1) > 1e-12 {
		t.Errorf("Spearman = %v", rho)
	}
}

func TestPublicHarnessFigureSlice(t *testing.T) {
	data, err := Generate(TestDataConfig(), 45)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHarness(data, NewStream(6), 2)
	if err != nil {
		t.Fatal(err)
	}
	points, err := h.RunGrid(GridSpec{
		Attrs:      WorkplaceAttrs(),
		Eps:        []float64{2},
		Alpha:      []float64{0.1},
		Mechanisms: []MechanismKind{MechSmoothLaplace},
		Delta:      0.05,
	}, MetricL1Ratio)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 || !points[0].Valid {
		t.Fatalf("points = %+v", points)
	}
	f := &FigureResult{ID: "x", Title: "t", Metric: MetricL1Ratio, Points: points}
	if f.Format() == "" {
		t.Error("empty figure format")
	}
}

func TestPublicCSVRoundTrip(t *testing.T) {
	cfg := TestDataConfig()
	cfg.NumEstablishments = 100
	data, err := Generate(cfg, 46)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := data.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSV(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumJobs() != data.NumJobs() {
		t.Errorf("round trip jobs %d != %d", back.NumJobs(), data.NumJobs())
	}
}

func TestPublicParseMechanism(t *testing.T) {
	k, err := ParseMechanismKind("smooth-laplace")
	if err != nil || k != MechSmoothLaplace {
		t.Errorf("parse = %v, %v", k, err)
	}
}

func TestPublicAttrsClassification(t *testing.T) {
	if len(WorkplaceAttrs()) != 3 || len(WorkerAttrs()) != 5 {
		t.Error("attribute lists wrong")
	}
}

func TestPublicQWIPipeline(t *testing.T) {
	data, err := Generate(TestDataConfig(), 47)
	if err != nil {
		t.Fatal(err)
	}
	panel, err := GeneratePanel(data, DefaultPanelConfig(), NewStream(1))
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuery(data, AttrPlace)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := ComputeFlows(panel, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := flows.CheckIdentity(); err != nil {
		t.Fatal(err)
	}
	rel, loss, err := ReleaseFlows(flows, Request{
		Mechanism: MechSmoothLaplace, Alpha: 0.1, Eps: 2, Delta: 0.05,
	}, NewStream(2))
	if err != nil {
		t.Fatal(err)
	}
	if loss.Eps != 6 {
		t.Errorf("flow loss eps = %v, want 6", loss.Eps)
	}
	if len(rel.NetChange()) != q.NumCells() {
		t.Error("net change length wrong")
	}
}

func TestPublicSuppressionPipeline(t *testing.T) {
	data, err := Generate(TestDataConfig(), 48)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuery(data, AttrIndustry, AttrPlace)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := SuppressionFromMarginal(ComputeMarginal(data, q))
	if err != nil {
		t.Fatal(err)
	}
	primary := PrimarySuppression(tab, ThresholdRule{MinContributors: 3})
	full := ComplementarySuppression(tab, primary)
	if full.Count() < primary.Count() || primary.Count() == 0 {
		t.Fatalf("suppression counts: primary %d, full %d", primary.Count(), full.Count())
	}
	audit := AuditSuppression(tab, full)
	if len(audit) != full.Count() {
		t.Errorf("audit covers %d cells, pattern has %d", len(audit), full.Count())
	}
}

func TestPublicOnTheMapPipeline(t *testing.T) {
	data, err := Generate(TestDataConfig(), 49)
	if err != nil {
		t.Fatal(err)
	}
	od := SyntheticOD(data, NewStream(1))
	if od.Total() != int64(data.NumJobs()) {
		t.Fatalf("OD total %d != jobs %d", od.Total(), data.NumJobs())
	}
	sy, err := NewODSynthesizer(2, 100, ODMinPrior(2, 100))
	if err != nil {
		t.Fatal(err)
	}
	synth, err := sy.Synthesize(od, NewStream(2))
	if err != nil {
		t.Fatal(err)
	}
	if synth.RowTotal(0) != 100 {
		t.Errorf("synthetic row total = %d, want 100", synth.RowTotal(0))
	}
	if _, err := NewODSynthesizer(2, 100, ODMinPrior(2, 100)*0.5); err == nil {
		t.Error("undersized prior accepted")
	}
}

func TestPublicSDLAttackHelpers(t *testing.T) {
	released := []float64{112.5, 45.0}
	shape, err := SDLShapeDisclosure(released)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(shape[0]+shape[1]-1) > 1e-12 {
		t.Error("shape does not normalize")
	}
	factor, recon, err := SDLFactorReconstruction(released, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(factor-1.125) > 1e-12 {
		t.Errorf("factor = %v, want 1.125", factor)
	}
	if math.Abs(SDLTotalSizeReconstruction(recon)-140) > 1e-9 {
		t.Errorf("size = %v, want 140", SDLTotalSizeReconstruction(recon))
	}
	cell, err := SDLZeroCountReIdentification([]float64{0, 3.3, 0}, []bool{true, true, true})
	if err != nil || cell != 1 {
		t.Errorf("re-identification = %d, %v", cell, err)
	}
}

func TestPublicSingleCellAndDataset(t *testing.T) {
	data, err := Generate(TestDataConfig(), 50)
	if err != nil {
		t.Fatal(err)
	}
	pub := NewPublisher(data)
	if pub.Dataset() != data {
		t.Error("Dataset accessor wrong")
	}
	noisy, truth, loss, _, err := pub.ReleaseSingleCell(nil, Request{
		Attrs:     []string{AttrPlace, AttrIndustry, AttrOwnership},
		Mechanism: MechSmoothGamma, Alpha: 0.1, Eps: 2,
	}, []string{"place-0003", "44-Retail", "Private"}, NewStream(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if loss.Eps != 2 || loss.Def != StrongEREE {
		t.Errorf("single-cell loss = %v", loss)
	}
	if truth > 0 && noisy == float64(truth) {
		t.Error("released exactly")
	}
}

func TestPublicBatchAndCache(t *testing.T) {
	data, err := Generate(TestDataConfig(), 44)
	if err != nil {
		t.Fatal(err)
	}
	pub := NewPublisher(data)
	reqs := []Request{
		{Attrs: WorkplaceAttrs(), Mechanism: MechSmoothGamma, Alpha: 0.1, Eps: 2},
		{Attrs: WorkplaceAttrs(), Mechanism: MechLogLaplace, Alpha: 0.1, Eps: 4},
		{Attrs: WorkplaceAttrs(), Mechanism: MechSmoothLaplace, Alpha: 0.1, Eps: 2, Delta: 0.05},
	}
	rels, err := pub.ReleaseBatch(nil, reqs, NewStream(9), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != len(reqs) {
		t.Fatalf("batch returned %d releases, want %d", len(rels), len(reqs))
	}
	var stats CacheStats = pub.MarginalCacheStats()
	if stats.Misses != 1 {
		t.Errorf("three releases of one marginal cost %d scans, want 1", stats.Misses)
	}
	// The three releases share one truth but carry independent noise.
	if rels[0].Truth != rels[1].Truth || rels[1].Truth != rels[2].Truth {
		t.Error("batch releases do not share the cached truth")
	}

	// Bulk marginal computation is positionally aligned and agrees with
	// the single-query path.
	q1, err := NewQuery(data, AttrPlace, AttrIndustry)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := NewQuery(data, AttrSex)
	if err != nil {
		t.Fatal(err)
	}
	ms := ComputeMarginals(data, []*Query{q1, q2})
	if len(ms) != 2 {
		t.Fatalf("ComputeMarginals returned %d results", len(ms))
	}
	if ms[0].Total() != ComputeMarginal(data, q1).Total() || ms[1].Total() != int64(data.NumJobs()) {
		t.Error("bulk marginals disagree with single-query computation")
	}
}

// TestPublicVersionedDatasetFlow drives the versioning surface the way
// a downstream user would: generate a snapshot, release, absorb two
// quarterly deltas (one via ApplyDelta, one via Publisher.Advance), and
// check epoch visibility end to end — releases, cache statistics and
// the accountant's spend-by-epoch ledger.
func TestPublicVersionedDatasetFlow(t *testing.T) {
	data, err := Generate(TestDataConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}

	// Dataset-level: ApplyDelta produces a fresh epoch, sharing schema.
	dl, err := GenerateDelta(data, DefaultDeltaConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	next, err := ApplyDelta(data, dl)
	if err != nil {
		t.Fatal(err)
	}
	if next.Epoch != 1 || data.Epoch != 0 {
		t.Fatalf("epochs = (%d, %d), want (1, 0)", next.Epoch, data.Epoch)
	}

	// Publisher-level: serve, advance, serve again.
	acct, err := NewAccountant(StrongEREE, 0.1, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	pub := NewPublisher(data)
	req := Request{Attrs: WorkplaceAttrs(), Mechanism: MechSmoothGamma, Alpha: 0.1, Eps: 2}
	rel0, err := pub.ReleaseMarginal(acct, req, NewStream(7), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rel0.Epoch != 0 {
		t.Errorf("pre-advance release epoch = %d", rel0.Epoch)
	}
	// The publisher moves no accountant: advance the ledger alongside,
	// as a serving layer does for every tenant it charges.
	if err := pub.Advance(dl); err != nil {
		t.Fatal(err)
	}
	acct.AdvanceEpoch()
	if pub.Epoch() != 1 {
		t.Fatalf("Epoch = %d after one advance", pub.Epoch())
	}
	rel1, err := pub.ReleaseMarginal(acct, req, NewStream(7), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rel1.Epoch != 1 {
		t.Errorf("post-advance release epoch = %d", rel1.Epoch)
	}
	// The publisher's epoch-1 truth equals the independently applied
	// delta's snapshot.
	if got, want := rel1.Truth.Total(), int64(next.NumJobs()); got != want {
		t.Errorf("epoch-1 truth total = %d, want %d", got, want)
	}
	hist := pub.CacheStatsByEpoch()
	if len(hist) != 2 || hist[0].Epoch != 0 || hist[1].Epoch != 1 {
		t.Fatalf("CacheStatsByEpoch = %+v, want epochs 0 and 1", hist)
	}
	ledger := acct.SpendByEpoch()
	if len(ledger) != 2 || ledger[0].Releases != 1 || ledger[1].Releases != 1 {
		t.Fatalf("SpendByEpoch = %+v, want one release per epoch", ledger)
	}
	if spent := acct.Spent(); spent.Eps != 4 {
		t.Errorf("spent eps = %g, want 4 (sequential composition across epochs)", spent.Eps)
	}
}
