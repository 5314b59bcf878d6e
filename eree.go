// Package eree is the public API of this repository: a Go implementation
// of "Utility Cost of Formal Privacy for Releasing National
// Employer-Employee Statistics" (Haney, Machanavajjhala, Abowd, Graham,
// Kutzbach, Vilhuber; SIGMOD 2017).
//
// The library releases tabular summaries (marginal count queries) of
// linked employer-employee data under the paper's provable privacy
// definitions:
//
//   - (α,ε)-ER-EE privacy (strong α-neighbors, Definition 7.2), via the
//     Log-Laplace (Algorithm 1) and Smooth Gamma (Algorithm 2) mechanisms;
//   - weak (α,ε)-ER-EE privacy (Definition 7.4), which the same mechanisms
//     satisfy for queries involving worker attributes;
//   - approximate (α,ε,δ)-ER-EE privacy (Definition 9.1), via the Smooth
//     Laplace mechanism (Algorithm 3);
//
// together with the comparison baselines the paper evaluates: the current
// statistical-disclosure-limitation scheme (input noise infusion),
// edge-differential privacy, and node-differential privacy via degree
// truncation.
//
// # Quick start
//
//	data, err := eree.Generate(eree.TestDataConfig(), 42)
//	if err != nil { ... }
//	pub := eree.NewPublisher(data)
//	rel, err := pub.ReleaseMarginal(nil, eree.Request{
//		Attrs:     []string{eree.AttrPlace, eree.AttrIndustry, eree.AttrOwnership},
//		Mechanism: eree.MechSmoothGamma,
//		Alpha:     0.1,
//		Eps:       2,
//	}, eree.NewStream(7), nil)
//
// rel.Noisy then holds one provably private count per cell of the
// place × industry × ownership marginal, and rel.Loss records the privacy
// loss of the whole release (including the d·ε surcharge when worker
// attributes make the release fall under weak ER-EE privacy). The first
// argument is the Accountant to charge (nil releases unaccounted) and
// the last a SpendTag for its journal (nil charges untagged).
//
// The real LODES inputs are confidential; Generate produces a synthetic
// snapshot reproducing the structural properties the paper's evaluation
// depends on. See DESIGN.md for the substitution rationale and
// EXPERIMENTS.md for the regenerated tables and figures.
package eree

import (
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/lodes"
	"repro/internal/otm"
	"repro/internal/privacy"
	"repro/internal/qwi"
	"repro/internal/sdl"
	"repro/internal/suppress"
	"repro/internal/table"
)

// Stream is a deterministic splittable random stream. Every randomized
// operation takes one explicitly, so releases and experiments are exactly
// reproducible.
type Stream = dist.Stream

// NewStream returns a stream derived from an int64 seed.
func NewStream(seed int64) *Stream { return dist.NewStreamFromSeed(seed) }

// Dataset is a LODES-style snapshot: the WorkerFull relation (one record
// per job), the establishment frame and place metadata.
type Dataset = lodes.Dataset

// DataConfig parameterizes the synthetic data generator.
type DataConfig = lodes.Config

// DefaultDataConfig returns the experiment-scale generator configuration
// (~20k establishments, ~0.4M jobs).
func DefaultDataConfig() DataConfig { return lodes.DefaultConfig() }

// TestDataConfig returns a small configuration for fast experimentation
// (~2k establishments, ~40k jobs).
func TestDataConfig() DataConfig { return lodes.TestConfig() }

// NationalDataConfig returns the national-scale generator configuration
// (~20k places, ~7M establishments, ~130M jobs in expectation — the
// order of the real national LODES frame). A job relation this size
// should not be materialized in memory; stream it to disk with
// GenerateCSV instead of calling Generate.
func NationalDataConfig() DataConfig { return lodes.NationalConfig() }

// Generate produces a synthetic LODES snapshot. The same configuration
// and seed always produce the same dataset.
func Generate(cfg DataConfig, seed int64) (*Dataset, error) {
	return lodes.Generate(cfg, dist.NewStreamFromSeed(seed))
}

// GenerateCSV generates the snapshot for cfg and streams it to dir as
// CSV without ever materializing the full job relation: job rows are
// drawn in chunks of chunkRows (0 selects the default chunk size) and
// written as they are produced, so peak memory is the establishment
// frame plus one chunk regardless of dataset scale. The output is
// byte-identical to Generate followed by Dataset.WriteCSV with the same
// configuration and seed. Returns the counts written.
func GenerateCSV(cfg DataConfig, seed int64, dir string, chunkRows int) (places, establishments, jobs int, err error) {
	if chunkRows <= 0 {
		chunkRows = lodes.DefaultChunkRows
	}
	s := dist.NewStreamFromSeed(seed)
	f, err := lodes.GenerateFrame(cfg, s)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := f.WriteCSVStream(dir, s, chunkRows); err != nil {
		return 0, 0, 0, err
	}
	return len(f.Places), len(f.Establishments), f.TotalJobs, nil
}

// Versioned datasets: a snapshot is one epoch of a longitudinally
// updatable object. A Delta is one quarter of change — establishment
// Births and Deaths, per-establishment Hires and Separations (each new
// job a JobRecord) — applied with ApplyDelta (a new snapshot; the base
// is untouched) or absorbed by a serving Publisher with Advance.
type (
	Delta       = lodes.Delta
	DeltaConfig = lodes.DeltaConfig
	Birth       = lodes.Birth
	Hire        = lodes.Hire
	Separation  = lodes.Separation
	JobRecord   = lodes.JobRecord
)

// DefaultDeltaConfig returns the quarterly churn configuration (~2%
// establishment births and deaths, ±10%-scale employment shocks).
func DefaultDeltaConfig() DeltaConfig { return lodes.DefaultDeltaConfig() }

// GenerateDelta draws one deterministic quarter of churn for the
// snapshot. The same snapshot, configuration and seed always produce
// the same delta.
func GenerateDelta(d *Dataset, cfg DeltaConfig, seed int64) (*Delta, error) {
	return lodes.GenerateDelta(d, cfg, dist.NewStreamFromSeed(seed))
}

// ApplyDelta absorbs a quarterly delta into a new epoch snapshot
// (Epoch+1, shared schema and place metadata); the base dataset is not
// modified. Publishers absorb deltas with Publisher.Advance instead,
// which also maintains the columnar index incrementally and selectively
// invalidates the marginal cache.
func ApplyDelta(d *Dataset, delta *Delta) (*Dataset, error) {
	return d.ApplyDelta(delta)
}

// LoadCSV loads a dataset previously written with Dataset.WriteCSV.
func LoadCSV(dir string) (*Dataset, error) { return lodes.ReadCSV(dir) }

// WriteDeltaCSV writes a quarterly delta to dir as plain-text CSV
// (delta_deaths.csv, delta_separations.csv, delta_hires.csv,
// delta_births.csv, delta_birth_jobs.csv), with attribute values spelled
// by name under the base dataset's schema. Row order is part of the
// delta's identity — ApplyDelta assigns birth IDs by position — and is
// preserved exactly by LoadDeltaCSV.
func WriteDeltaCSV(base *Dataset, delta *Delta, dir string) error {
	return lodes.WriteDeltaCSV(dir, base.Schema(), delta)
}

// LoadDeltaCSV loads a delta previously written with WriteDeltaCSV.
// Applying the re-read delta to the same base snapshot yields a
// bit-identical successor.
func LoadDeltaCSV(base *Dataset, dir string) (*Delta, error) {
	return lodes.ReadDeltaCSV(dir, base.Schema())
}

// Attribute names of the WorkerFull relation. Place, industry and
// ownership are establishment (public) attributes; the rest are worker
// (private) attributes.
const (
	AttrPlace     = lodes.AttrPlace
	AttrIndustry  = lodes.AttrIndustry
	AttrOwnership = lodes.AttrOwnership
	AttrSex       = lodes.AttrSex
	AttrAge       = lodes.AttrAge
	AttrRace      = lodes.AttrRace
	AttrEthnicity = lodes.AttrEthnicity
	AttrEducation = lodes.AttrEducation
)

// WorkplaceAttrs lists the establishment-side attributes (the paper's V_W).
func WorkplaceAttrs() []string { return lodes.WorkplaceAttrs() }

// WorkerAttrs lists the worker-side attributes (the paper's V_I).
func WorkerAttrs() []string { return lodes.WorkerAttrs() }

// Publisher answers marginal release requests over one versioned
// dataset. The truth for each marginal is computed at most once per
// epoch — via an entity-sorted columnar index over the dataset, with
// concurrent first requests singleflighted onto one scan — and served
// from a sharded copy-on-write cache whose hit path takes no lock, so
// repeated releases of the same query (different mechanisms, parameters
// or trials) pay only for noise and concurrent serving throughput
// scales with GOMAXPROCS. Each release kind has one entry point, which
// takes the Accountant to charge (nil releases unaccounted — one
// publisher can front many tenants, each with their own Accountant) and
// a SpendTag for the Accountant's journal (nil charges untagged). Beyond
// ReleaseMarginal and ReleaseSingleCell, a Publisher offers:
//
//   - ReleaseBatch: answer many requests at once — missing marginals are
//     computed in a single pass over the data, noise is drawn in
//     parallel, and the Accountant is charged atomically (an
//     over-budget batch spends nothing);
//   - Advance: absorb a quarterly Delta without stalling serving. The
//     successor snapshot is built aside (the columnar index maintained
//     incrementally per touched establishment group, cached marginals
//     the delta provably left unchanged carried over, the rest
//     selectively invalidated) and installed atomically; releases in
//     flight stay pinned to the snapshot they started on, and
//     Release.Epoch (and Publisher.Epoch) report which epoch served
//     them. Advance moves no Accountant: call Accountant.AdvanceEpoch
//     on each one you charge, so its ledger (Accountant.SpendByEpoch)
//     attributes later charges to the new epoch — privacy budget
//     composes sequentially across epochs, an update never refreshes it;
//   - PrefetchMarginals: warm the cache for a set of queries with one
//     table scan;
//   - MarginalCacheStats and CacheStatsByEpoch: observe the cache, per
//     epoch.
//
// The cache holds one truth per attribute set, in canonical (schema)
// attribute order. Release.Truth (and the result of Publisher.Marginal)
// is that shared truth when the request names its attributes in
// canonical order, and a copy remapped for that one request otherwise;
// either way it must be treated as read-only.
type Publisher = core.Publisher

// NewPublisher creates a publisher for the dataset.
func NewPublisher(d *Dataset) *Publisher { return core.NewPublisher(d) }

// Request describes one release; Release is its result.
type (
	Request = core.Request
	Release = core.Release
)

// CacheStats reports one epoch's marginal-cache effectiveness: a hit is
// a release that skipped the full-table scan, a patch a cached truth
// carried across an Advance by applying the delta in place, an eviction
// a cached truth dropped at an Advance. Patches and evictions count
// canonical truths, one per attribute set. Counters are per-epoch; see
// Publisher.CacheStatsByEpoch for the full history.
type CacheStats = core.CacheStats

// EpochSpend is one epoch's entry in an Accountant's spend-by-epoch
// ledger.
type EpochSpend = privacy.EpochSpend

// MechanismKind selects a release mechanism.
type MechanismKind = core.MechanismKind

// The available mechanisms.
const (
	MechLogLaplace       = core.MechLogLaplace
	MechSmoothGamma      = core.MechSmoothGamma
	MechSmoothLaplace    = core.MechSmoothLaplace
	MechEdgeLaplace      = core.MechEdgeLaplace
	MechTruncatedLaplace = core.MechTruncatedLaplace
)

// ParseMechanismKind resolves a mechanism name ("smooth-gamma", ...).
func ParseMechanismKind(name string) (MechanismKind, error) {
	return core.ParseMechanismKind(name)
}

// Loss is a privacy-loss triple (α, ε, δ) under a named definition.
type Loss = privacy.Loss

// Definition identifies a privacy definition; Requirement one of the
// statutory requirements; Satisfaction a Table 1 entry.
type (
	Definition   = privacy.Definition
	Requirement  = privacy.Requirement
	Satisfaction = privacy.Satisfaction
)

// The privacy definitions of Table 1.
const (
	InputNoiseInfusion = privacy.InputNoiseInfusion
	EdgeDP             = privacy.EdgeDP
	NodeDP             = privacy.NodeDP
	StrongEREE         = privacy.StrongEREE
	WeakEREE           = privacy.WeakEREE
)

// Satisfies returns Table 1's entry for (definition, requirement).
func Satisfies(d Definition, r Requirement) Satisfaction { return privacy.Satisfies(d, r) }

// Accountant tracks cumulative privacy loss under sequential composition.
type Accountant = privacy.Accountant

// SpendTag is a charge's durable identity in an Accountant's
// write-ahead journal: the request's sequence number and body digest,
// plus the epoch the release pinned (the Publisher stamps it).
type SpendTag = privacy.SpendTag

// NewAccountant creates an accountant for the given definition, α, and
// total (ε, δ) budget.
func NewAccountant(def Definition, alpha, budgetEps, budgetDelta float64) (*Accountant, error) {
	return privacy.NewAccountant(def, alpha, budgetEps, budgetDelta)
}

// Query is a compiled marginal query (Definition 2.1); Marginal is its
// evaluation over a dataset, including the per-cell largest
// single-establishment contribution x_v the mechanisms calibrate to.
type (
	Query    = table.Query
	Marginal = table.Marginal
)

// NewQuery compiles a marginal query over the dataset's schema.
func NewQuery(d *Dataset, attrs ...string) (*Query, error) {
	return table.NewQuery(d.Schema(), attrs...)
}

// ComputeMarginal evaluates the query over the dataset's WorkerFull
// relation, returning the confidential true counts.
func ComputeMarginal(d *Dataset, q *Query) *Marginal {
	return table.Compute(d.WorkerFull, q)
}

// ComputeMarginals evaluates many queries in one sharded pass over the
// dataset, positionally aligned with the input — the bulk path for
// workloads that ask several marginals of the same snapshot.
func ComputeMarginals(d *Dataset, qs []*Query) []*Marginal {
	return table.ComputeAll(d.WorkerFull, qs)
}

// OnTheMap residence-side protection (the paper's footnote 2 /
// reference [37]): synthetic origin-destination data from a
// Dirichlet-multinomial synthesizer with a provable ε bound.
type (
	ODMatrix      = otm.ODMatrix
	ODSynthesizer = otm.Synthesizer
)

// SyntheticOD derives a gravity-model origin-destination matrix for a
// snapshot (real residence data are confidential).
func SyntheticOD(d *Dataset, s *Stream) *ODMatrix { return otm.SyntheticOD(d, s) }

// NewODSynthesizer validates that the prior meets the ε requirement
// (α ≥ m/(e^ε − 1)) and returns the synthesizer.
func NewODSynthesizer(eps float64, syntheticSize int, prior float64) (*ODSynthesizer, error) {
	return otm.NewSynthesizer(eps, syntheticSize, prior)
}

// ODMinPrior returns the smallest per-block prior for which releasing m
// synthetic residences per workplace satisfies pure ε-DP.
func ODMinPrior(eps float64, m int) float64 { return otm.MinPrior(eps, m) }

// QWI-style longitudinal job flows (the establishment-product family the
// paper's conclusion targets): two-quarter panels, per-cell
// B/E/JC/JD flow statistics, and privacy-budget-saving releases that
// derive E = B + JC − JD by post-processing.
type (
	Panel       = qwi.Panel
	PanelConfig = qwi.PanelConfig
	Flows       = qwi.Flows
	FlowRelease = qwi.FlowRelease
	FlowKind    = qwi.FlowKind
)

// The four QWI flows.
const (
	FlowBeginning   = qwi.FlowBeginning
	FlowEnd         = qwi.FlowEnd
	FlowCreation    = qwi.FlowCreation
	FlowDestruction = qwi.FlowDestruction
)

// DefaultPanelConfig returns quarter-over-quarter dynamics with ~2%
// establishment deaths and ±10%-scale employment shocks.
func DefaultPanelConfig() PanelConfig { return qwi.DefaultPanelConfig() }

// GeneratePanel evolves a snapshot one quarter forward.
func GeneratePanel(base *Dataset, cfg PanelConfig, s *Stream) (*Panel, error) {
	return qwi.GeneratePanel(base, cfg, s)
}

// ComputeFlows evaluates the four QWI flows over a workplace marginal.
func ComputeFlows(p *Panel, q *Query) (*Flows, error) { return qwi.ComputeFlows(p, q) }

// ReleaseFlows releases a flow set under the request's mechanism (B, JC
// and JD are released; E is derived from the identity for free),
// returning the total privacy loss of the three sequential releases.
func ReleaseFlows(f *Flows, req Request, s *Stream) (*FlowRelease, Loss, error) {
	return core.ReleaseFlows(f, req, s)
}

// Cell suppression (the historical SDL of the paper's Appendix A):
// SuppressionTable, suppression rules, patterns and the interval auditor.
type (
	SuppressionTable   = suppress.Table
	SuppressionPattern = suppress.Pattern
	SuppressionRule    = suppress.Rule
	ThresholdRule      = suppress.ThresholdRule
	PPercentRule       = suppress.PPercentRule
	NKRule             = suppress.NKRule
	AuditInterval      = suppress.Interval
)

// SuppressionFromMarginal converts a two-attribute marginal into a
// suppression table carrying each cell's contributor statistics.
func SuppressionFromMarginal(m *Marginal) (*SuppressionTable, error) {
	return suppress.FromMarginal(m)
}

// PrimarySuppression applies the sensitivity rules; Complementary
// extends the pattern so no suppressed cell is recoverable by
// subtraction from published totals; AuditSuppression computes what an
// attacker can still infer about every suppressed cell.
func PrimarySuppression(t *SuppressionTable, rules ...SuppressionRule) *SuppressionPattern {
	return suppress.Primary(t, rules...)
}

// ComplementarySuppression extends a primary pattern per Fellegi's
// subtraction-attack conditions.
func ComplementarySuppression(t *SuppressionTable, primary *SuppressionPattern) *SuppressionPattern {
	return suppress.Complementary(t, primary)
}

// AuditSuppression bounds every suppressed cell from the published
// values by interval constraint propagation.
func AuditSuppression(t *SuppressionTable, p *SuppressionPattern) map[[2]int]AuditInterval {
	return suppress.Audit(t, p)
}

// SDLSystem is the current-protection baseline: input noise infusion.
type SDLSystem = sdl.System

// SDLConfig holds the noise-infusion parameters.
type SDLConfig = sdl.Config

// DefaultSDLConfig returns the documented synthetic stand-ins for the
// confidential production parameters (s=0.1, t=0.25, small-cell limit 2.5).
func DefaultSDLConfig() SDLConfig { return sdl.DefaultConfig() }

// NewSDLSystem instantiates the SDL baseline for a dataset, drawing one
// time-invariant distortion factor per establishment.
func NewSDLSystem(cfg SDLConfig, d *Dataset, s *Stream) (*SDLSystem, error) {
	return sdl.NewSystem(cfg, d.NumEstablishments(), s)
}

// ReleaseRequest, PlannedRelease and Plan support allocating a total
// privacy budget across multiple releases under sequential composition;
// see PlanReleases.
type (
	ReleaseRequest = privacy.ReleaseRequest
	PlannedRelease = privacy.PlannedRelease
	Plan           = privacy.Plan
)

// PlanReleases allocates a total (ε, δ) budget across the requested
// releases proportionally to their weights, translating each share into
// the per-cell ε its mechanism must run at (including the d·ε
// surcharge for worker-attribute marginals under weak ER-EE privacy).
func PlanReleases(def Definition, alpha, budgetEps, budgetDelta float64, requests []ReleaseRequest) (*Plan, error) {
	return privacy.PlanReleases(def, alpha, budgetEps, budgetDelta, requests)
}

// SDLShapeDisclosure, SDLFactorReconstruction and
// SDLZeroCountReIdentification are the Section 5.2 inference attacks
// against input noise infusion, exposed for the attack demonstration
// (examples/attack). See the sdl package documentation for each attack's
// premise.
var (
	SDLShapeDisclosure           = sdl.ShapeDisclosure
	SDLFactorReconstruction      = sdl.FactorReconstruction
	SDLZeroCountReIdentification = sdl.ZeroCountReIdentification
	SDLTotalSizeReconstruction   = sdl.TotalSizeFromReconstruction
)

// Harness runs the paper's Section 10 experiments over one dataset.
type Harness = eval.Harness

// NewHarness builds an experiment harness with the given trial count.
func NewHarness(d *Dataset, s *Stream, trials int) (*Harness, error) {
	return eval.NewHarness(d, s, trials)
}

// FigureResult is regenerated figure data; GridSpec configures a custom
// experiment grid; Metric selects L1-ratio or Spearman comparisons.
type (
	FigureResult   = eval.FigureResult
	GridSpec       = eval.GridSpec
	SliceSpec      = eval.SliceSpec
	Metric         = eval.Metric
	Point          = eval.Point
	TruncatedPoint = eval.TruncatedPoint
)

// The comparison metrics.
const (
	MetricL1Ratio  = eval.MetricL1Ratio
	MetricSpearman = eval.MetricSpearman
)

// Spearman returns the tie-aware Spearman rank correlation of two vectors.
func Spearman(a, b []float64) float64 { return eval.Spearman(a, b) }

// Table1Text and Table2Text render the paper's tables.
func Table1Text() string { return eval.Table1Text() }

// Table2Text renders Table 2 (minimum ε given α and δ).
func Table2Text() string { return eval.Table2Text() }
