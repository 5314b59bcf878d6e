package eree

// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per artifact, as indexed in DESIGN.md), plus
// ablation and micro-benchmarks for the mechanisms and substrates.
//
// Figure benchmarks run a reduced-trials version of the exact grid the
// paper sweeps; cmd/experiments prints the full 20-trial series.

import (
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/lodes"
	"repro/internal/mech"
	"repro/internal/otm"
	"repro/internal/privacy"
	"repro/internal/qwi"
	"repro/internal/sdl"
	"repro/internal/smooth"
	"repro/internal/suppress"
	"repro/internal/table"
)

var (
	benchOnce sync.Once
	benchData *lodes.Dataset
)

func benchDataset(b *testing.B) *lodes.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		benchData = lodes.MustGenerate(lodes.TestConfig(), dist.NewStreamFromSeed(1))
	})
	return benchData
}

func benchHarness(b *testing.B, trials int) *eval.Harness {
	b.Helper()
	h, err := eval.NewHarness(benchDataset(b), dist.NewStreamFromSeed(2), trials)
	if err != nil {
		b.Fatal(err)
	}
	return h
}

// BenchmarkTable1Matrix regenerates Table 1 (privacy definitions vs
// statutory requirements).
func BenchmarkTable1Matrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if eval.Table1Text() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2MinEpsilon regenerates Table 2 (minimum ε given α, δ).
func BenchmarkTable2MinEpsilon(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := privacy.Table2()
		if len(rows) != 6 {
			b.Fatal("wrong row count")
		}
	}
}

func benchFigure(b *testing.B, run func(h *eval.Harness) (*eval.FigureResult, error)) {
	h := benchHarness(b, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := run(h)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkFigure1Workload1L1 regenerates Figure 1: L1 error ratio of the
// place × industry × ownership marginal vs SDL.
func BenchmarkFigure1Workload1L1(b *testing.B) {
	benchFigure(b, (*eval.Harness).Figure1)
}

// BenchmarkFigure2Ranking1 regenerates Figure 2: Spearman correlation of
// Ranking 1 vs the SDL ranking.
func BenchmarkFigure2Ranking1(b *testing.B) {
	benchFigure(b, (*eval.Harness).Figure2)
}

// BenchmarkFigure3Workload2L1 regenerates Figure 3: L1 error ratio of
// single (sex × education) queries on the workplace marginal.
func BenchmarkFigure3Workload2L1(b *testing.B) {
	benchFigure(b, (*eval.Harness).Figure3)
}

// BenchmarkFigure4Workload3L1 regenerates Figure 4: L1 error ratio of the
// full worker × workplace marginal under the d·ε surcharge.
func BenchmarkFigure4Workload3L1(b *testing.B) {
	benchFigure(b, (*eval.Harness).Figure4)
}

// BenchmarkFigure5Ranking2 regenerates Figure 5: Spearman correlation of
// the females-with-college-degrees ranking.
func BenchmarkFigure5Ranking2(b *testing.B) {
	benchFigure(b, (*eval.Harness).Figure5)
}

// BenchmarkFinding6TruncatedLaplace regenerates the node-DP baseline
// sweep over θ ∈ {2,20,50,100,200,500}.
func BenchmarkFinding6TruncatedLaplace(b *testing.B) {
	h := benchHarness(b, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := h.Finding6()
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

// --- Micro-benchmarks: mechanisms ---

func benchCellMechanism(b *testing.B, m mech.CellMechanism) {
	s := dist.NewStreamFromSeed(3)
	in := mech.CellInput{Count: 1234, MaxContribution: 321}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.ReleaseCell(in, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReleaseLogLaplace measures Algorithm 1's per-cell cost.
func BenchmarkReleaseLogLaplace(b *testing.B) {
	m, err := mech.NewLogLaplace(0.1, 2)
	if err != nil {
		b.Fatal(err)
	}
	benchCellMechanism(b, m)
}

// BenchmarkReleaseSmoothGamma measures Algorithm 2's per-cell cost
// (dominated by generalized-Cauchy inverse-CDF sampling).
func BenchmarkReleaseSmoothGamma(b *testing.B) {
	m, err := mech.NewSmoothGamma(0.1, 2)
	if err != nil {
		b.Fatal(err)
	}
	benchCellMechanism(b, m)
}

// BenchmarkReleaseSmoothLaplace measures Algorithm 3's per-cell cost.
func BenchmarkReleaseSmoothLaplace(b *testing.B) {
	m, err := mech.NewSmoothLaplace(0.1, 2, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	benchCellMechanism(b, m)
}

// BenchmarkReleaseEdgeLaplace measures the edge-DP baseline's per-cell cost.
func BenchmarkReleaseEdgeLaplace(b *testing.B) {
	m, err := mech.NewEdgeLaplace(2)
	if err != nil {
		b.Fatal(err)
	}
	benchCellMechanism(b, m)
}

// --- Micro-benchmarks: substrates ---

// BenchmarkGenCauchySample measures the inverse-CDF sampler behind
// Smooth Gamma.
func BenchmarkGenCauchySample(b *testing.B) {
	g := dist.GenCauchy{}
	s := dist.NewStreamFromSeed(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Sample(s)
	}
}

// BenchmarkLaplaceSample measures the Laplace sampler. BENCH.json's gate
// bounds BenchmarkGenCauchySample over it, so a slower or faster host
// cancels out of the generalized-Cauchy sampler's time.
func BenchmarkLaplaceSample(b *testing.B) {
	l := dist.NewLaplace(1)
	s := dist.NewStreamFromSeed(5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Sample(s)
	}
}

// BenchmarkMarginalComputeUnpacked measures the indexed group-by engine
// — the scatter kernel — on the Workload 1 marginal (with per-cell x_v
// tracking). The index is built before the timer, so this is the
// steady-state per-query cost. The name and the non-canonical attribute
// order date from the retired bit-packed kernel, which only canonical
// orders could reach; both stay so the recorded gate keeps measuring
// the same scan.
func BenchmarkMarginalComputeUnpacked(b *testing.B) {
	d := benchDataset(b)
	q := table.MustNewQuery(d.Schema(), lodes.AttrOwnership, lodes.AttrIndustry, lodes.AttrPlace)
	d.WorkerFull.Index()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := table.Compute(d.WorkerFull, q)
		if m.Total() == 0 {
			b.Fatal("empty marginal")
		}
	}
}

// BenchmarkMarginalComputeReference measures the seed engine — the scalar
// per-(cell, entity) hash-map group-by — on the same marginal: the
// counterfactual of BENCH.json's gated ratio
// BenchmarkMarginalComputeUnpacked / BenchmarkMarginalComputeReference.
func BenchmarkMarginalComputeReference(b *testing.B) {
	d := benchDataset(b)
	q := table.MustNewQuery(d.Schema(), lodes.AttrPlace, lodes.AttrIndustry, lodes.AttrOwnership)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := table.ComputeReference(d.WorkerFull, q)
		if m.Total() == 0 {
			b.Fatal("empty marginal")
		}
	}
}

// BenchmarkBuildIndex measures the one-time cost of the entity-sorted
// index the engine amortizes across queries.
func BenchmarkBuildIndex(b *testing.B) {
	d := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if table.BuildIndex(d.WorkerFull).NumGroups() == 0 {
			b.Fatal("empty index")
		}
	}
}

// BenchmarkComputeAllWorkloads measures the multi-query single-scan path
// on the two distinct workload attribute sets of Section 10.
func BenchmarkComputeAllWorkloads(b *testing.B) {
	d := benchDataset(b)
	qs := []*table.Query{
		table.MustNewQuery(d.Schema(), eval.Workload1Attrs()...),
		table.MustNewQuery(d.Schema(), eval.Workload2Attrs()...),
	}
	d.WorkerFull.Index()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms := table.ComputeAll(d.WorkerFull, qs)
		if len(ms) != 2 || ms[0].Total() == 0 {
			b.Fatal("bad bulk result")
		}
	}
}

// BenchmarkSDLRelease measures the input-noise-infusion baseline on the
// Workload 1 marginal.
func BenchmarkSDLRelease(b *testing.B) {
	d := benchDataset(b)
	sys, err := sdl.NewSystem(sdl.DefaultConfig(), d.NumEstablishments(), dist.NewStreamFromSeed(6))
	if err != nil {
		b.Fatal(err)
	}
	q := table.MustNewQuery(d.Schema(), lodes.AttrPlace, lodes.AttrIndustry, lodes.AttrOwnership)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.ReleaseMarginal(d.WorkerFull, q, dist.NewStreamFromSeed(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateDataset measures the synthetic LODES generator at the
// small test scale (~2k establishments).
func BenchmarkGenerateDataset(b *testing.B) {
	cfg := lodes.TestConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := lodes.MustGenerate(cfg, dist.NewStreamFromSeed(int64(i)))
		if d.NumJobs() == 0 {
			b.Fatal("empty dataset")
		}
	}
}

// BenchmarkPublisherMarginal measures an end-to-end Smooth Laplace
// release of Workload 1 through the public pipeline. After the first
// iteration the truth is served from the marginal cache, so this is the
// cached steady-state cost — compare BenchmarkPublisherMarginalUncached,
// and BenchmarkMarginalComputeReference for what each release paid
// before the cache existed.
func BenchmarkPublisherMarginal(b *testing.B) {
	p := core.NewPublisher(benchDataset(b))
	req := core.Request{
		Attrs:     []string{lodes.AttrPlace, lodes.AttrIndustry, lodes.AttrOwnership},
		Mechanism: core.MechSmoothLaplace,
		Alpha:     0.1, Eps: 2, Delta: 0.05,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.ReleaseMarginal(nil, req, dist.NewStreamFromSeed(int64(i)), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublisherMarginalUncached measures the same release on a
// cold cache: every iteration builds a fresh publisher, so it recomputes
// the truth via the indexed engine (the index is cached on the table and
// still reused). The true seed baseline is
// BenchmarkMarginalComputeReference plus noise.
func BenchmarkPublisherMarginalUncached(b *testing.B) {
	d := benchDataset(b)
	d.WorkerFull.Index()
	req := core.Request{
		Attrs:     []string{lodes.AttrPlace, lodes.AttrIndustry, lodes.AttrOwnership},
		Mechanism: core.MechSmoothLaplace,
		Alpha:     0.1, Eps: 2, Delta: 0.05,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.NewPublisher(d)
		if _, err := p.ReleaseMarginal(nil, req, dist.NewStreamFromSeed(int64(i)), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReleaseTruncated measures one truncated-laplace release of
// Workload 1 (θ = 100, ε = 1) through Publisher.ReleaseMarginal on
// default-scale data, with the attributes in schema order and in
// another order. The untruncated truth is cached after the first
// iteration; every iteration computes the truncated counts and draws
// the noise.
func BenchmarkReleaseTruncated(b *testing.B) {
	p := core.NewPublisher(lodes.MustGenerate(lodes.DefaultConfig(), dist.NewStreamFromSeed(1)))
	for _, bc := range []struct {
		name  string
		attrs []string
	}{
		{"canonical", eval.Workload1Attrs()},
		{"noncanonical", []string{lodes.AttrOwnership, lodes.AttrPlace, lodes.AttrIndustry}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			req := core.Request{Attrs: bc.attrs, Mechanism: core.MechTruncatedLaplace, Eps: 1, Theta: 100}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.ReleaseMarginal(nil, req, dist.NewStreamFromSeed(int64(i)), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPublisherMarginalConcurrent measures cached serving
// throughput under concurrency: b.RunParallel workers all releasing the
// same warm Workload 1 marginal. The truth comes off the sharded
// copy-on-write cache (one atomic load, no lock), so throughput scales
// with GOMAXPROCS instead of flatlining on a shared mutex; on a
// single-core host the number reads as the sequential cached cost plus
// scheduler overhead (see the environment note of BENCH.json's
// release_path trajectory entry).
func BenchmarkPublisherMarginalConcurrent(b *testing.B) {
	p := core.NewPublisher(benchDataset(b))
	req := core.Request{
		Attrs:     []string{lodes.AttrPlace, lodes.AttrIndustry, lodes.AttrOwnership},
		Mechanism: core.MechSmoothLaplace,
		Alpha:     0.1, Eps: 2, Delta: 0.05,
	}
	if _, err := p.ReleaseMarginal(nil, req, dist.NewStreamFromSeed(0), nil); err != nil {
		b.Fatal(err) // warm the cache: the benchmark is the serving steady state
	}
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := p.ReleaseMarginal(nil, req, dist.NewStreamFromSeed(seq.Add(1)), nil); err != nil {
				// b.Fatal is not legal off the benchmark goroutine.
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkPublisherSingleCellConcurrent measures the Workload 2
// serving shape (single queries) under concurrency — the pure
// cache-read regime where a shared mutex would dominate the
// microsecond-scale per-op work and flatline throughput.
func BenchmarkPublisherSingleCellConcurrent(b *testing.B) {
	p := core.NewPublisher(benchDataset(b))
	req := core.Request{
		Attrs:     []string{lodes.AttrPlace, lodes.AttrIndustry, lodes.AttrOwnership},
		Mechanism: core.MechSmoothGamma,
		Alpha:     0.1, Eps: 2,
	}
	m, err := p.Marginal(req.Attrs)
	if err != nil {
		b.Fatal(err)
	}
	var cellValues []string
	for cell := range m.Counts {
		if m.Counts[cell] > 0 {
			cellValues = m.Query.CellValues(cell)
			break
		}
	}
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, _, _, err := p.ReleaseSingleCell(nil, req, cellValues, dist.NewStreamFromSeed(seq.Add(1)), nil); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkReleaseBatchConcurrent measures concurrent batch serving:
// each RunParallel iteration is a full 6-request grid batch over the
// warm cache, the shape a figure-regeneration fleet or a multi-tenant
// deployment drives.
func BenchmarkReleaseBatchConcurrent(b *testing.B) {
	p := core.NewPublisher(benchDataset(b))
	attrs := []string{lodes.AttrPlace, lodes.AttrIndustry, lodes.AttrOwnership}
	var reqs []core.Request
	for _, eps := range []float64{1, 2} {
		reqs = append(reqs,
			core.Request{Attrs: attrs, Mechanism: core.MechLogLaplace, Alpha: 0.1, Eps: 2 * eps},
			core.Request{Attrs: attrs, Mechanism: core.MechSmoothGamma, Alpha: 0.1, Eps: eps},
			core.Request{Attrs: attrs, Mechanism: core.MechSmoothLaplace, Alpha: 0.1, Eps: eps, Delta: 0.05},
		)
	}
	if _, err := p.ReleaseBatch(nil, reqs, dist.NewStreamFromSeed(0), nil); err != nil {
		b.Fatal(err)
	}
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rels, err := p.ReleaseBatch(nil, reqs, dist.NewStreamFromSeed(seq.Add(1)), nil)
			if err != nil {
				b.Error(err)
				return
			}
			if len(rels) != len(reqs) {
				b.Error("short batch")
				return
			}
		}
	})
}

// BenchmarkReleaseBatch measures a 6-request batch (three mechanisms ×
// two parameter points) over one cached marginal — the paper-grid shape
// the batched engine is built for.
func BenchmarkReleaseBatch(b *testing.B) {
	p := core.NewPublisher(benchDataset(b))
	attrs := []string{lodes.AttrPlace, lodes.AttrIndustry, lodes.AttrOwnership}
	var reqs []core.Request
	for _, eps := range []float64{1, 2} {
		reqs = append(reqs,
			core.Request{Attrs: attrs, Mechanism: core.MechLogLaplace, Alpha: 0.1, Eps: 2 * eps},
			core.Request{Attrs: attrs, Mechanism: core.MechSmoothGamma, Alpha: 0.1, Eps: eps},
			core.Request{Attrs: attrs, Mechanism: core.MechSmoothLaplace, Alpha: 0.1, Eps: eps, Delta: 0.05},
		)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rels, err := p.ReleaseBatch(nil, reqs, dist.NewStreamFromSeed(int64(i)), nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(rels) != len(reqs) {
			b.Fatal("short batch")
		}
	}
}

// BenchmarkReleaseCellsSequential and BenchmarkReleaseCellsParallel
// compare the scalar and chunked-worker noise pipelines on a
// Workload-1-sized cell vector (bit-identical outputs; only wall-clock
// differs).
func benchReleaseCellsWith(b *testing.B, release func(mech.CellMechanism, []mech.CellInput, *dist.Stream) ([]float64, error)) {
	m, err := mech.NewSmoothGamma(0.1, 2)
	if err != nil {
		b.Fatal(err)
	}
	cells := make([]mech.CellInput, 2400)
	for i := range cells {
		cells[i] = mech.CellInput{Count: float64((i * 37) % 900), MaxContribution: int64(1 + i%400)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := release(m, cells, dist.NewStreamFromSeed(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReleaseCellsSequential(b *testing.B) {
	benchReleaseCellsWith(b, mech.ReleaseCellsSequential)
}

func BenchmarkReleaseCellsParallel(b *testing.B) {
	benchReleaseCellsWith(b, mech.ReleaseCells)
}

// --- Versioned-dataset benchmarks: quarterly deltas and epoch serving ---

// benchQuarters is the fixed chain length of the advance benchmarks:
// every op replays the same deterministic pregenerated chain, so ns/op
// does not drift with b.N and stays comparable across runs (the CI
// gate depends on that).
const benchQuarters = 8

var (
	benchDeltaOnce  sync.Once
	benchDeltaData  *lodes.Dataset
	benchDeltaChain []*lodes.Delta
)

// benchDeltaSetup generates the experiment-scale snapshot (~20k
// establishments, ~0.4M jobs) and a deterministic chain of
// benchQuarters default quarterly deltas against it, shared by the
// advance benchmarks.
func benchDeltaSetup(b *testing.B) (*lodes.Dataset, []*lodes.Delta) {
	b.Helper()
	benchDeltaOnce.Do(func() {
		benchDeltaData = lodes.MustGenerate(lodes.DefaultConfig(), dist.NewStreamFromSeed(1))
		cur := benchDeltaData
		for q := 0; q < benchQuarters; q++ {
			dl, err := lodes.GenerateDelta(cur, lodes.DefaultDeltaConfig(), dist.NewStreamFromSeed(int64(2+q)))
			if err != nil {
				panic(err)
			}
			benchDeltaChain = append(benchDeltaChain, dl)
			if cur, err = cur.ApplyDelta(dl); err != nil {
				panic(err)
			}
		}
	})
	return benchDeltaData, benchDeltaChain
}

func benchDeltaWorkloads() [][]string {
	return [][]string{eval.Workload1Attrs(), eval.Workload2Attrs()}
}

// BenchmarkAdvanceIncremental measures absorbing the pregenerated
// 8-quarter delta chain through the incremental maintenance path: per
// quarter, Publisher.Advance — ApplyDelta (span-wise snapshot
// construction), MergeIndex (O(groups) group-boundary merge, no
// counting sort, no column gather), short-circuit selective
// invalidation — followed by re-warming the two workload marginals.
// Compare BenchmarkAdvanceRebuild, which replays the identical chain
// and ends every quarter in the same warm state via a from-scratch
// index build, so the difference is exactly what incremental
// maintenance saves. The CI gate tracks its allocs/op (BENCH.json).
func BenchmarkAdvanceIncremental(b *testing.B) {
	d, chain := benchDeltaSetup(b)
	w := benchDeltaWorkloads()
	d.WorkerFull.Index()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.NewPublisher(d)
		if err := p.PrefetchMarginals(w); err != nil {
			b.Fatal(err)
		}
		for _, dl := range chain {
			if err := p.Advance(dl); err != nil {
				b.Fatal(err)
			}
			if err := p.PrefetchMarginals(w); err != nil {
				b.Fatal(err)
			}
		}
		if p.Epoch() != benchQuarters {
			b.Fatal("chain did not advance")
		}
	}
}

// BenchmarkAdvanceRebuild is the counterfactual: the identical chain
// absorbed by rebuilding everything per quarter — ApplyDelta, a full
// BuildIndex rescan of the successor (counting sort plus per-attribute
// column gathers on first query), a cold publisher, and the same
// two-marginal prefetch.
func BenchmarkAdvanceRebuild(b *testing.B) {
	d, chain := benchDeltaSetup(b)
	w := benchDeltaWorkloads()
	d.WorkerFull.Index()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := d
		p := core.NewPublisher(cur)
		if err := p.PrefetchMarginals(w); err != nil {
			b.Fatal(err)
		}
		for _, dl := range chain {
			var err error
			if cur, err = cur.ApplyDelta(dl); err != nil {
				b.Fatal(err)
			}
			cur.WorkerFull.AdoptIndex(table.BuildIndex(cur.WorkerFull))
			p = core.NewPublisher(cur)
			if err := p.PrefetchMarginals(w); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMergeIndexIncremental isolates the index-maintenance kernel:
// deriving the successor's entity-sorted index from the base layout
// plus the delta's touched set. Compare BenchmarkBuildIndex (the full
// counting-sort build at the same scale is the TestConfig variant;
// this one runs at experiment scale, so compare the ratio, not the
// absolute).
func BenchmarkMergeIndexIncremental(b *testing.B) {
	d, chain := benchDeltaSetup(b)
	dl := chain[0]
	next, err := d.ApplyDelta(dl)
	if err != nil {
		b.Fatal(err)
	}
	ids, rows := dl.Touched(d)
	base := d.WorkerFull.Index()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := table.MergeIndex(base, next.WorkerFull, ids, rows); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	benchPatchOnce    sync.Once
	benchPatchBaseIx  *table.Index
	benchPatchTables  []*table.Table
	benchPatchTouched [][]int32
	benchPatchRows    [][]int32
	benchPatchKept    [][]int32
	benchPatchQs      []*table.Query
	benchPatchViews   []*table.MarginalView
)

// benchPatchChain generates the cache-maintenance chain: the same base
// snapshot as benchDeltaSetup, advanced by benchQuarters deltas drawn
// from the BED-calibrated churn regime (lodes.CalibratedDeltaConfig —
// ~70% of survivors post no net employment change, so a quarter
// touches a minority of establishments, as real quarterly frames do).
// The ingest benchmarks above keep the harsher every-survivor-shocked
// DefaultDeltaConfig chain; correctness is regime-independent (the
// differential suites run both).
func benchPatchChain(b *testing.B) (*lodes.Dataset, []*lodes.Delta) {
	b.Helper()
	d, _ := benchDeltaSetup(b)
	chain := make([]*lodes.Delta, 0, benchQuarters)
	cur := d
	for q := 0; q < benchQuarters; q++ {
		dl, err := lodes.GenerateDelta(cur, lodes.CalibratedDeltaConfig(), dist.NewStreamFromSeed(int64(2+q)))
		if err != nil {
			b.Fatal(err)
		}
		chain = append(chain, dl)
		if cur, err = cur.ApplyDelta(dl); err != nil {
			b.Fatal(err)
		}
	}
	return d, chain
}

// benchWarmWorkingSet is the warm cache the maintenance benchmarks
// carry across the chain: a multi-tenant working set of eight
// marginals — every subset of the establishment attributes (the QWI
// publication axes) plus the paper's Workload 2 (which also covers
// Workload 3's attribute set) — the "affected marginals" whose
// per-quarter upkeep the eviction counterfactual pays a full table
// scan each for.
func benchWarmWorkingSet() [][]string {
	return [][]string{
		{lodes.AttrPlace},
		{lodes.AttrIndustry},
		{lodes.AttrOwnership},
		{lodes.AttrPlace, lodes.AttrIndustry},
		{lodes.AttrPlace, lodes.AttrOwnership},
		{lodes.AttrIndustry, lodes.AttrOwnership},
		eval.Workload1Attrs(),
		eval.Workload2Attrs(),
	}
}

// benchPatchSetup precomputes everything the maintenance benchmarks
// replay — successor tables, per-quarter touched/rows/kept vectors,
// queries, and one pristine maintained view per working-set marginal
// on the base index — so the timed region is exactly the per-quarter
// cache-maintenance step (no ApplyDelta, no publisher machinery).
func benchPatchSetup(b *testing.B) {
	b.Helper()
	d, chain := benchPatchChain(b)
	benchPatchOnce.Do(func() {
		cur := d
		benchPatchBaseIx = cur.WorkerFull.Index()
		for _, dl := range chain {
			ids, rows, kept := dl.TouchedKept(cur)
			next, err := cur.ApplyDelta(dl)
			if err != nil {
				panic(err)
			}
			benchPatchTables = append(benchPatchTables, next.WorkerFull)
			benchPatchTouched = append(benchPatchTouched, ids)
			benchPatchRows = append(benchPatchRows, rows)
			benchPatchKept = append(benchPatchKept, kept)
			cur = next
		}
		for _, attrs := range benchWarmWorkingSet() {
			q, err := table.NewQuery(d.Schema(), attrs...)
			if err != nil {
				panic(err)
			}
			v, err := table.NewMarginalView(benchPatchBaseIx, q)
			if err != nil {
				panic(err)
			}
			benchPatchQs = append(benchPatchQs, q)
			benchPatchViews = append(benchPatchViews, v)
		}
	})
}

// benchFreshChain rebuilds the chain's merged indexes from scratch.
// Both maintenance benchmarks call it per iteration, untimed, so every
// timed quarter runs against a merged index that — like a production
// advance's — has served no prior scans, so the per-index state the
// scan kernel builds lazily (pooled scratch, column materializations) is
// paid inside the timed work, as in a real advance, not once for all
// b.N iterations.
func benchFreshChain(b *testing.B) []*table.Index {
	b.Helper()
	ixs := make([]*table.Index, benchQuarters+1)
	ixs[0] = benchPatchBaseIx
	for q := 0; q < benchQuarters; q++ {
		ix, err := table.MergeIndex(ixs[q], benchPatchTables[q], benchPatchTouched[q], benchPatchRows[q])
		if err != nil {
			b.Fatal(err)
		}
		ixs[q+1] = ix
	}
	return ixs
}

// BenchmarkAdvancePatched measures the cache-maintenance step of the
// incremental path in isolation: carrying the warm working set across
// the calibrated 8-quarter chain by patching maintained views — one
// shared PatchFrame per quarter (table.NewPatchFrame), then
// MarginalView.ApplyFrame per marginal, O(changed rows) each, no
// rescan. Compare BenchmarkAdvanceEvictRescan, the pre-maintenance
// behavior on the identical chain and working set. Both end every
// quarter with the same bit-identical truths (the differential suites
// in internal/table/patch_test.go and internal/core/epoch_test.go
// prove it), so the ratio is exactly what patching saves. The CI gate
// tracks that ratio and this benchmark's allocs/op (BENCH.json).
func BenchmarkAdvancePatched(b *testing.B) {
	benchPatchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ixs := benchFreshChain(b)
		views := make([]*table.MarginalView, len(benchPatchViews))
		for j, v := range benchPatchViews {
			views[j] = v.Clone()
		}
		// Drain the GC debt the untimed chain rebuild ran up, so the
		// collector's mark work (a whole core's worth on a small machine)
		// doesn't land inside timed quarters at random. The rescan
		// counterfactual does the same at the same point.
		runtime.GC()
		b.StartTimer()
		for q := 0; q < benchQuarters; q++ {
			f, err := table.NewPatchFrame(ixs[q], ixs[q+1], benchPatchTouched[q], benchPatchKept[q])
			if err != nil {
				b.Fatal(err)
			}
			for _, v := range views {
				if _, _, err := v.ApplyFrame(f); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkAdvanceEvictRescan is the counterfactual: the same working
// set maintained across the same chain by eviction — every quarter,
// each cached marginal is recomputed with a full pass over the
// successor's entity-sorted index (what a cache miss pays after the
// old selective-invalidation path dropped the entry). The per-quarter
// cost is O(affected marginals × table rows) regardless of how little
// the delta changed. Indexes come fresh from benchFreshChain, exactly
// as the patched benchmark's do. BENCH.json's gate bounds the ratio of
// the two.
func BenchmarkAdvanceEvictRescan(b *testing.B) {
	benchPatchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ixs := benchFreshChain(b)
		runtime.GC() // symmetric with BenchmarkAdvancePatched
		b.StartTimer()
		for q := 0; q < benchQuarters; q++ {
			for _, qu := range benchPatchQs {
				if m := ixs[q+1].Compute(qu); len(m.Counts) == 0 {
					b.Fatal("empty marginal")
				}
			}
		}
	}
}

var (
	benchWideOnce  sync.Once
	benchWideQs    []*table.Query
	benchWideViews []*table.MarginalView
)

// benchWideSetup compiles advance-wide's working set — the 92
// canonical one- to three-attribute sets — and builds one pristine
// view of each on the calibrated chain's base index.
func benchWideSetup(b *testing.B) {
	b.Helper()
	benchPatchSetup(b)
	benchWideOnce.Do(func() {
		s := benchDeltaData.Schema()
		names := s.Names()
		var sets [][]string
		for i := range names {
			sets = append(sets, []string{names[i]})
			for j := i + 1; j < len(names); j++ {
				sets = append(sets, []string{names[i], names[j]})
				for k := j + 1; k < len(names); k++ {
					sets = append(sets, []string{names[i], names[j], names[k]})
				}
			}
		}
		for _, attrs := range sets {
			q, err := table.NewQuery(s, attrs...)
			if err != nil {
				panic(err)
			}
			v, err := table.NewMarginalView(benchPatchBaseIx, q)
			if err != nil {
				panic(err)
			}
			benchWideQs = append(benchWideQs, q)
			benchWideViews = append(benchWideViews, v)
		}
	})
}

// liveHeapMiB is the live heap after two collections (the first moves
// pooled scan scratch to sync.Pool's victim cache, the second frees it).
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// BenchmarkAdvanceWideWorkingSet measures view maintenance over
// advance-wide's working set: all 92 canonical one- to three-attribute
// sets, 85 of them over a worker attribute, where the gated 8-view set
// has one. build is 92 × NewMarginalView on the base index; apply is
// the calibrated 8-quarter chain — NewPatchFrame plus ApplyFrame per
// view — on clones of pristine views, over freshly merged indexes, as
// in BenchmarkAdvancePatched. Each reports view-MiB, the heap its views
// retain at the end, their truths included. Not gated: it exists to
// show the kernel's memory and its cost on the wide set.
func BenchmarkAdvanceWideWorkingSet(b *testing.B) {
	benchWideSetup(b)
	b.Run("build", func(b *testing.B) {
		before := liveHeapMiB()
		var views []*table.MarginalView
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			views = views[:0]
			for _, q := range benchWideQs {
				v, err := table.NewMarginalView(benchPatchBaseIx, q)
				if err != nil {
					b.Fatal(err)
				}
				views = append(views, v)
			}
		}
		b.StopTimer()
		b.ReportMetric(liveHeapMiB()-before, "view-MiB")
		runtime.KeepAlive(views)
	})
	b.Run("apply", func(b *testing.B) {
		var viewMiB float64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ixs := benchFreshChain(b)
			before := liveHeapMiB() // also drains the chain rebuild's GC debt
			views := make([]*table.MarginalView, len(benchWideViews))
			for j, v := range benchWideViews {
				views[j] = v.Clone()
			}
			b.StartTimer()
			for q := 0; q < benchQuarters; q++ {
				f, err := table.NewPatchFrame(ixs[q], ixs[q+1], benchPatchTouched[q], benchPatchKept[q])
				if err != nil {
					b.Fatal(err)
				}
				for _, v := range views {
					if _, _, err := v.ApplyFrame(f); err != nil {
						b.Fatal(err)
					}
				}
			}
			if i == b.N-1 {
				b.StopTimer()
				viewMiB = liveHeapMiB() - before
				runtime.KeepAlive(views)
			}
		}
		b.ReportMetric(viewMiB, "view-MiB")
	})
}

// BenchmarkReleaseDuringAdvance measures serving latency while the
// publisher continuously absorbs quarterly deltas in the background —
// the serve-during-update regime the epoch-snapshot design exists for.
// Releases that land just after an advance pay the evicted marginal's
// rescan; the benchmark reports how many advances completed so the mix
// is visible. (Background updates make per-op noise inherent; the
// number is not gated.)
func BenchmarkReleaseDuringAdvance(b *testing.B) {
	d, _ := benchDeltaSetup(b)
	p := core.NewPublisher(d)
	_ = d.WorkerFull.Index()
	req := core.Request{
		Attrs:     eval.Workload1Attrs(),
		Mechanism: core.MechSmoothLaplace,
		Alpha:     0.1, Eps: 2, Delta: 0.05,
	}
	if _, err := p.ReleaseMarginal(nil, req, dist.NewStreamFromSeed(0), nil); err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	var advances atomic.Int64
	go func() {
		defer close(done)
		seed := int64(100)
		for {
			select {
			case <-stop:
				return
			default:
			}
			dl, err := lodes.GenerateDelta(p.Dataset(), lodes.DefaultDeltaConfig(), dist.NewStreamFromSeed(seed))
			if err != nil {
				b.Error(err)
				return
			}
			if err := p.Advance(dl); err != nil {
				b.Error(err)
				return
			}
			advances.Add(1)
			seed++
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.ReleaseMarginal(nil, req, dist.NewStreamFromSeed(int64(i)), nil); err != nil {
			b.Error(err)
			break
		}
	}
	b.StopTimer()
	close(stop)
	<-done
	b.ReportMetric(float64(advances.Load()), "advances")
}

// --- Paper-scale benchmarks (lodes.LargeConfig) ---
//
// These run the workload suite against the ~500k-establishment /
// ~10M-job dataset — the magnitude of the paper's 3-state 2011 sample.
// Generating that dataset takes tens of seconds, so the whole group is
// gated behind EREE_LARGE_BENCH=1; scripts/bench.sh (the canonical
// regeneration path for the BENCH JSON files) sets it, while the
// compile-only CI bench job leaves it unset and skips.

var (
	benchLargeOnce sync.Once
	benchLargeData *lodes.Dataset
)

func benchLargeDataset(b *testing.B) *lodes.Dataset {
	b.Helper()
	if os.Getenv("EREE_LARGE_BENCH") == "" {
		b.Skip("paper-scale benchmark: set EREE_LARGE_BENCH=1 (scripts/bench.sh does)")
	}
	benchLargeOnce.Do(func() {
		benchLargeData = lodes.MustGenerate(lodes.LargeConfig(), dist.NewStreamFromSeed(1))
	})
	return benchLargeData
}

// BenchmarkLargeScaleBuildIndex measures the one-time index build (the
// counting sort over ~10M rows) at paper scale. Column materialization
// is lazy — charged to the first query that touches each attribute —
// so its cost shows up in the scan benchmarks' first iterations, not
// here.
func BenchmarkLargeScaleBuildIndex(b *testing.B) {
	d := benchLargeDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if table.BuildIndex(d.WorkerFull).NumGroups() == 0 {
			b.Fatal("empty index")
		}
	}
}

// BenchmarkLargeScaleMarginalCompute measures the Workload 1 marginal
// through the scatter kernel at paper scale (~10M rows per op).
func BenchmarkLargeScaleMarginalCompute(b *testing.B) {
	d := benchLargeDataset(b)
	q := table.MustNewQuery(d.Schema(), eval.Workload1Attrs()...)
	d.WorkerFull.Index()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := table.Compute(d.WorkerFull, q)
		if m.Total() == 0 {
			b.Fatal("empty marginal")
		}
	}
}

// BenchmarkLargeScaleComputeAllWorkloads measures the single-scan
// evaluation of the full workload suite (Workloads 1 and 2/3 share an
// attribute set) at paper scale.
func BenchmarkLargeScaleComputeAllWorkloads(b *testing.B) {
	d := benchLargeDataset(b)
	qs := []*table.Query{
		table.MustNewQuery(d.Schema(), eval.Workload1Attrs()...),
		table.MustNewQuery(d.Schema(), eval.Workload2Attrs()...),
	}
	d.WorkerFull.Index()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms := table.ComputeAll(d.WorkerFull, qs)
		if len(ms) != 2 || ms[0].Total() == 0 {
			b.Fatal("bad bulk result")
		}
	}
}

// BenchmarkLargeScaleReleaseBatch measures the Workload 1 release grid
// (three mechanisms × two ε) end-to-end at paper scale with a warm
// marginal cache — the serving-path steady state.
func BenchmarkLargeScaleReleaseBatch(b *testing.B) {
	p := core.NewPublisher(benchLargeDataset(b))
	attrs := eval.Workload1Attrs()
	var reqs []core.Request
	for _, eps := range []float64{1, 2} {
		reqs = append(reqs,
			core.Request{Attrs: attrs, Mechanism: core.MechLogLaplace, Alpha: 0.1, Eps: 2 * eps},
			core.Request{Attrs: attrs, Mechanism: core.MechSmoothGamma, Alpha: 0.1, Eps: eps},
			core.Request{Attrs: attrs, Mechanism: core.MechSmoothLaplace, Alpha: 0.1, Eps: eps, Delta: 0.05},
		)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rels, err := p.ReleaseBatch(nil, reqs, dist.NewStreamFromSeed(int64(i)), nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(rels) != len(reqs) {
			b.Fatal("short batch")
		}
	}
}

// BenchmarkLargeScaleWorkload3Release measures the full worker ×
// workplace marginal release (Workload 3, the d·ε regime) at paper
// scale: tens of thousands of cells of smooth-sensitivity noise per op.
func BenchmarkLargeScaleWorkload3Release(b *testing.B) {
	p := core.NewPublisher(benchLargeDataset(b))
	req := core.Request{
		Attrs:     eval.Workload3Attrs(),
		Mechanism: core.MechSmoothLaplace,
		Alpha:     0.1, Eps: 16, Delta: 0.05,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.ReleaseMarginal(nil, req, dist.NewStreamFromSeed(int64(i)), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLargeScaleSingleCells measures the Workload 2 regime (single
// queries) at paper scale: per-cell releases served from the warm
// marginal cache.
func BenchmarkLargeScaleSingleCells(b *testing.B) {
	p := core.NewPublisher(benchLargeDataset(b))
	req := core.Request{
		Attrs:     eval.Workload2Attrs(),
		Mechanism: core.MechSmoothGamma,
		Alpha:     0.1, Eps: 2,
	}
	m, err := p.Marginal(req.Attrs)
	if err != nil {
		b.Fatal(err)
	}
	var cellValues []string
	for cell := range m.Counts {
		if m.Counts[cell] > 0 {
			cellValues = m.Query.CellValues(cell)
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, _, err := p.ReleaseSingleCell(nil, req, cellValues, dist.NewStreamFromSeed(int64(i)), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- National-scale benchmarks (lodes.NationalConfig) ---
//
// These exercise the chunk-streamed generation path at the order of the
// real national LODES frame (~7M establishments, ~130M jobs). One op is
// a full pass over the relation, which takes minutes; the group is
// gated behind EREE_NATIONAL_BENCH=1 (scripts/bench.sh -national sets
// it) and is meant to be run with -benchtime=1x.

var (
	benchNationalOnce  sync.Once
	benchNationalFrame *lodes.Frame
	benchNationalErr   error
)

func benchNationalFrameFor(b *testing.B) *lodes.Frame {
	b.Helper()
	if os.Getenv("EREE_NATIONAL_BENCH") == "" {
		b.Skip("national-scale benchmark: set EREE_NATIONAL_BENCH=1 (scripts/bench.sh -national does)")
	}
	benchNationalOnce.Do(func() {
		benchNationalFrame, benchNationalErr =
			lodes.GenerateFrame(lodes.NationalConfig(), dist.NewStreamFromSeed(1))
	})
	if benchNationalErr != nil {
		b.Fatal(benchNationalErr)
	}
	return benchNationalFrame
}

// BenchmarkNationalStreamIngest measures the end-to-end streaming ingest
// shape at national scale: draw the job relation chunk-wise off the
// establishment frame and fold each chunk into an accumulated Workload 1
// marginal. Peak memory is one chunk plus the frame — the full relation
// is never materialized. Reports rows/s over the whole relation.
func BenchmarkNationalStreamIngest(b *testing.B) {
	f := benchNationalFrameFor(b)
	q := table.MustNewQuery(f.Schema, lodes.AttrPlace, lodes.AttrIndustry, lodes.AttrOwnership)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Split off a fresh per-iteration stream so every op draws the
		// identical job sequence.
		s := dist.NewStreamFromSeed(1).Split("workers-bench")
		counts := make([]int64, q.NumCells())
		rows := 0
		if err := f.StreamJobs(s, lodes.DefaultChunkRows, func(c *table.Table) error {
			m := table.Compute(c, q)
			for cell, v := range m.Counts {
				counts[cell] += v
			}
			rows += c.NumRows()
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if rows != f.TotalJobs {
			b.Fatalf("streamed %d rows, want %d", rows, f.TotalJobs)
		}
	}
	b.ReportMetric(float64(f.TotalJobs)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkNationalFrameGenerate measures drawing the establishment
// frame alone (places + ~7M establishments, no job rows) — the fixed
// setup cost every national streaming consumer pays once.
func BenchmarkNationalFrameGenerate(b *testing.B) {
	if os.Getenv("EREE_NATIONAL_BENCH") == "" {
		b.Skip("national-scale benchmark: set EREE_NATIONAL_BENCH=1 (scripts/bench.sh -national does)")
	}
	for i := 0; i < b.N; i++ {
		f, err := lodes.GenerateFrame(lodes.NationalConfig(), dist.NewStreamFromSeed(1))
		if err != nil {
			b.Fatal(err)
		}
		if f.TotalJobs < 100_000_000 {
			b.Fatalf("national frame implies only %d jobs", f.TotalJobs)
		}
	}
}

// BenchmarkSpearman measures the tie-aware rank correlation on
// Workload-1-sized vectors.
func BenchmarkSpearman(b *testing.B) {
	s := dist.NewStreamFromSeed(7)
	n := 2400
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = s.Float64()
		y[i] = x[i] + 0.1*s.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.Spearman(x, y)
	}
}

// BenchmarkSmoothSensitivity measures the Lemma 8.5 computation.
func BenchmarkSmoothSensitivity(b *testing.B) {
	sp, err := smooth.GammaSplit(2, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := smooth.Sensitivity(int64(i%10000), 0.1, sp.B); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Benchmarks for the extension modules ---

// BenchmarkSuppressionPipeline measures the Appendix A baseline: primary
// + audited complementary suppression on the industry × place table.
func BenchmarkSuppressionPipeline(b *testing.B) {
	d := benchDataset(b)
	q := table.MustNewQuery(d.Schema(), lodes.AttrIndustry, lodes.AttrPlace)
	m := table.Compute(d.WorkerFull, q)
	tab, err := suppress.FromMarginal(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		primary := suppress.Primary(tab,
			suppress.ThresholdRule{MinContributors: 3},
			suppress.PPercentRule{P: 10})
		full := suppress.Complementary(tab, primary)
		if full.Count() < primary.Count() {
			b.Fatal("complement lost suppressions")
		}
	}
}

// BenchmarkSuppressionAudit measures the interval auditor alone.
func BenchmarkSuppressionAudit(b *testing.B) {
	d := benchDataset(b)
	q := table.MustNewQuery(d.Schema(), lodes.AttrIndustry, lodes.AttrPlace)
	m := table.Compute(d.WorkerFull, q)
	tab, err := suppress.FromMarginal(m)
	if err != nil {
		b.Fatal(err)
	}
	full := suppress.Complementary(tab, suppress.Primary(tab, suppress.ThresholdRule{MinContributors: 3}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(suppress.Audit(tab, full)) == 0 {
			b.Fatal("no suppressed cells")
		}
	}
}

// BenchmarkQWIFlowRelease measures the two-quarter flow pipeline: panel
// evolution, flow computation, and the 3-release DP publication.
func BenchmarkQWIFlowRelease(b *testing.B) {
	d := benchDataset(b)
	panel, err := qwi.GeneratePanel(d, qwi.DefaultPanelConfig(), dist.NewStreamFromSeed(31))
	if err != nil {
		b.Fatal(err)
	}
	q := table.MustNewQuery(d.Schema(), lodes.AttrPlace, lodes.AttrIndustry)
	flows, err := qwi.ComputeFlows(panel, q)
	if err != nil {
		b.Fatal(err)
	}
	m, err := mech.NewSmoothLaplace(0.1, 2, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qwi.ReleaseFlows(flows, m, dist.NewStreamFromSeed(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnTheMapSynthesis measures the Dirichlet-multinomial
// residence synthesizer over a full OD matrix.
func BenchmarkOnTheMapSynthesis(b *testing.B) {
	d := benchDataset(b)
	od := otm.SyntheticOD(d, dist.NewStreamFromSeed(40))
	sy, err := otm.NewSynthesizer(2, 500, otm.MinPrior(2, 500))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sy.Synthesize(od, dist.NewStreamFromSeed(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
