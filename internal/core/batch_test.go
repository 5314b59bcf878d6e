package core

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/lodes"
	"repro/internal/privacy"
)

// TestMarginalCacheHitSkipsRecomputation pins the satellite fix: after a
// marginal has been computed once, answering the same query again — full
// marginal or a single cell — must be a cache hit, not another table
// scan.
func TestMarginalCacheHitSkipsRecomputation(t *testing.T) {
	p := testPublisher(t, 21)
	req := Request{Attrs: workload1Attrs(), Mechanism: MechSmoothGamma, Alpha: 0.1, Eps: 2}

	if _, err := p.ReleaseMarginal(nil, req, dist.NewStreamFromSeed(1), nil); err != nil {
		t.Fatal(err)
	}
	stats := p.MarginalCacheStats()
	if stats.Misses != 1 || stats.Hits != 0 {
		t.Fatalf("after first release: stats = %+v, want 1 miss / 0 hits", stats)
	}

	// Second full release of the same marginal: hit, no new miss.
	if _, err := p.ReleaseMarginal(nil, req, dist.NewStreamFromSeed(2), nil); err != nil {
		t.Fatal(err)
	}
	// Single-cell release of the same marginal: also served from cache.
	m, err := p.Marginal(req.Attrs)
	if err != nil {
		t.Fatal(err)
	}
	var cellValues []string
	for cell := range m.Counts {
		if m.Counts[cell] > 0 {
			cellValues = m.Query.CellValues(cell)
			break
		}
	}
	if _, _, _, _, err := p.ReleaseSingleCell(nil, req, cellValues, dist.NewStreamFromSeed(3), nil); err != nil {
		t.Fatal(err)
	}
	stats = p.MarginalCacheStats()
	if stats.Misses != 1 {
		t.Errorf("misses = %d after repeated queries, want 1 (marginal recomputed)", stats.Misses)
	}
	if stats.Hits < 3 {
		t.Errorf("hits = %d, want >= 3", stats.Hits)
	}
}

// TestMarginalCacheCanonicalization: the same attribute set in a
// different order shares the canonical entry's table scan, and the
// remapped marginal agrees cell-by-cell with a direct computation.
func TestMarginalCacheCanonicalization(t *testing.T) {
	p := testPublisher(t, 22)
	a := []string{lodes.AttrPlace, lodes.AttrIndustry}
	b := []string{lodes.AttrIndustry, lodes.AttrPlace}
	ma, err := p.Marginal(a)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := p.Marginal(b)
	if err != nil {
		t.Fatal(err)
	}
	stats := p.MarginalCacheStats()
	if stats.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (reordered query rescanned the table)", stats.Misses)
	}
	// Cross-check the remap: cell (i, p) of b must equal cell (p, i) of a.
	if ma.Total() != mb.Total() {
		t.Fatalf("totals differ: %d vs %d", ma.Total(), mb.Total())
	}
	for cell := range mb.Counts {
		values := mb.Query.CellValues(cell) // (industry, place)
		k, err := ma.Query.CellKeyForValues(values[1], values[0])
		if err != nil {
			t.Fatal(err)
		}
		if mb.Counts[cell] != ma.Counts[k] ||
			mb.MaxEntityContribution[cell] != ma.MaxEntityContribution[k] ||
			mb.SecondEntityContribution[cell] != ma.SecondEntityContribution[k] ||
			mb.EntityCount[cell] != ma.EntityCount[k] {
			t.Fatalf("remapped cell %d disagrees with direct computation", cell)
		}
	}
}

// TestCacheDisabledStillCorrect: a release from a cold publisher, which
// scans for its truth, is bit-identical to the same release from a
// publisher whose cache already holds that truth.
func TestCacheDisabledStillCorrect(t *testing.T) {
	req := Request{Attrs: workload1Attrs(), Mechanism: MechLogLaplace, Alpha: 0.1, Eps: 4}
	warmPub := testPublisher(t, 23)
	if _, err := warmPub.Marginal(workload1Attrs()); err != nil {
		t.Fatal(err)
	}
	warm, err := warmPub.ReleaseMarginal(nil, req, dist.NewStreamFromSeed(9), nil)
	if err != nil {
		t.Fatal(err)
	}
	coldPub := testPublisher(t, 23)
	cold, err := coldPub.ReleaseMarginal(nil, req, dist.NewStreamFromSeed(9), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Noisy) != len(cold.Noisy) {
		t.Fatalf("%d cells cached, %d cold", len(warm.Noisy), len(cold.Noisy))
	}
	for i := range warm.Noisy {
		if math.Float64bits(warm.Noisy[i]) != math.Float64bits(cold.Noisy[i]) {
			t.Fatalf("cell %d: cached %v != cold %v", i, warm.Noisy[i], cold.Noisy[i])
		}
	}
	if w, c := warmPub.MarginalCacheStats(), coldPub.MarginalCacheStats(); w.Hits != 1 || w.Misses != 1 || c.Hits != 0 || c.Misses != 1 {
		t.Errorf("cache stats: warm %+v, cold %+v; want the warm release a hit and the cold one a miss", w, c)
	}
}

// TestReleaseBatchMatchesSequential is the batch pipeline's determinism
// contract: ReleaseBatch(nil, reqs, s, nil)[i] is bit-identical to
// ReleaseMarginal(nil, reqs[i], s.SplitIndex("batch", i), nil).
func TestReleaseBatchMatchesSequential(t *testing.T) {
	reqs := []Request{
		{Attrs: workload1Attrs(), Mechanism: MechSmoothGamma, Alpha: 0.1, Eps: 2},
		{Attrs: workload1Attrs(), Mechanism: MechLogLaplace, Alpha: 0.1, Eps: 4},
		{Attrs: []string{lodes.AttrIndustry, lodes.AttrSex}, Mechanism: MechSmoothLaplace, Alpha: 0.1, Eps: 2, Delta: 0.05},
		{Attrs: []string{lodes.AttrIndustry}, Mechanism: MechEdgeLaplace, Eps: 1},
		{Attrs: workload1Attrs(), Mechanism: MechTruncatedLaplace, Eps: 1, Theta: 50},
	}
	pBatch := testPublisher(t, 24)
	pSeq := testPublisher(t, 24)

	batch, err := pBatch.ReleaseBatch(nil, reqs, dist.NewStreamFromSeed(6), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(reqs) {
		t.Fatalf("batch returned %d releases, want %d", len(batch), len(reqs))
	}
	parent := dist.NewStreamFromSeed(6)
	for i, req := range reqs {
		want, err := pSeq.ReleaseMarginal(nil, req, parent.SplitIndex("batch", i), nil)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].Loss != want.Loss {
			t.Errorf("request %d: loss %v, want %v", i, batch[i].Loss, want.Loss)
		}
		if len(batch[i].Noisy) != len(want.Noisy) {
			t.Fatalf("request %d: %d cells, want %d", i, len(batch[i].Noisy), len(want.Noisy))
		}
		for c := range want.Noisy {
			if batch[i].Noisy[c] != want.Noisy[c] {
				t.Fatalf("request %d cell %d: %v, want %v (batch not bit-identical)",
					i, c, batch[i].Noisy[c], want.Noisy[c])
			}
		}
	}
}

// TestReleaseBatchAccountantAtomic: an over-budget batch must charge
// nothing.
func TestReleaseBatchAccountantAtomic(t *testing.T) {
	p := testPublisher(t, 25)
	acct, err := privacy.NewAccountant(privacy.StrongEREE, 0.1, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []Request{
		{Attrs: workload1Attrs(), Mechanism: MechSmoothGamma, Alpha: 0.1, Eps: 2},
		{Attrs: workload1Attrs(), Mechanism: MechSmoothGamma, Alpha: 0.1, Eps: 2},
	}
	if _, err := p.ReleaseBatch(acct, reqs, dist.NewStreamFromSeed(7), nil); err == nil {
		t.Fatal("over-budget batch succeeded")
	}
	if got := acct.Spent().Eps; got != 0 {
		t.Fatalf("failed batch spent %g eps, want 0", got)
	}
	// A fitting batch charges the exact sum.
	fit := []Request{{Attrs: workload1Attrs(), Mechanism: MechSmoothGamma, Alpha: 0.1, Eps: 2}}
	if _, err := p.ReleaseBatch(acct, fit, dist.NewStreamFromSeed(8), nil); err != nil {
		t.Fatal(err)
	}
	if got := acct.Spent().Eps; got != 2 {
		t.Fatalf("spent %g eps, want 2", got)
	}
}

// TestConcurrentReleasesOneAccountant exercises the satellite race fix:
// parallel ReleaseMarginal and ReleaseBatch calls sharing one publisher
// and one accountant (run with -race in CI). Exactly budget/eps releases
// may succeed.
func TestConcurrentReleasesOneAccountant(t *testing.T) {
	p := testPublisher(t, 26)
	acct, err := privacy.NewAccountant(privacy.StrongEREE, 0.1, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Attrs: workload1Attrs(), Mechanism: MechSmoothGamma, Alpha: 0.1, Eps: 1}

	var wg sync.WaitGroup
	succeeded := make([]int, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				if g%2 == 0 {
					if _, err := p.ReleaseMarginal(acct, req, dist.NewStreamFromSeed(int64(g*100+i)), nil); err == nil {
						succeeded[g]++
					}
				} else {
					if _, err := p.ReleaseBatch(acct, []Request{req}, dist.NewStreamFromSeed(int64(g*100+i)), nil); err == nil {
						succeeded[g]++
					}
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, n := range succeeded {
		total += n
	}
	if total != 10 {
		t.Errorf("%d releases succeeded against a budget of 10×ε, want exactly 10", total)
	}
	if got := acct.Spent().Eps; got != 10 {
		t.Errorf("spent %g eps, want 10", got)
	}
	if stats := p.MarginalCacheStats(); stats.Misses != 1 {
		t.Errorf("concurrent releases caused %d table scans, want 1: %+v", stats.Misses, stats)
	}
}

// TestPrefetchMarginalsSingleScan: prefetching several attribute sets
// (including reorderings and duplicates) records one miss per distinct
// canonical set and makes subsequent releases pure hits.
func TestPrefetchMarginalsSingleScan(t *testing.T) {
	p := testPublisher(t, 27)
	sets := [][]string{
		workload1Attrs(),
		{lodes.AttrIndustry, lodes.AttrPlace, lodes.AttrOwnership}, // reordering of workload 1
		{lodes.AttrSex, lodes.AttrEducation},
		{lodes.AttrSex, lodes.AttrEducation}, // duplicate
	}
	if err := p.PrefetchMarginals(sets); err != nil {
		t.Fatal(err)
	}
	stats := p.MarginalCacheStats()
	if stats.Misses != 2 {
		t.Fatalf("prefetch recorded %d misses, want 2 distinct canonical sets", stats.Misses)
	}
	for i, attrs := range sets {
		if _, err := p.Marginal(attrs); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
	if got := p.MarginalCacheStats().Misses; got != 2 {
		t.Errorf("post-prefetch queries recomputed: misses = %d, want 2", got)
	}
}

// TestReleaseBatchEmpty: an empty batch is a no-op.
func TestReleaseBatchEmpty(t *testing.T) {
	p := testPublisher(t, 28)
	rels, err := p.ReleaseBatch(nil, nil, dist.NewStreamFromSeed(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rels != nil {
		t.Errorf("empty batch returned %d releases", len(rels))
	}
}

// TestReleaseBatchFirstErrorIndexed: a bad request is reported with its
// batch position.
func TestReleaseBatchFirstErrorIndexed(t *testing.T) {
	p := testPublisher(t, 29)
	reqs := []Request{
		{Attrs: workload1Attrs(), Mechanism: MechSmoothGamma, Alpha: 0.1, Eps: 2},
		{Attrs: []string{"no-such-attr"}, Mechanism: MechSmoothGamma, Alpha: 0.1, Eps: 2},
	}
	_, err := p.ReleaseBatch(nil, reqs, dist.NewStreamFromSeed(1), nil)
	if err == nil {
		t.Fatal("batch with invalid request succeeded")
	}
	want := fmt.Sprintf("batch request %d", 1)
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name %q", err, want)
	}
}
