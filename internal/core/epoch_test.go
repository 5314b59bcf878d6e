package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/lodes"
	"repro/internal/privacy"
	"repro/internal/table"
)

// smallDataset generates a fast dataset for epoch tests (~500
// establishments).
func smallDataset(t *testing.T, seed int64) *lodes.Dataset {
	t.Helper()
	cfg := lodes.TestConfig()
	cfg.NumEstablishments = 500
	return lodes.MustGenerate(cfg, dist.NewStreamFromSeed(seed))
}

// lastRowJob reads establishment e's last WorkerFull row back as a
// JobRecord, so a test can build a hire that exactly replaces a
// separation.
func lastRowJob(t *testing.T, d *lodes.Dataset, e int32) lodes.JobRecord {
	t.Helper()
	s := d.Schema()
	var row int
	found := false
	for r := 0; r < d.WorkerFull.NumRows(); r++ {
		if d.WorkerFull.Entity(r) == e {
			row, found = r, true
		}
	}
	if !found {
		t.Fatalf("establishment %d has no rows", e)
	}
	return lodes.JobRecord{
		Sex:       d.WorkerFull.Code(row, s.MustAttrIndex(lodes.AttrSex)),
		Age:       d.WorkerFull.Code(row, s.MustAttrIndex(lodes.AttrAge)),
		Race:      d.WorkerFull.Code(row, s.MustAttrIndex(lodes.AttrRace)),
		Ethnicity: d.WorkerFull.Code(row, s.MustAttrIndex(lodes.AttrEthnicity)),
		Education: d.WorkerFull.Code(row, s.MustAttrIndex(lodes.AttrEducation)),
	}
}

// TestAdvanceServesNewEpoch: after Advance, releases reflect the new
// data (differentially checked against the reference engine on the
// successor dataset) and the epoch is visible everywhere.
func TestAdvanceServesNewEpoch(t *testing.T) {
	d := smallDataset(t, 51)
	p := NewPublisher(d)
	req := Request{Attrs: workload1Attrs(), Mechanism: MechSmoothGamma, Alpha: 0.1, Eps: 2}
	rel0, err := p.ReleaseMarginal(nil, req, dist.NewStreamFromSeed(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rel0.Epoch != 0 || p.Epoch() != 0 {
		t.Fatalf("epoch before advance = (%d, %d), want (0, 0)", rel0.Epoch, p.Epoch())
	}

	dl, err := lodes.GenerateDelta(d, lodes.DefaultDeltaConfig(), dist.NewStreamFromSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Advance(dl); err != nil {
		t.Fatal(err)
	}
	if p.Epoch() != 1 {
		t.Fatalf("Epoch after advance = %d, want 1", p.Epoch())
	}
	rel1, err := p.ReleaseMarginal(nil, req, dist.NewStreamFromSeed(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rel1.Epoch != 1 {
		t.Fatalf("release epoch = %d, want 1", rel1.Epoch)
	}
	// The incrementally maintained index must produce the successor's
	// exact truth: compare against the scalar reference engine on the
	// new dataset.
	q, err := table.NewQuery(p.Dataset().Schema(), workload1Attrs()...)
	if err != nil {
		t.Fatal(err)
	}
	want := table.ComputeReference(p.Dataset().WorkerFull, q)
	for i := range want.Counts {
		if rel1.Truth.Counts[i] != want.Counts[i] ||
			rel1.Truth.MaxEntityContribution[i] != want.MaxEntityContribution[i] ||
			rel1.Truth.SecondEntityContribution[i] != want.SecondEntityContribution[i] ||
			rel1.Truth.EntityCount[i] != want.EntityCount[i] {
			t.Fatalf("cell %d: epoch-1 truth diverges from reference on successor dataset", i)
		}
	}
	if rel0.Truth.Counts[0] == rel1.Truth.Counts[0] && rel0.Truth.Total() == rel1.Truth.Total() {
		t.Log("delta left workload-1 totals identical (unlikely but not wrong)")
	}
}

// TestAdvanceSelectiveInvalidation pins the cache-survival contract: a
// delta that provably does not change a marginal's cells carries the
// cached truth across the epoch bump (same entry object, no rescan),
// while affected marginals are *patched* in place — carried as fresh
// truth objects, served as hits, with no recompute scan.
func TestAdvanceSelectiveInvalidation(t *testing.T) {
	d := smallDataset(t, 52)
	p := NewPublisher(d)
	// Warm two marginals on epoch 0.
	w1 := workload1Attrs()
	if _, err := p.Marginal(w1); err != nil {
		t.Fatal(err)
	}
	sexAttrs := []string{lodes.AttrSex}
	if _, err := p.Marginal(sexAttrs); err != nil {
		t.Fatal(err)
	}
	truthBefore, err := p.Marginal(w1)
	if err != nil {
		t.Fatal(err)
	}

	// A no-op churn delta: establishment 3 separates one worker and
	// hires an identical replacement. Every per-cell contribution of
	// every query is unchanged, so both marginals must survive.
	var est int32 = 3
	if d.Establishments[est].Employment < 1 {
		t.Fatal("establishment 3 unexpectedly empty")
	}
	replacement := lastRowJob(t, d, est)
	noop := &lodes.Delta{
		Separations: []lodes.Separation{{Est: est, Count: 1}},
		Hires:       []lodes.Hire{{Est: est, Jobs: []lodes.JobRecord{replacement}}},
	}
	if err := p.Advance(noop); err != nil {
		t.Fatal(err)
	}
	stats := p.MarginalCacheStats()
	if stats.Epoch != 1 || stats.Evictions != 0 || stats.Patches != 0 {
		t.Fatalf("no-op advance stats = %+v, want epoch 1 with 0 evictions / 0 patches", stats)
	}
	truthAfter, err := p.Marginal(w1)
	if err != nil {
		t.Fatal(err)
	}
	if truthAfter != truthBefore {
		t.Fatal("unaffected marginal was not carried across the epoch bump (truth recomputed)")
	}
	if got := p.MarginalCacheStats(); got.Misses != 0 || got.Hits != 1 {
		t.Fatalf("carried marginal served with stats %+v, want 1 hit / 0 misses", got)
	}

	// A real churn delta: the same establishment hires one
	// distinguishable worker. Both the workplace marginal (its place ×
	// industry × ownership cell gains a count) and the sex marginal are
	// affected — and must be patched and carried, not evicted.
	distinct := replacement
	distinct.Sex = 1 - distinct.Sex
	real := &lodes.Delta{Hires: []lodes.Hire{{Est: est, Jobs: []lodes.JobRecord{distinct}}}}
	if err := p.Advance(real); err != nil {
		t.Fatal(err)
	}
	stats = p.MarginalCacheStats()
	if stats.Epoch != 2 || stats.Patches != 2 || stats.Evictions != 0 {
		t.Fatalf("churn advance stats = %+v, want epoch 2 with 2 patches / 0 evictions", stats)
	}
	truthNew, err := p.Marginal(w1)
	if err != nil {
		t.Fatal(err)
	}
	if truthNew == truthAfter {
		t.Fatal("affected marginal's truth object survived the epoch bump unpatched")
	}
	if truthNew.Total() != truthAfter.Total()+1 {
		t.Fatalf("epoch-2 total = %d, want %d", truthNew.Total(), truthAfter.Total()+1)
	}
	if got := p.MarginalCacheStats(); got.Misses != 0 || got.Hits != 1 {
		t.Fatalf("patched marginal served with stats %+v, want 1 hit / 0 misses (no rescan)", got)
	}

	// Per-epoch history: three epochs, each with its own counters.
	hist := p.CacheStatsByEpoch()
	if len(hist) != 3 {
		t.Fatalf("history has %d epochs, want 3", len(hist))
	}
	if hist[0].Epoch != 0 || hist[0].Misses != 2 {
		t.Errorf("epoch-0 history %+v, want 2 misses", hist[0])
	}
	if hist[2].Patches != 2 || hist[2].Evictions != 0 {
		t.Errorf("epoch-2 history %+v, want 2 patches / 0 evictions", hist[2])
	}
}

// assertMarginalEqual compares every statistic of two marginals.
func assertMarginalEqual(t *testing.T, got, want *table.Marginal, label string) {
	t.Helper()
	for i := range want.Counts {
		if got.Counts[i] != want.Counts[i] ||
			got.MaxEntityContribution[i] != want.MaxEntityContribution[i] ||
			got.SecondEntityContribution[i] != want.SecondEntityContribution[i] ||
			got.EntityCount[i] != want.EntityCount[i] {
			t.Fatalf("%s: cell %d diverges (got %d/%d/%d/%d, want %d/%d/%d/%d)", label, i,
				got.Counts[i], got.MaxEntityContribution[i], got.SecondEntityContribution[i], got.EntityCount[i],
				want.Counts[i], want.MaxEntityContribution[i], want.SecondEntityContribution[i], want.EntityCount[i])
		}
	}
}

// TestAdvancePatchedTruthBitIdentical chains generated quarterly deltas
// through the patch path and requires every cached truth to stay
// bit-identical to the scalar reference engine at every epoch. This is
// the end-to-end closure of the kernel-level differential suites in
// internal/table.
func TestAdvancePatchedTruthBitIdentical(t *testing.T) {
	d := smallDataset(t, 60)
	patch := NewPublisher(d)
	attrSets := [][]string{
		workload1Attrs(),
		{lodes.AttrSex},
		{lodes.AttrIndustry, lodes.AttrEducation},
	}
	for _, attrs := range attrSets {
		if _, err := patch.Marginal(attrs); err != nil {
			t.Fatal(err)
		}
	}
	cur := d
	for epoch := 1; epoch <= 4; epoch++ {
		// Calibrated churn keeps the advance below the patch-versus-evict
		// cost gate, so every epoch exercises the patch path proper (the
		// heavy-churn side of the gate is TestAdvanceHeavyChurnEvicts; the
		// full-churn kernel differentials live in internal/table).
		dl, err := lodes.GenerateDelta(cur, lodes.CalibratedDeltaConfig(), dist.NewStreamFromSeed(int64(200+epoch)))
		if err != nil {
			t.Fatal(err)
		}
		if err := patch.Advance(dl); err != nil {
			t.Fatal(err)
		}
		if stats := patch.MarginalCacheStats(); stats.Patches == 0 || stats.Evictions != 0 {
			t.Fatalf("epoch %d: patch publisher stats %+v, want patches > 0 and no evictions", epoch, stats)
		}
		for _, attrs := range attrSets {
			pm, err := patch.Marginal(attrs)
			if err != nil {
				t.Fatal(err)
			}
			q, err := table.NewQuery(patch.Dataset().Schema(), attrs...)
			if err != nil {
				t.Fatal(err)
			}
			assertMarginalEqual(t, pm, table.ComputeReference(patch.Dataset().WorkerFull, q), "patched-vs-reference")
		}
		// The patch publisher never rescanned: all serving traffic after
		// the warmup are hits.
		if stats := patch.MarginalCacheStats(); stats.Misses != 0 {
			t.Fatalf("epoch %d: patch publisher rescanned (%+v)", epoch, stats)
		}
		cur = patch.Dataset()
	}
}

// TestAdvanceHeavyChurnEvicts pins the patch-versus-evict cost gate:
// a delta that churns most of the frame (the full-churn stress regime
// touches nearly every establishment) makes per-row patching more
// expensive than the rescans it avoids, so the advance must fall back
// to eviction for non-flat truths — and the truths recomputed on
// demand must still be exact.
func TestAdvanceHeavyChurnEvicts(t *testing.T) {
	d := smallDataset(t, 62)
	p := NewPublisher(d)
	attrs := []string{lodes.AttrIndustry, lodes.AttrEducation}
	if _, err := p.Marginal(attrs); err != nil {
		t.Fatal(err)
	}
	// A violent shock (σ=1.5) moves nearly every establishment's
	// employment, so the delta touches well over half the frame. (At
	// this tiny scale the default σ=0.1 often rounds to no change.)
	cfg := lodes.DefaultDeltaConfig()
	cfg.GrowthSigma = 1.5
	dl, err := lodes.GenerateDelta(d, cfg, dist.NewStreamFromSeed(300))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Advance(dl); err != nil {
		t.Fatal(err)
	}
	if stats := p.MarginalCacheStats(); stats.Patches != 0 || stats.Evictions != 1 {
		t.Fatalf("heavy advance stats %+v, want the truth evicted, not patched", stats)
	}
	truth, err := p.Marginal(attrs)
	if err != nil {
		t.Fatal(err)
	}
	q, err := table.NewQuery(p.Dataset().Schema(), attrs...)
	if err != nil {
		t.Fatal(err)
	}
	assertMarginalEqual(t, truth, table.ComputeReference(p.Dataset().WorkerFull, q), "post-eviction recompute")
}

// TestAdvanceOneEntryPerSet pins the cache's shape on default data: a
// released marginal depends only on its attribute set, so however many
// request-order spellings are served, the cache holds exactly one entry
// per canonical set — through calibrated advances too — while every
// spelling's truth matches the reference engine cell for cell in
// request order at every epoch.
func TestAdvanceOneEntryPerSet(t *testing.T) {
	data := lodes.DefaultConfig()
	if raceEnabled {
		// The race detector multiplies heap use about fivefold and slows
		// every scan; no assertion here depends on scale, so the race leg
		// keeps the default schema over a tenth of the establishments.
		data.NumEstablishments /= 10
	}
	p := NewPublisher(lodes.MustGenerate(data, dist.NewStreamFromSeed(1)))
	names := p.Dataset().Schema().Names()
	// Every ordered spelling of one to three distinct attributes: 8 + 56 +
	// 336 = 400 spellings of 8 + 28 + 56 = 92 sets.
	var spellings [][]string
	for i, a := range names {
		spellings = append(spellings, []string{a})
		for j, b := range names {
			if j == i {
				continue
			}
			spellings = append(spellings, []string{a, b})
			for k, c := range names {
				if k != i && k != j {
					spellings = append(spellings, []string{a, b, c})
				}
			}
		}
	}
	const sets = 92
	if len(spellings) != 400 {
		t.Fatalf("%d spellings, want 400", len(spellings))
	}
	committed := func() int { return len(p.snap.Load().cache.committed()) }
	// serve releases every spelling's truth and checks it against the
	// reference engine, run once per set over the canonical query and
	// read back in the spelling's order by decoding and re-encoding cell
	// codes — independently of the cache's stride remap.
	serve := func(epoch int) {
		data := p.Dataset()
		refs := make(map[string]*table.Marginal)
		for _, attrs := range spellings {
			m, err := p.Marginal(attrs)
			if err != nil {
				t.Fatal(err)
			}
			canon, err := p.snap.Load().canonicalQuery(attrs)
			if err != nil {
				t.Fatal(err)
			}
			key := exactKey(canon.AttrNames())
			ref := refs[key]
			if ref == nil {
				ref = table.ComputeReference(data.WorkerFull, canon)
				refs[key] = ref
			}
			pos := make([]int, len(attrs)) // canonical position of each request attribute
			for i, a := range m.Query.Attrs() {
				for j, b := range canon.Attrs() {
					if a == b {
						pos[i] = j
					}
				}
			}
			codes := make([]int, len(attrs))
			canonCodes := make([]int, len(attrs))
			for cell := range m.Counts {
				codes = m.Query.DecodeCell(cell, codes)
				for i, c := range codes {
					canonCodes[pos[i]] = c
				}
				k := canon.CellKey(canonCodes...)
				if m.Counts[cell] != ref.Counts[k] ||
					m.MaxEntityContribution[cell] != ref.MaxEntityContribution[k] ||
					m.SecondEntityContribution[cell] != ref.SecondEntityContribution[k] ||
					m.EntityCount[cell] != ref.EntityCount[k] {
					t.Fatalf("epoch %d %v: cell %d diverges from the reference", epoch, attrs, cell)
				}
			}
		}
		if n := committed(); n != sets {
			t.Fatalf("epoch %d: %d committed entries after serving 400 spellings, want %d", epoch, n, sets)
		}
	}

	serve(0)
	if st := p.MarginalCacheStats(); st.Misses != sets {
		t.Fatalf("epoch 0: %d misses, want one scan per set (%d)", st.Misses, sets)
	}
	for epoch := 1; epoch <= 2; epoch++ {
		dl, err := lodes.GenerateDelta(p.Dataset(), lodes.CalibratedDeltaConfig(), dist.NewStreamFromSeed(int64(700+epoch)))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Advance(dl); err != nil {
			t.Fatal(err)
		}
		if st := p.MarginalCacheStats(); st.Patches+st.Evictions > sets {
			t.Fatalf("epoch %d: advance stats %+v count more than the %d canonical truths", epoch, st, sets)
		}
		serve(epoch)
	}

	// Distinct spellings of the full 8-attribute set share one entry. Its
	// cell count is the product of every domain, 1.8M cells at default
	// scale, so this part runs on a four-place frame (122,880 cells).
	cfg := lodes.TestConfig()
	cfg.NumPlaces = 4
	wide := NewPublisher(lodes.MustGenerate(cfg, dist.NewStreamFromSeed(1)))
	reversed := make([]string, len(names))
	for i, a := range names {
		reversed[len(names)-1-i] = a
	}
	rotated := append(append([]string(nil), names[3:]...), names[:3]...)
	for _, attrs := range [][]string{reversed, rotated, names} {
		if _, err := wide.Marginal(attrs); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(wide.snap.Load().cache.committed()); n != 1 {
		t.Fatalf("three spellings of the 8-attribute set left %d committed entries, want 1", n)
	}
	if _, ok := wide.snap.Load().cache.lookup(exactKey(names)); !ok {
		t.Fatal("the 8-attribute set is not cached under its canonical spelling")
	}
}

// TestAdvanceViewStatePerCell pins the maintained views' memory and
// bit-identity on default data. With a truth cached for each of the 92
// canonical one- to three-attribute sets, four calibrated advances
// patch every truth through its view, and each patched truth equals a
// fresh Index.Compute after every quarter. The views then retain at
// most 32 MiB of heap beyond the truths they share with the cache:
// their state is per cell, not per establishment (a per-establishment
// directory retained ~130 MiB here).
func TestAdvanceViewStatePerCell(t *testing.T) {
	p := NewPublisher(lodes.MustGenerate(lodes.DefaultConfig(), dist.NewStreamFromSeed(1)))
	schema := p.Dataset().Schema()
	names := schema.Names()
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
	if len(sets) != 92 {
		t.Fatalf("%d canonical sets, want 92", len(sets))
	}
	if err := p.PrefetchMarginals(sets); err != nil {
		t.Fatal(err)
	}
	for quarter := 1; quarter <= 4; quarter++ {
		dl, err := lodes.GenerateDelta(p.Dataset(), lodes.CalibratedDeltaConfig(), dist.NewStreamFromSeed(int64(800+quarter)))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Advance(dl); err != nil {
			t.Fatal(err)
		}
		if st := p.MarginalCacheStats(); st.Patches != int64(len(sets)) || st.Evictions != 0 {
			t.Fatalf("quarter %d: advance stats %+v, want all %d truths patched", quarter, st, len(sets))
		}
		ix := p.Dataset().WorkerFull.Index()
		for _, attrs := range sets {
			got, err := p.Marginal(attrs)
			if err != nil {
				t.Fatal(err)
			}
			q, err := table.NewQuery(schema, attrs...)
			if err != nil {
				t.Fatal(err)
			}
			assertMarginalEqual(t, got, ix.Compute(q), fmt.Sprintf("quarter %d %v", quarter, attrs))
		}
		if st := p.MarginalCacheStats(); st.Misses != 0 {
			t.Fatalf("quarter %d: a patched truth was rescanned (%+v)", quarter, st)
		}
	}
	if len(p.views) != len(sets) {
		t.Fatalf("%d maintained views, want %d", len(p.views), len(sets))
	}
	if raceEnabled {
		return // the race detector's shadow memory inflates the heap
	}
	// Two collections per reading: the first moves the index's pooled
	// scan scratch to sync.Pool's victim cache, the second frees it.
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	n := len(p.views)
	withViews := liveHeap()
	p.views = nil
	retained := withViews - liveHeap()
	runtime.KeepAlive(p)
	t.Logf("%d views retain %.1f MiB", n, float64(retained)/(1<<20))
	if retained > 32<<20 {
		t.Fatalf("%d views retain %.1f MiB of heap, want at most 32 MiB", n, float64(retained)/(1<<20))
	}
}

// TestAdvanceCarriedTruthBitIdentical: a carried cache entry must equal
// what a from-scratch recompute on the successor dataset produces.
func TestAdvanceCarriedTruthBitIdentical(t *testing.T) {
	d := smallDataset(t, 53)
	p := NewPublisher(d)
	attrs := []string{lodes.AttrIndustry, lodes.AttrOwnership}
	if _, err := p.Marginal(attrs); err != nil {
		t.Fatal(err)
	}
	var est int32 = 7
	noop := &lodes.Delta{
		Separations: []lodes.Separation{{Est: est, Count: 1}},
		Hires:       []lodes.Hire{{Est: est, Jobs: []lodes.JobRecord{lastRowJob(t, d, est)}}},
	}
	if err := p.Advance(noop); err != nil {
		t.Fatal(err)
	}
	carried, err := p.Marginal(attrs)
	if err != nil {
		t.Fatal(err)
	}
	q, err := table.NewQuery(p.Dataset().Schema(), attrs...)
	if err != nil {
		t.Fatal(err)
	}
	want := table.ComputeReference(p.Dataset().WorkerFull, q)
	for i := range want.Counts {
		if carried.Counts[i] != want.Counts[i] ||
			carried.MaxEntityContribution[i] != want.MaxEntityContribution[i] ||
			carried.SecondEntityContribution[i] != want.SecondEntityContribution[i] ||
			carried.EntityCount[i] != want.EntityCount[i] {
			t.Fatalf("cell %d: carried truth diverges from recompute on successor", i)
		}
	}
}

// TestAdvanceAccountantLedger: an accountant advanced alongside the
// publisher, as the serving layer advances every tenant, attributes
// each charge to the epoch that served it, and the budget composes
// across epochs.
func TestAdvanceAccountantLedger(t *testing.T) {
	d := smallDataset(t, 54)
	acct, err := privacy.NewAccountant(privacy.StrongEREE, 0.1, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPublisher(d)
	req := Request{Attrs: workload1Attrs(), Mechanism: MechSmoothGamma, Alpha: 0.1, Eps: 2}
	if _, err := p.ReleaseMarginal(acct, req, dist.NewStreamFromSeed(1), nil); err != nil {
		t.Fatal(err)
	}
	dl, err := lodes.GenerateDelta(d, lodes.DefaultDeltaConfig(), dist.NewStreamFromSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Advance(dl); err != nil {
		t.Fatal(err)
	}
	acct.AdvanceEpoch()
	for i := 0; i < 2; i++ {
		if _, err := p.ReleaseMarginal(acct, req, dist.NewStreamFromSeed(int64(3+i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	ledger := acct.SpendByEpoch()
	if len(ledger) != 2 {
		t.Fatalf("ledger has %d epochs, want 2", len(ledger))
	}
	if ledger[0].Releases != 1 || ledger[0].Eps != 2 {
		t.Errorf("epoch-0 ledger %+v, want 1 release / eps 2", ledger[0])
	}
	if ledger[1].Releases != 2 || ledger[1].Eps != 4 {
		t.Errorf("epoch-1 ledger %+v, want 2 releases / eps 4", ledger[1])
	}
	if spent := acct.Spent(); spent.Eps != 6 {
		t.Errorf("total spent %v, want eps 6 (budget composes across epochs)", spent)
	}
}

// TestAdvanceSnapshotPinning is the serve-during-update race test: a
// fleet of goroutines releases marginals and batches nonstop while the
// main goroutine advances the publisher through several quarterly
// deltas. Every release must be internally consistent with the epoch it
// reports — a release started on epoch N must never read epoch N+1
// rows — which is checked against per-epoch totals precomputed from an
// independently applied delta chain. Run with -race in CI.
func TestAdvanceSnapshotPinning(t *testing.T) {
	const quarters = 4
	d := smallDataset(t, 56)

	// Precompute the expected per-epoch totals and W1 counts by applying
	// the same deltas outside the publisher (ApplyDelta is
	// deterministic).
	deltas := make([]*lodes.Delta, quarters)
	totals := make([]int64, quarters+1)
	counts := make([][]int64, quarters+1)
	q, err := table.NewQuery(d.Schema(), workload1Attrs()...)
	if err != nil {
		t.Fatal(err)
	}
	cur := d
	for e := 0; e <= quarters; e++ {
		m := table.ComputeReference(cur.WorkerFull, q)
		totals[e] = m.Total()
		counts[e] = m.Counts
		if e == quarters {
			break
		}
		dl, err := lodes.GenerateDelta(cur, lodes.DefaultDeltaConfig(), dist.NewStreamFromSeed(int64(100+e)))
		if err != nil {
			t.Fatal(err)
		}
		deltas[e] = dl
		if cur, err = cur.ApplyDelta(dl); err != nil {
			t.Fatal(err)
		}
	}

	p := NewPublisher(d)
	req := Request{Attrs: workload1Attrs(), Mechanism: MechSmoothGamma, Alpha: 0.1, Eps: 2}
	batch := []Request{req, {Attrs: []string{lodes.AttrSex}, Mechanism: MechLogLaplace, Alpha: 0.1, Eps: 2}}

	stop := make(chan struct{})
	var checked atomic.Int64
	var wg sync.WaitGroup
	verify := func(rel *Release) {
		if rel.Epoch < 0 || rel.Epoch > quarters {
			t.Errorf("release reports epoch %d, outside [0,%d]", rel.Epoch, quarters)
			return
		}
		// Every marginal's total is the epoch's row count: a release
		// pinned to epoch N must report exactly epoch N's total.
		if rel.Truth.Total() != totals[rel.Epoch] {
			t.Errorf("epoch-%d release has total %d, want %d (read across the snapshot boundary?)",
				rel.Epoch, rel.Truth.Total(), totals[rel.Epoch])
			return
		}
		// W1 releases additionally match cell-for-cell.
		if rel.Query.NumCells() == len(counts[rel.Epoch]) {
			for i, c := range rel.Truth.Counts {
				if c != counts[rel.Epoch][i] {
					t.Errorf("epoch-%d release cell %d = %d, want %d", rel.Epoch, i, c, counts[rel.Epoch][i])
					return
				}
			}
		}
		checked.Add(1)
	}
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seed := int64(g) << 32
			for {
				select {
				case <-stop:
					return
				default:
				}
				seed++
				if g%2 == 0 {
					rel, err := p.ReleaseMarginal(nil, req, dist.NewStreamFromSeed(seed), nil)
					if err != nil {
						t.Error(err)
						return
					}
					verify(rel)
				} else {
					rels, err := p.ReleaseBatch(nil, batch, dist.NewStreamFromSeed(seed), nil)
					if err != nil {
						t.Error(err)
						return
					}
					if rels[0].Epoch != rels[1].Epoch {
						t.Errorf("batch spans epochs %d and %d: batch not pinned to one snapshot",
							rels[0].Epoch, rels[1].Epoch)
						return
					}
					verify(rels[0])
				}
			}
		}(g)
	}
	// Interleave: require serving progress before and after every
	// advance, so releases demonstrably overlap the update path.
	waitForProgress := func(target int64) {
		deadline := time.Now().Add(10 * time.Second)
		for checked.Load() < target && time.Now().Before(deadline) {
			runtime.Gosched()
		}
	}
	var floor int64
	for _, dl := range deltas {
		waitForProgress(floor + 3)
		if err := p.Advance(dl); err != nil {
			t.Error(err)
			break
		}
		floor = checked.Load()
	}
	waitForProgress(floor + 3)
	close(stop)
	wg.Wait()
	if p.Epoch() != quarters {
		t.Errorf("final epoch %d, want %d", p.Epoch(), quarters)
	}
	if checked.Load() == 0 {
		t.Error("no releases verified — the serving fleet never ran")
	}
	// The final epoch's truth matches the independently computed chain.
	final, err := p.Marginal(workload1Attrs())
	if err != nil {
		t.Fatal(err)
	}
	if final.Total() != totals[quarters] {
		t.Errorf("final truth total %d, want %d", final.Total(), totals[quarters])
	}
}

// TestReleaseNoiseEpochSeparation: a caller stream identity reused
// across an Advance must draw fresh noise. The delta here is a no-op
// churn (one separation replaced by an identical hire), so every cell's
// truth is identical across the epoch bump — under a derivation that
// ignored the epoch, both releases would be bit-identical, and for
// cells the delta *did* change, differencing the two releases would
// cancel the noise exactly and expose the true difference.
func TestReleaseNoiseEpochSeparation(t *testing.T) {
	d := smallDataset(t, 59)
	p := NewPublisher(d)
	req := Request{Attrs: workload1Attrs(), Mechanism: MechSmoothGamma, Alpha: 0.1, Eps: 2}
	cellValues := []string{lodes.PlaceName(0), "44-Retail", "Private"}

	rel0, err := p.ReleaseMarginal(nil, req, dist.NewStreamFromSeed(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	cell0, _, _, _, err := p.ReleaseSingleCell(nil, req, cellValues, dist.NewStreamFromSeed(2), nil)
	if err != nil {
		t.Fatal(err)
	}

	var est int32 = 3
	if d.Establishments[est].Employment < 1 {
		t.Fatal("establishment 3 unexpectedly empty")
	}
	noop := &lodes.Delta{
		Separations: []lodes.Separation{{Est: est, Count: 1}},
		Hires:       []lodes.Hire{{Est: est, Jobs: []lodes.JobRecord{lastRowJob(t, d, est)}}},
	}
	if err := p.Advance(noop); err != nil {
		t.Fatal(err)
	}

	rel1, err := p.ReleaseMarginal(nil, req, dist.NewStreamFromSeed(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	cell1, _, _, _, err := p.ReleaseSingleCell(nil, req, cellValues, dist.NewStreamFromSeed(2), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Sanity: the no-op delta really did leave the truth unchanged.
	for i := range rel0.Truth.Counts {
		if rel0.Truth.Counts[i] != rel1.Truth.Counts[i] {
			t.Fatalf("cell %d truth changed across the no-op delta: %d -> %d",
				i, rel0.Truth.Counts[i], rel1.Truth.Counts[i])
		}
	}
	// The released values must not replay: same stream, same truth,
	// different epoch => fresh noise.
	same := true
	for i := range rel0.Noisy {
		if rel0.Noisy[i] != rel1.Noisy[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("marginal release replayed identical noise across an epoch advance")
	}
	if cell0 == cell1 {
		t.Fatal("single-cell release replayed identical noise across an epoch advance")
	}
}

// TestAdvanceRejectsInvalidDelta: a bad delta must leave the current
// snapshot fully intact.
func TestAdvanceRejectsInvalidDelta(t *testing.T) {
	d := smallDataset(t, 57)
	p := NewPublisher(d)
	if _, err := p.Marginal(workload1Attrs()); err != nil {
		t.Fatal(err)
	}
	bad := &lodes.Delta{Deaths: []int32{int32(d.NumEstablishments())}}
	if err := p.Advance(bad); err == nil {
		t.Fatal("Advance accepted an invalid delta")
	}
	if p.Epoch() != 0 {
		t.Errorf("failed advance moved the epoch to %d", p.Epoch())
	}
	if p.Dataset() != d {
		t.Error("failed advance replaced the dataset")
	}
	if stats := p.MarginalCacheStats(); stats.Misses != 1 {
		t.Errorf("failed advance disturbed the cache: %+v", stats)
	}
}
