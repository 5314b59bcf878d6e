package table

import (
	"math/rand"
	"testing"
)

// Differential tests of the kernel's static-attribute machinery. The
// generic harness (randomEntityRows) draws every attribute per row, so
// no attribute is ever group-constant and every view runs the fully
// dynamic path. Real LODES establishment attributes — place, industry,
// ownership — are constant within an establishment, which is exactly
// what the view's static factoring and the flat specialization exist
// for. This harness pins those codes per entity, so views over
// establishment-constant attributes build flat and views mixing in a
// worker attribute factor the constant part out, and the differentials
// here close over the lifecycle the quarterly pipeline produces:
// churn, full death, rebirth under a different static identity, a
// delta that breaks an attribute's constancy mid-life (demoting the
// view), and the targeted rescan with its static-key filter on and off.

// staticHarness is entityRows with per-entity pinned place and
// industry codes; sex stays per-row random.
type staticHarness struct {
	rng   *rand.Rand
	er    *entityRows
	fixed map[int32][2]int // entity -> pinned (place, industry) codes
}

func newStaticHarness(rng *rand.Rand, numEnts, maxSize int) *staticHarness {
	h := &staticHarness{
		rng:   rng,
		er:    &entityRows{schema: testSchema(), rows: make(map[int32][][]int)},
		fixed: make(map[int32][2]int),
	}
	for e := int32(0); int(e) < numEnts; e++ {
		h.assign(e)
		n := 1 + rng.Intn(maxSize)
		for i := 0; i < n; i++ {
			h.er.rows[e] = append(h.er.rows[e], h.row(e))
		}
		h.er.order = append(h.er.order, e)
	}
	return h
}

// assign draws a fresh static identity for e — at birth, or at rebirth
// when the reborn establishment may land in a different place.
func (h *staticHarness) assign(e int32) {
	s := h.er.schema
	h.fixed[e] = [2]int{h.rng.Intn(s.Attr(0).Size()), h.rng.Intn(s.Attr(1).Size())}
}

func (h *staticHarness) row(e int32) []int {
	f := h.fixed[e]
	return []int{f[0], f[1], h.rng.Intn(h.er.schema.Attr(2).Size())}
}

// churnKept mirrors applyChurnKept but keeps each entity's pinned
// codes on every appended row.
func (h *staticHarness) churnKept(removals, adds map[int32]int, births int) (touched map[int32]bool, kept map[int32]int32) {
	er := h.er
	oldLen := make(map[int32]int, len(er.rows))
	for e, rows := range er.rows {
		oldLen[e] = len(rows)
	}
	touched = make(map[int32]bool)
	for e, k := range removals {
		if k > len(er.rows[e]) {
			k = len(er.rows[e])
		}
		er.rows[e] = er.rows[e][:len(er.rows[e])-k]
		touched[e] = true
	}
	for e, k := range adds {
		for i := 0; i < k; i++ {
			er.rows[e] = append(er.rows[e], h.row(e))
		}
		touched[e] = true
	}
	next := er.order[len(er.order)-1] + 1
	for i := 0; i < births; i++ {
		e := next + int32(i)
		h.assign(e)
		n := 1 + h.rng.Intn(4)
		for j := 0; j < n; j++ {
			er.rows[e] = append(er.rows[e], h.row(e))
		}
		er.order = append(er.order, e)
		touched[e] = true
	}
	kept = make(map[int32]int32, len(touched))
	for e := range touched {
		k := oldLen[e]
		if r, ok := removals[e]; ok {
			if r > k {
				r = k
			}
			k -= r
		}
		kept[e] = int32(k)
	}
	return touched, kept
}

// demoted reports whether the view gave up its static factoring: a
// demoted view is not flat and factors no attribute out.
func demoted(v *MarginalView) bool {
	return !v.flat && len(v.staticIdx) == 0
}

// patchStep merges the successor index of one churn step from curIx,
// applies it to every view through one shared frame, as the publisher
// does, and closes each patched truth against BuildIndex+Compute and
// the reference engine. It returns the successor index and each view's
// stats.
func patchStep(t *testing.T, er *entityRows, curIx *Index, views []*MarginalView, touched map[int32]bool, kept map[int32]int32, label string) (*Index, []PatchStats) {
	t.Helper()
	next := er.table()
	ids, sizes := er.touchedSets(touched)
	merged, err := MergeIndex(curIx, next, ids, sizes)
	if err != nil {
		t.Fatalf("%s: MergeIndex: %v", label, err)
	}
	f, err := NewPatchFrame(curIx, merged, ids, keptSlice(ids, kept))
	if err != nil {
		t.Fatalf("%s: NewPatchFrame: %v", label, err)
	}
	rebuilt := BuildIndex(next)
	stats := make([]PatchStats, len(views))
	for k, v := range views {
		m, st, err := v.ApplyFrame(f)
		if err != nil {
			t.Fatalf("%s: ApplyFrame(%v): %v", label, v.Query().AttrNames(), err)
		}
		marginalsEqual(t, m, rebuilt.Compute(v.Query()), label+"/patched-vs-cold")
		marginalsEqual(t, m, ComputeReference(next, v.Query()), label+"/patched-vs-reference")
		stats[k] = st
	}
	return merged, stats
}

// TestPatchFlatChainedEpochs replays 8 epochs of constant-preserving
// churn through views over establishment-constant attributes,
// scripting one establishment through the full lifecycle: death at
// epoch 2, two dormant quarters, and rebirth at epoch 5 in a different
// place — the reborn group must land in its new cell, not the stale
// one, and must not demote any view. Every epoch closes the
// differential against a cold rebuild for flat, factored, and fully
// dynamic views alike.
func TestPatchFlatChainedEpochs(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	h := newStaticHarness(rng, 40, 6)
	curIx := h.er.table().Index()
	s := h.er.schema
	qs := []*Query{
		MustNewQuery(s, "place"),
		MustNewQuery(s, "place", "industry"),
		MustNewQuery(s, "place", "sex"),
		MustNewQuery(s, "sex"),
	}
	views := make([]*MarginalView, len(qs))
	for k, q := range qs {
		v, err := NewMarginalView(curIx, q)
		if err != nil {
			t.Fatalf("NewMarginalView(%v): %v", q.AttrNames(), err)
		}
		views[k] = v
	}
	if !views[0].flat || !views[1].flat {
		t.Fatal("views over establishment-constant attributes should build flat")
	}
	if views[2].flat || views[3].flat {
		t.Fatal("views touching a worker attribute must not build flat")
	}
	if len(views[2].staticIdx) == 0 {
		t.Fatal("mixed view should factor out its establishment-constant attribute")
	}

	victim := h.er.order[3]
	for epoch := 1; epoch <= 8; epoch++ {
		removals := make(map[int32]int)
		adds := make(map[int32]int)
		for _, e := range h.er.order {
			if e == victim || len(h.er.rows[e]) == 0 {
				continue
			}
			switch rng.Intn(6) {
			case 0:
				removals[e] = 1 + rng.Intn(len(h.er.rows[e]))
			case 1:
				adds[e] = 1 + rng.Intn(3)
			}
		}
		switch epoch {
		case 2:
			removals[victim] = len(h.er.rows[victim]) // full death
		case 5:
			h.assign(victim) // reborn elsewhere
			adds[victim] = 3
		}
		touched, kept := h.churnKept(removals, adds, rng.Intn(3))
		next := h.er.table()
		ids, sizes := h.er.touchedSets(touched)
		merged, err := MergeIndex(curIx, next, ids, sizes)
		if err != nil {
			t.Fatalf("epoch %d: MergeIndex: %v", epoch, err)
		}
		rebuilt := BuildIndex(next)
		kp := keptSlice(ids, kept)
		for k, v := range views {
			m, _, err := applyPatch(v, curIx, merged, ids, kp)
			if err != nil {
				t.Fatalf("epoch %d: Apply(%v): %v", epoch, qs[k].AttrNames(), err)
			}
			marginalsEqual(t, m, rebuilt.Compute(qs[k]), "flat-chained")
		}
		for k, v := range views[:3] { // the views that factor
			if demoted(v) {
				t.Fatalf("epoch %d: constant-preserving churn demoted view %v", epoch, qs[k].AttrNames())
			}
		}
		curIx = merged
	}
}

// TestPatchConstancyDemotion breaks an attribute's group-constancy
// mid-life: a surviving establishment's appended rows land in a
// different place than its base rows. The kernel must not fail — every
// view whose static set holds place is demoted as a whole: the flat
// views stop running flat and the factored view stops factoring — and
// the patched truths must stay bit-identical through the violating
// delta and through ordinary churn after it.
func TestPatchConstancyDemotion(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	h := newStaticHarness(rng, 30, 5)
	curIx := h.er.table().Index()
	s := h.er.schema
	qs := []*Query{
		MustNewQuery(s, "place"),
		MustNewQuery(s, "place", "industry"),
		MustNewQuery(s, "place", "sex"),
	}
	views := make([]*MarginalView, len(qs))
	for k, q := range qs {
		v, err := NewMarginalView(curIx, q)
		if err != nil {
			t.Fatalf("NewMarginalView(%v): %v", q.AttrNames(), err)
		}
		views[k] = v
	}
	if !views[0].flat || !views[1].flat {
		t.Fatal("establishment-attribute views should build flat")
	}
	if views[2].flat || len(views[2].staticIdx) == 0 {
		t.Fatal("the place × sex view should build factored, not flat")
	}

	// Epoch 1: the violator keeps its base rows and gains rows pinned to
	// a different place.
	violator := h.er.order[7]
	f := h.fixed[violator]
	h.fixed[violator] = [2]int{(f[0] + 1) % s.Attr(0).Size(), f[1]}
	touched, kept := h.churnKept(nil, map[int32]int{violator: 2}, 0)
	curIx, _ = patchStep(t, h.er, curIx, views, touched, kept, "demotion-epoch")
	for k, v := range views {
		if !demoted(v) {
			t.Fatalf("view %v still factors after a constancy violation", qs[k].AttrNames())
		}
	}

	// Epoch 2: ordinary churn on top — the demoted views must keep
	// patching exactly, the violator's mixed group included.
	removals := map[int32]int{violator: 1}
	adds := map[int32]int{violator: 2}
	for _, e := range h.er.order {
		if e == violator || len(h.er.rows[e]) == 0 {
			continue
		}
		switch rng.Intn(4) {
		case 0:
			removals[e] = 1 + rng.Intn(len(h.er.rows[e]))
		case 1:
			adds[e] = 1 + rng.Intn(2)
		}
	}
	touched, kept = h.churnKept(removals, adds, 1)
	patchStep(t, h.er, curIx, views, touched, kept, "post-demotion")
}

// dethronePopulation builds the targeted rescan's trigger on an
// establishment-constant layout. In shelbyville (place 1), eight
// giants of twenty rows each, alternating M and F, lead every cell
// they reach over twelve one-row M establishments, so the M cells'
// windows hold exactly the giants above a floor of 1. Ten two-row
// establishments (one M row, one F row) fill the other two places, so
// the rescan's static-key filter has groups to skip. Entities 0–9 are
// the fillers, 10–17 the giants, 18–29 the one-row establishments.
func dethronePopulation() *entityRows {
	er := &entityRows{schema: testSchema(), rows: make(map[int32][][]int)}
	add := func(place, n int, sexOf func(i int) int) {
		e := int32(len(er.order))
		for i := 0; i < n; i++ {
			er.rows[e] = append(er.rows[e], []int{place, 0, sexOf(i)})
		}
		er.order = append(er.order, e)
	}
	alternate := func(i int) int { return i % 2 }
	for i := 0; i < 10; i++ {
		add(2*(i%2), 2, alternate)
	}
	for i := 0; i < 8; i++ {
		add(1, 20, alternate)
	}
	for i := 0; i < 12; i++ {
		add(1, 1, func(int) int { return 0 })
	}
	return er
}

// dethroneViews builds a flat (place), a factored (place × sex) and a
// fully dynamic (sex) view over the index.
func dethroneViews(t *testing.T, ix *Index, s *Schema) []*MarginalView {
	t.Helper()
	var views []*MarginalView
	for _, attrs := range [][]string{{"place"}, {"place", "sex"}, {"sex"}} {
		v, err := NewMarginalView(ix, MustNewQuery(s, attrs...))
		if err != nil {
			t.Fatalf("NewMarginalView(%v): %v", attrs, err)
		}
		views = append(views, v)
	}
	if !views[0].flat || views[1].flat || len(views[1].staticIdx) != 1 || len(views[2].staticIdx) != 0 {
		t.Fatal("dethrone views did not build flat, factored and dynamic")
	}
	return views
}

// dethrone kills seven of the eight giants in one delta: every cell
// they led keeps one tracked contributor above an untracked cohort, so
// each view must rebuild its top two by the targeted rescan.
func dethrone(t *testing.T, er *entityRows, curIx *Index, views []*MarginalView, label string) {
	t.Helper()
	removals := make(map[int32]int)
	for e := int32(10); e < 17; e++ {
		removals[e] = len(er.rows[e])
	}
	touched, kept := applyChurnKept(er, rand.New(rand.NewSource(93)), removals, nil, 0)
	_, stats := patchStep(t, er, curIx, views, touched, kept, label)
	for k, st := range stats {
		if st.RescanCells == 0 {
			t.Fatalf("%s: view %v dethroned its top two without a targeted rescan", label, views[k].Query().AttrNames())
		}
	}
}

// TestPatchFallbackFactored runs the targeted rescan with the static
// filter on: the factored place × sex view skips every group outside
// shelbyville, and the flat place view folds each group whole.
func TestPatchFallbackFactored(t *testing.T) {
	er := dethronePopulation()
	ix := er.table().Index()
	views := dethroneViews(t, ix, er.schema)
	dethrone(t, er, ix, views, "fallback-factored")
	if !views[0].flat || len(views[1].staticIdx) != 1 {
		t.Fatal("constant-preserving deaths demoted a view")
	}
}

// TestPatchFallbackDemoted runs the same rescan after a constancy
// violation has demoted the place views, so the static filter is off
// and the rescan folds every group, the violator's mixed one included.
func TestPatchFallbackDemoted(t *testing.T) {
	er := dethronePopulation()
	ix := er.table().Index()
	views := dethroneViews(t, ix, er.schema)
	// A springfield filler gains two ogdenville rows.
	er.rows[0] = append(er.rows[0], []int{2, 0, 0}, []int{2, 0, 1})
	ix, _ = patchStep(t, er, ix, views, map[int32]bool{0: true}, map[int32]int32{0: 2}, "violation")
	if !demoted(views[0]) || !demoted(views[1]) {
		t.Fatal("a constancy violation left a place view factoring")
	}
	dethrone(t, er, ix, views, "fallback-demoted")
}
