package table

import (
	"math/rand"
	"testing"
)

// Differential tests of the incremental view-maintenance kernel: a
// MarginalView patched through ApplyFrame must stay bit-identical to a
// cold BuildIndex + rescan of the successor table, on every statistic,
// for every delta shape the quarterly pipeline produces — pure adds,
// death-heavy, mixed churn, and long chained sequences. The test
// schema is tiny (12 cells) against 40–120 establishments, so nearly
// every cell has more contributors than the tracked window holds: the
// floor bound and the targeted-rescan fallback are on the hot path
// here, not edge cases.

// applyChurnKept runs entityRows.applyChurn and additionally reports
// the kept-prefix counts the patch kernel consumes: for each touched
// establishment, how many of its base rows survive verbatim as the
// prefix of its successor group (0 for births and deaths).
func applyChurnKept(er *entityRows, rng *rand.Rand, removals, adds map[int32]int, births int) (touched map[int32]bool, kept map[int32]int32) {
	oldLen := make(map[int32]int, len(er.rows))
	for e, rows := range er.rows {
		oldLen[e] = len(rows)
	}
	touched = er.applyChurn(rng, removals, adds, births)
	kept = make(map[int32]int32, len(touched))
	for e := range touched {
		k := oldLen[e] // zero for births
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

// keptSlice aligns the kept map with the ascending touched id list.
func keptSlice(ids []int32, kept map[int32]int32) []int32 {
	out := make([]int32, len(ids))
	for i, e := range ids {
		out[i] = kept[e]
	}
	return out
}

// applyPatch builds one delta's frame and applies it to the view — the
// one-view form of the publisher's shared-frame advance.
func applyPatch(v *MarginalView, base, next *Index, touched, kept []int32) (*Marginal, PatchStats, error) {
	f, err := NewPatchFrame(base, next, touched, kept)
	if err != nil {
		return nil, PatchStats{}, err
	}
	return v.ApplyFrame(f)
}

func patchQueries(s *Schema) []*Query {
	return []*Query{
		MustNewQuery(s),
		MustNewQuery(s, "place"),
		MustNewQuery(s, "sex"),
		MustNewQuery(s, "place", "industry"),
		MustNewQuery(s, "industry", "place", "sex"),
	}
}

// checkPatchDifferential drives one (base, delta) pair through the
// view kernel and pins every query's patched truth against the cold
// rebuild and the scalar reference engine. It returns each view's
// PatchStats, in patchQueries order.
func checkPatchDifferential(t *testing.T, er *entityRows, mutate func() (map[int32]bool, map[int32]int32), label string) []PatchStats {
	t.Helper()
	base := er.table()
	baseIx := base.Index()
	qs := patchQueries(er.schema)
	views := make([]*MarginalView, len(qs))
	for k, q := range qs {
		v, err := NewMarginalView(baseIx, q)
		if err != nil {
			t.Fatalf("%s: NewMarginalView: %v", label, err)
		}
		marginalsEqual(t, v.Marginal(), baseIx.Compute(q), label+"/view-build")
		views[k] = v
	}

	touchedSet, kept := mutate()
	next := er.table()
	ids, sizes := er.touchedSets(touchedSet)
	merged, err := MergeIndex(baseIx, next, ids, sizes)
	if err != nil {
		t.Fatalf("%s: MergeIndex: %v", label, err)
	}
	rebuilt := BuildIndex(next)
	kp := keptSlice(ids, kept)
	stats := make([]PatchStats, len(views))
	for k, v := range views {
		m, st, err := applyPatch(v, baseIx, merged, ids, kp)
		if err != nil {
			t.Fatalf("%s: Apply(%v): %v", label, qs[k].AttrNames(), err)
		}
		marginalsEqual(t, m, rebuilt.Compute(qs[k]), label+"/patched-vs-cold")
		marginalsEqual(t, m, ComputeReference(next, qs[k]), label+"/patched-vs-reference")
		if v.Marginal() != m {
			t.Fatalf("%s: view does not carry the patched truth", label)
		}
		if st.RescanCells > st.PatchedCells {
			t.Fatalf("%s: stats claim %d rescanned of %d patched cells", label, st.RescanCells, st.PatchedCells)
		}
		stats[k] = st
		// A no-op delta on the patched view returns the same truth.
		again, st2, err := applyPatch(v, merged, merged, nil, nil)
		if err != nil {
			t.Fatalf("%s: empty Apply: %v", label, err)
		}
		if again != m || st2.ChangedPairs != 0 {
			t.Fatalf("%s: empty Apply changed the truth", label)
		}
	}
	return stats
}

func TestPatchPureAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	er := randomEntityRows(rng, 40, 8)
	checkPatchDifferential(t, er, func() (map[int32]bool, map[int32]int32) {
		adds := map[int32]int{3: 2, 7: 5, 19: 1, 39: 3}
		return applyChurnKept(er, rng, nil, adds, 4)
	}, "pure-adds")
}

func TestPatchDeathHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	er := randomEntityRows(rng, 40, 8)
	checkPatchDifferential(t, er, func() (map[int32]bool, map[int32]int32) {
		removals := make(map[int32]int)
		for _, e := range []int32{0, 5, 11, 26, 39} {
			removals[e] = len(er.rows[e]) // full death
		}
		removals[8] = 1 // plus a shrink that keeps the entity alive
		return applyChurnKept(er, rng, removals, nil, 0)
	}, "death-heavy")
}

func TestPatchMixedChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	er := randomEntityRows(rng, 60, 10)
	checkPatchDifferential(t, er, func() (map[int32]bool, map[int32]int32) {
		removals := map[int32]int{2: 1, 9: 3, 30: 2}
		for _, e := range []int32{14, 45} {
			removals[e] = len(er.rows[e]) // deaths
		}
		adds := map[int32]int{2: 4, 17: 2, 58: 1} // entity 2 churns both ways
		return applyChurnKept(er, rng, removals, adds, 3)
	}, "mixed-churn")
}

// TestPatchDethronesTopTwo: a cell dominated by two giant
// establishments loses both in one delta. The twenty one-row
// contributors below them fill the rest of each cell's top-8 window
// and tie its floor, so the new top pair resolves from the window
// alone — no view takes the targeted rescan (TestPatchFallbackFactored
// and TestPatchFallbackDemoted cover that path).
func TestPatchDethronesTopTwo(t *testing.T) {
	s := testSchema()
	codes := []int{0, 0, 0} // all rows in one cell of every query
	er := &entityRows{schema: s, rows: make(map[int32][][]int)}
	// Twenty small contributors (1 row each), then two giants.
	for e := int32(0); e < 20; e++ {
		er.rows[e] = [][]int{append([]int(nil), codes...)}
		er.order = append(er.order, e)
	}
	for _, e := range []int32{20, 21} {
		for i := 0; i < 50; i++ {
			er.rows[e] = append(er.rows[e], append([]int(nil), codes...))
		}
		er.order = append(er.order, e)
	}
	rng := rand.New(rand.NewSource(64))
	stats := checkPatchDifferential(t, er, func() (map[int32]bool, map[int32]int32) {
		removals := map[int32]int{20: 50, 21: 50} // both giants die
		return applyChurnKept(er, rng, removals, nil, 0)
	}, "dethrone-top-two")
	for k, st := range stats {
		if st.RescanCells != 0 {
			t.Fatalf("view %d rescanned %d cells; the window should resolve the new top pair", k, st.RescanCells)
		}
	}
}

// TestPatchChainedEpochs replays 8 epochs of random churn through one
// set of views, merging each index from the previous merged index and
// patching each view from its own prior truth — the exact shape the
// publisher's Advance path produces — and closes the differential at
// every step.
func TestPatchChainedEpochs(t *testing.T) {
	chainedPatchEpochs(t, rand.New(rand.NewSource(65)), 8)
}

func chainedPatchEpochs(t *testing.T, rng *rand.Rand, epochs int) {
	t.Helper()
	er := randomEntityRows(rng, 50, 6)
	cur := er.table()
	curIx := cur.Index()
	qs := patchQueries(er.schema)
	views := make([]*MarginalView, len(qs))
	for k, q := range qs {
		v, err := NewMarginalView(curIx, q)
		if err != nil {
			t.Fatalf("NewMarginalView: %v", err)
		}
		views[k] = v
	}
	for epoch := 1; epoch <= epochs; epoch++ {
		removals := make(map[int32]int)
		adds := make(map[int32]int)
		for _, e := range er.order {
			if len(er.rows[e]) == 0 {
				continue
			}
			switch rng.Intn(6) {
			case 0:
				removals[e] = 1 + rng.Intn(len(er.rows[e]))
			case 1:
				adds[e] = 1 + rng.Intn(3)
			}
		}
		touched, kept := applyChurnKept(er, rng, removals, adds, rng.Intn(3))
		next := er.table()
		ids, sizes := er.touchedSets(touched)
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
			marginalsEqual(t, m, rebuilt.Compute(qs[k]), "chained-epochs")
		}
		curIx = merged
	}
}

// TestPatchCloneIsolation pins the Clone contract: patching a clone
// must not disturb the original view, which must still patch correctly
// afterwards.
func TestPatchCloneIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	er := randomEntityRows(rng, 40, 8)
	base := er.table()
	baseIx := base.Index()
	q := MustNewQuery(er.schema, "place", "industry")
	v, err := NewMarginalView(baseIx, q)
	if err != nil {
		t.Fatalf("NewMarginalView: %v", err)
	}
	baseTruth := v.Marginal()

	removals := map[int32]int{1: 2, 12: 1}
	adds := map[int32]int{4: 3, 30: 2}
	touched, kept := applyChurnKept(er, rng, removals, adds, 2)
	next := er.table()
	ids, sizes := er.touchedSets(touched)
	merged, err := MergeIndex(baseIx, next, ids, sizes)
	if err != nil {
		t.Fatalf("MergeIndex: %v", err)
	}
	kp := keptSlice(ids, kept)

	clone := v.Clone()
	cm, _, err := applyPatch(clone, baseIx, merged, ids, kp)
	if err != nil {
		t.Fatalf("clone Apply: %v", err)
	}
	want := BuildIndex(next).Compute(q)
	marginalsEqual(t, cm, want, "clone-patched")
	if v.Marginal() != baseTruth {
		t.Fatal("patching the clone disturbed the original view's truth")
	}
	marginalsEqual(t, v.Marginal(), baseIx.Compute(q), "original-after-clone-patch")
	om, _, err := applyPatch(v, baseIx, merged, ids, kp)
	if err != nil {
		t.Fatalf("original Apply after clone: %v", err)
	}
	marginalsEqual(t, om, want, "original-patched-after-clone")
}

// TestPatchRejectsBadInputs pins the kernel's validation: malformed
// touched/kept descriptions must fail loudly, never corrupt silently.
func TestPatchRejectsBadInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	er := randomEntityRows(rng, 20, 5)
	base := er.table()
	baseIx := base.Index()
	q := MustNewQuery(er.schema, "place")
	touched, kept := applyChurnKept(er, rng, nil, map[int32]int{4: 2}, 0)
	next := er.table()
	ids, sizes := er.touchedSets(touched)
	merged, err := MergeIndex(baseIx, next, ids, sizes)
	if err != nil {
		t.Fatalf("MergeIndex: %v", err)
	}
	kp := keptSlice(ids, kept)

	fresh := func() *MarginalView {
		v, err := NewMarginalView(baseIx, q)
		if err != nil {
			t.Fatalf("NewMarginalView: %v", err)
		}
		return v
	}
	if _, _, err := applyPatch(fresh(), baseIx, merged, ids, nil); err == nil {
		t.Error("Apply accepted mismatched touched/kept lengths")
	}
	if _, _, err := applyPatch(fresh(), baseIx, merged, []int32{ids[0], ids[0]}, []int32{kp[0], kp[0]}); err == nil {
		t.Error("Apply accepted a non-ascending touched list")
	}
	if _, _, err := applyPatch(fresh(), baseIx, merged, ids, []int32{kp[0] + 100}); err == nil {
		t.Error("Apply accepted a kept count exceeding the base group")
	}
	if _, _, err := applyPatch(fresh(), baseIx, merged, ids, []int32{-1}); err == nil {
		t.Error("Apply accepted a negative kept count")
	}
}

// FuzzPatchDifferential fuzzes delta shapes over random populations:
// whatever churn the fuzzer invents, the patched truth must stay
// bit-identical to the cold rebuild for every query.
func FuzzPatchDifferential(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(6), uint8(3), uint8(4), uint8(2))
	f.Add(int64(2), uint8(60), uint8(10), uint8(20), uint8(0), uint8(0))
	f.Add(int64(3), uint8(10), uint8(3), uint8(0), uint8(12), uint8(5))
	f.Add(int64(4), uint8(90), uint8(2), uint8(40), uint8(40), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, numEnts, maxSize, nRemove, nAdd, births uint8) {
		rng := rand.New(rand.NewSource(seed))
		ents := 1 + int(numEnts)%120
		er := randomEntityRows(rng, ents, 1+int(maxSize)%10)
		removals := make(map[int32]int)
		adds := make(map[int32]int)
		for i := 0; i < int(nRemove); i++ {
			e := er.order[rng.Intn(len(er.order))]
			if len(er.rows[e]) == 0 {
				continue
			}
			removals[e] = 1 + rng.Intn(len(er.rows[e]))
		}
		for i := 0; i < int(nAdd); i++ {
			e := er.order[rng.Intn(len(er.order))]
			adds[e] = 1 + rng.Intn(4)
		}
		checkPatchDifferential(t, er, func() (map[int32]bool, map[int32]int32) {
			return applyChurnKept(er, rng, removals, adds, int(births)%6)
		}, "fuzz")
	})
}

// Query returns the query the view maintains.
func (v *MarginalView) Query() *Query { return v.q }

// Marginal returns the view's current truth. It is shared and must be
// treated as read-only.
func (v *MarginalView) Marginal() *Marginal { return v.m }
