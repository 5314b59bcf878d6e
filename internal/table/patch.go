package table

import (
	"fmt"
)

// Incremental view maintenance of marginals (DESIGN.md §13).
//
// A quarterly delta leaves every untouched establishment's rows
// byte-identical, and within a touched establishment it only removes a
// suffix of the old group and appends new rows after the kept prefix
// (lodes.Dataset.ApplyDelta's layout contract). A cached marginal can
// therefore be *patched* instead of rescanned: the only (entity, cell)
// contributions that change are those of the touched establishments,
// and each one's old and new totals are its kept prefix plus,
// respectively, its removed suffix or its appended tail. A MarginalView
// keeps only per-cell state — the marginal and each cell's tracked
// top-contributor window — and reads every per-establishment quantity
// back from the base and successor indexes, so its memory is O(cells),
// not O(rows). Maintenance costs O(rows in touched groups × dynamic
// attributes) per quarter. The touched groups hold about a fifth of the
// rows under calibrated churn and nearly all of them under full churn,
// where a rescan is as cheap and the publisher's cost gate evicts
// instead.
//
// Two structural facts keep the patch loop off the memory wall:
//
//   - The touched-establishment spans (kept prefix, removed suffix,
//     appended tail) are validated and resolved once per advance into a
//     PatchFrame, shared by every maintained view, so N cached marginals
//     pay the index walk once, not N times.
//
//   - Attributes that are constant within every establishment group —
//     place, industry, ownership in a LODES snapshot — are detected at
//     view build time and factored out of the per-row key computation:
//     the frame records each span's group-constant codes once per
//     advance, so a span's static key part costs no row reads, and rows
//     load only the remaining (dynamic) attributes. A marginal over
//     establishment attributes alone is flat: each group lands whole in
//     one cell, so a span patches in O(1) from its row counts. The
//     factoring is safe on arbitrary data: appended rows are verified
//     against the group's base values, and a violating span demotes the
//     whole view to the all-attribute path — slower, never wrong.
//
// The subtle statistic is the per-cell top-two entity contribution
// (x_v and the runner-up). The view tracks each cell's top-K
// contributors by identity with a floor invariant — every contributor
// whose value exceeds floor[c] is in the list, and every unlisted
// contributor is ≤ floor[c] — so after removing the changed entities
// and reinserting their new values, the patched top-two is exact
// whenever the candidate runner-up clears the floor. When it does not
// (the cached second place is dethroned and no tracked successor
// remains), the cell falls back to a targeted rescan: one pass over the
// successor index that folds only the fallback cells, skipping every
// group whose static key part reaches none of them.

// viewTopK is the per-cell tracked-contributor depth. Cells with at
// most viewTopK contributing establishments are tracked exhaustively
// (floor 0) and never fall back; deeper cells keep the K largest plus
// the floor bound.
const viewTopK = 8

// topEntry is one tracked contributor of a cell.
type topEntry struct {
	ent int32
	val int32
}

// PatchStats reports one ApplyFrame's work profile.
type PatchStats struct {
	// TouchedEntities is the number of delta-touched establishments
	// examined (including births and deaths).
	TouchedEntities int
	// ChangedPairs is the number of (establishment, cell) contributions
	// that actually changed.
	ChangedPairs int
	// PatchedCells is the number of distinct cells whose statistics were
	// patched.
	PatchedCells int
	// RescanCells is the number of patched cells whose top-two had to be
	// rebuilt by the targeted fallback rescan.
	RescanCells int
}

// PatchFrame is one advance's validated patch descriptor: per touched
// establishment, the kept base prefix, the removed base suffix and the
// appended successor tail resolved to index row spans. It is built once
// per advance (NewPatchFrame) and shared by every maintained view's
// ApplyFrame, so the touched-set walk and its validation are paid once,
// not once per cached marginal.
type PatchFrame struct {
	base, next *Index
	spans      []patchSpan
	// verified is the set of schema attributes whose group-constancy has
	// been folded into the spans' constMask bits and whose group codes
	// are recorded in codes. Verification is lazy — ApplyFrame demands
	// exactly the attributes its view factored out as static — so
	// attributes no maintained view treats as group-constant (the worker
	// attributes, in practice) are never re-read at all. A frame is
	// therefore mutable and NOT safe for concurrent ApplyFrame calls; the
	// publisher serializes them under its advance lock.
	verified uint32
	// codes[a][i] is verified schema attribute a's value on span i's
	// group: the base group's first row, or a newborn's first appended
	// row.
	codes [][]uint16
	// changes is the change-set scratch every ApplyFrame reuses. It
	// grows with the touched (establishment, cell) pairs, so it lives
	// with the advance, not in any view.
	changes []viewChange
}

// patchSpan is one touched establishment's row movement.
type patchSpan struct {
	ent              int32
	newEnt           bool   // no group in base (birth, or a re-staffed empty establishment)
	bRef             int32  // first row of the base group (the kept prefix is [bRef, bTailLo)), -1 when newEnt
	bTailLo, bTailHi int32  // removed base rows [lo, hi)
	nTailLo, nTailHi int32  // appended successor rows [lo, hi)
	constMask        uint32 // schema attrs constant across the appended tail (and matching the base group)
}

// NewPatchFrame resolves and validates one advance's touched set
// against the base index and its MergeIndex successor: touched must be
// strictly ascending, and kept[i] — the number of touched[i]'s base
// rows surviving verbatim as its successor group's prefix, per
// lodes.Dataset.ApplyDelta's layout contract (Delta.TouchedKept reports
// it) — must be consistent with both indexes' group extents.
func NewPatchFrame(base, next *Index, touched, kept []int32) (*PatchFrame, error) {
	if len(touched) != len(kept) {
		return nil, fmt.Errorf("table: patch frame got %d touched entities but %d kept counts", len(touched), len(kept))
	}
	f := &PatchFrame{base: base, next: next, spans: make([]patchSpan, 0, len(touched))}
	bg, ng := 0, 0
	for i, e := range touched {
		if i > 0 && touched[i-1] >= e {
			return nil, fmt.Errorf("table: patch frame touched entities not strictly ascending at %d", i)
		}
		for bg < len(base.entities) && base.entities[bg] < e {
			bg++
		}
		for ng < len(next.entities) && next.entities[ng] < e {
			ng++
		}
		baseHas := bg < len(base.entities) && base.entities[bg] == e
		nextHas := ng < len(next.entities) && next.entities[ng] == e
		k := int(kept[i])
		if k < 0 {
			return nil, fmt.Errorf("table: patch frame negative kept count for entity %d", e)
		}
		sp := patchSpan{ent: e, newEnt: !baseHas, bRef: -1}
		if baseHas {
			blo, bhi := int(base.starts[bg]), int(base.starts[bg+1])
			if k > bhi-blo {
				return nil, fmt.Errorf("table: patch frame kept %d exceeds entity %d's %d base rows", k, e, bhi-blo)
			}
			sp.bRef = int32(blo)
			sp.bTailLo, sp.bTailHi = int32(blo+k), int32(bhi)
		} else if k != 0 {
			return nil, fmt.Errorf("table: patch frame kept %d for newborn entity %d", k, e)
		}
		if nextHas {
			nlo, nhi := int(next.starts[ng]), int(next.starts[ng+1])
			if k > nhi-nlo {
				return nil, fmt.Errorf("table: patch frame kept %d exceeds entity %d's %d successor rows", k, e, nhi-nlo)
			}
			sp.nTailLo, sp.nTailHi = int32(nlo+k), int32(nhi)
		} else if baseHas && k != 0 {
			return nil, fmt.Errorf("table: patch frame kept %d for removed entity %d", k, e)
		}
		f.spans = append(f.spans, sp)
	}

	return f, nil
}

// ensureVerified verifies group-constancy of the requested schema
// attributes over each span's appended tail, once per attribute for
// all views sharing the frame, and records each span's group code for
// them: bit a of a span's constMask reports that attribute a is
// constant across the appended rows and (for an existing group) matches
// the group's base value. ApplyFrame requests exactly its view's static
// set, so each attribute's tail columns are read at most once per
// advance no matter how many views share the frame — and attributes no
// view factored out are never read.
func (f *PatchFrame) ensureVerified(mask uint32) {
	mask &^= f.verified
	if mask == 0 {
		return
	}
	nAttrs := f.base.t.Schema().NumAttrs()
	if f.codes == nil {
		f.codes = make([][]uint16, nAttrs)
	}
	for a := 0; a < nAttrs; a++ {
		bit := uint32(1) << uint(a)
		if mask&bit == 0 {
			continue
		}
		bcol, ncol := f.base.col(a), f.next.col(a)
		codes := make([]uint16, len(f.spans))
		for si := range f.spans {
			sp := &f.spans[si]
			lo, hi := sp.nTailLo, sp.nTailHi
			var ref uint16
			switch {
			case !sp.newEnt:
				ref = bcol[sp.bRef]
			case lo < hi:
				ref = ncol[lo]
				lo++
			}
			codes[si] = ref
			ok := true
			for p := lo; p < hi; p++ {
				if ncol[p] != ref {
					ok = false
					break
				}
			}
			if ok {
				sp.constMask |= bit
			}
		}
		f.codes[a] = codes
	}
	f.verified |= mask
}

// MarginalView is a maintainable materialization of one query's truth:
// the marginal itself plus the per-cell top-K contributor tracking that
// lets ApplyFrame patch the truth under a quarterly delta without
// rescanning the table. Its state is O(cells): nothing is kept per
// establishment.
//
// A view is single-writer: ApplyFrame (and the scratch it reuses) must
// be externally serialized — the publisher calls it under its advance
// lock. The Marginal it returns is freshly allocated and immutable;
// readers of a previously returned Marginal are never affected by later
// applies. If ApplyFrame returns an error the view is inconsistent and
// must be discarded.
type MarginalView struct {
	q *Query
	m *Marginal

	// flat marks the all-static specialization: every query attribute is
	// group-constant (dynIdx empty — every marginal over establishment
	// attributes alone), so each establishment contributes its whole
	// group to the one cell its static key names, and a span patches
	// that cell in O(1) from its row counts.
	flat bool

	// Group-constant attribute factoring. weights[j] is query attr j's
	// mixed-radix weight (cell key = Σ col[j][row]·weights[j]).
	// staticIdx lists the attr positions found constant within every
	// group at build time, dynIdx the rest. A span that breaks a static
	// attribute's constancy demotes the view (demote): nothing stays
	// static, and every row loads every attribute from then on.
	weights    []int32
	staticIdx  []int32
	dynIdx     []int32
	staticMask uint32 // schema-attr bits of staticIdx, checked against a span's constMask

	// top is the flattened per-cell tracked-contributor window
	// (top[c*viewTopK : c*viewTopK+topLen[c]]), ordered by value
	// descending then entity ascending. floor[c] bounds every unlisted
	// contributor.
	top    []topEntry
	topLen []uint8
	floor  []int32

	// Reusable scratch (see the single-writer contract above).
	outCnt   []int32 // per-cell removed-suffix row counts of the span in hand; the group fold's scatter array
	inCnt    []int32 // per-cell appended-tail row counts
	preCnt   []int32 // per-cell kept-prefix row counts at the cells the span changed
	cellHead []int32 // per-cell head into chain, -1 when cell unseen
	fbMark   []uint8 // per-cell fbCell / fbStatic marks
	keysBuf  []int32
	fbBuf    []int32
}

// fbMark values. fbCell marks a cell the span in hand changed, or a
// cell foldGroups rebuilds; fbStatic marks a static key part some
// rebuilt cell carries. foldMarked relies on fbCell being 1.
const (
	fbCell uint8 = 1 << iota
	fbStatic
)

// viewChange is one changed (establishment, cell) contribution.
type viewChange struct {
	cell int32
	ent  int32
	o, n int32 // old and new total contribution
	next int32 // next change of the same cell (chain), -1 at the end
}

// newEmptyMarginal allocates an all-zero marginal for q.
func newEmptyMarginal(q *Query) *Marginal {
	return &Marginal{
		Query:                    q,
		Counts:                   make([]int64, q.size),
		MaxEntityContribution:    make([]int64, q.size),
		SecondEntityContribution: make([]int64, q.size),
		EntityCount:              make([]int64, q.size),
	}
}

// cloneMarginal copies a marginal's vectors (the query is shared).
// Each vector is cloned with append rather than make+copy: growslice
// skips zeroing for pointer-free element types, so the copy is the
// only pass over the memory.
func cloneMarginal(m *Marginal) *Marginal {
	return &Marginal{
		Query:                    m.Query,
		Counts:                   append([]int64(nil), m.Counts...),
		MaxEntityContribution:    append([]int64(nil), m.MaxEntityContribution...),
		SecondEntityContribution: append([]int64(nil), m.SecondEntityContribution...),
		EntityCount:              append([]int64(nil), m.EntityCount...),
	}
}

// insertTop inserts (ent, val) into cell c's tracked window, keeping it
// ordered by value descending then entity ascending, and folds any
// displaced value into floor[c]. val must be positive and ent must not
// already be present.
func (v *MarginalView) insertTop(c int, ent, val int32) {
	base := c * viewTopK
	ln := int(v.topLen[c])
	pos := ln
	for pos > 0 {
		prev := v.top[base+pos-1]
		if prev.val > val || (prev.val == val && prev.ent < ent) {
			break
		}
		pos--
	}
	if pos == viewTopK {
		// Does not make the window: it becomes an unlisted contributor.
		if val > v.floor[c] {
			v.floor[c] = val
		}
		return
	}
	if ln == viewTopK {
		evicted := v.top[base+ln-1]
		if evicted.val > v.floor[c] {
			v.floor[c] = evicted.val
		}
		ln--
	}
	copy(v.top[base+pos+1:base+ln+1], v.top[base+pos:base+ln])
	v.top[base+pos] = topEntry{ent: ent, val: val}
	v.topLen[c] = uint8(ln + 1)
}

// NewMarginalView materializes the query over the index together with
// the maintenance structures. The resulting Marginal is bit-identical
// to ix.Compute(q). The index must be entity-complete (no entity-less
// rows), as every lodes epoch snapshot is.
func NewMarginalView(ix *Index, q *Query) (*MarginalView, error) {
	if ix.t.Schema() != q.schema {
		return nil, fmt.Errorf("table: view query compiled against a different schema")
	}
	ng := ix.NumGroups()
	if ng > 0 && ix.entities[ng-1] < 0 {
		return nil, fmt.Errorf("table: marginal views require an entity-complete table")
	}
	size := q.size
	nAttrs := len(q.attrs)
	v := &MarginalView{
		q:       q,
		m:       newEmptyMarginal(q),
		weights: make([]int32, nAttrs),
		top:     make([]topEntry, size*viewTopK),
		topLen:  make([]uint8, size),
		floor:   make([]int32, size),
	}
	v.initScratch()
	acc := int32(1)
	for j := nAttrs - 1; j >= 0; j-- {
		v.weights[j] = acc
		acc *= int32(q.radices[j])
	}
	cols := queryCols(ix, q)

	// Detect group-constant attributes: one sequential pass per attr,
	// bailing at the first group whose rows disagree. On LODES data the
	// establishment attributes (place, industry, ownership) pass; worker
	// attributes bail within the first few groups.
	for j := 0; j < nAttrs; j++ {
		if groupConstant(cols[j], ix, ng) {
			v.staticIdx = append(v.staticIdx, int32(j))
			v.staticMask |= uint32(1) << uint(q.attrs[j])
		} else {
			v.dynIdx = append(v.dynIdx, int32(j))
		}
	}
	v.flat = len(v.dynIdx) == 0

	// Build is the group fold with every cell and static key marked.
	for c := range v.fbMark {
		v.fbMark[c] = fbCell | fbStatic
	}
	v.foldGroups(ix, cols, v.m)
	for c := range v.fbMark {
		v.fbMark[c] = 0
		v.settle(v.m, c)
	}
	return v, nil
}

// initScratch allocates the view's per-cell scratch.
func (v *MarginalView) initScratch() {
	size := v.q.size
	v.outCnt = make([]int32, size)
	v.inCnt = make([]int32, size)
	v.preCnt = make([]int32, size)
	v.cellHead = make([]int32, size)
	for i := range v.cellHead {
		v.cellHead[i] = -1
	}
	v.fbMark = make([]uint8, size)
}

// groupConstant reports whether the column is constant within every
// entity group of the index.
func groupConstant(col []uint16, ix *Index, ng int) bool {
	for g := 0; g < ng; g++ {
		lo, hi := int(ix.starts[g]), int(ix.starts[g+1])
		if lo >= hi {
			continue
		}
		v0 := col[lo]
		for p := lo + 1; p < hi; p++ {
			if col[p] != v0 {
				return false
			}
		}
	}
	return true
}

// Flat reports whether the view runs the all-static specialization:
// every query attribute is establishment-constant, so applying a span
// is O(1) regardless of how many rows moved. Flat
// views stay worth patching at any churn level; the publisher's
// patch-versus-evict cost gate consults this.
func (v *MarginalView) Flat() bool { return v.flat }

// demote turns the static factoring off for good: a span broke a
// static attribute's constancy, so no attribute can be trusted to be
// group-constant any more. A flat view becomes a generic one.
func (v *MarginalView) demote() {
	v.flat = false
	v.staticIdx = nil
	v.staticMask = 0
	v.dynIdx = nil
	for j := range v.q.attrs {
		v.dynIdx = append(v.dynIdx, int32(j))
	}
}

// Clone returns a fully independent view at the same state — the
// Marginal pointer is shared (it is immutable), the per-cell windows
// are copied and the scratch is fresh. Benchmarks and the differential
// suites use it to reset a view between chain replays; the publisher
// clones nothing.
func (v *MarginalView) Clone() *MarginalView {
	c := &MarginalView{
		q:          v.q,
		m:          v.m,
		flat:       v.flat,
		weights:    v.weights,
		staticIdx:  v.staticIdx,
		dynIdx:     v.dynIdx,
		staticMask: v.staticMask,
		top:        append([]topEntry(nil), v.top...),
		topLen:     append([]uint8(nil), v.topLen...),
		floor:      append([]int32(nil), v.floor...),
	}
	c.initScratch()
	return c
}

// ApplyFrame patches the view's truth from the frame's base epoch to
// its successor: the frame's base must be the index the view currently
// reflects, next its MergeIndex successor. It returns the successor
// epoch's truth, bit-identical to next.Compute(q), as a fresh
// allocation; the view then reflects next.
//
// On error the view is left inconsistent and must be discarded (the
// caller falls back to evict-and-rescan).
func (v *MarginalView) ApplyFrame(f *PatchFrame) (*Marginal, PatchStats, error) {
	var st PatchStats
	q := v.q
	if f.base.t.Schema() != q.schema || f.next.t.Schema() != q.schema {
		return nil, st, fmt.Errorf("table: ApplyFrame across a different schema")
	}
	st.TouchedEntities = len(f.spans)
	if len(f.spans) == 0 {
		return v.m, st, nil
	}
	f.ensureVerified(v.staticMask)
	baseCols := queryCols(f.base, q)
	nextCols := queryCols(f.next, q)

	changes := f.changes[:0]
	for si := range f.spans {
		sp := &f.spans[si]
		if sp.constMask&v.staticMask != v.staticMask {
			v.demote()
		}
		sv := int32(0)
		for _, j := range v.staticIdx {
			sv += int32(f.codes[q.attrs[j]][si]) * v.weights[j]
		}
		if v.flat {
			changes = flatSpan(sp, sv, changes)
		} else {
			changes = v.foldSpan(sp, sv, baseCols, nextCols, changes)
		}
	}
	f.changes = changes[:0]
	st.ChangedPairs = len(changes)
	if len(changes) == 0 {
		return v.m, st, nil
	}

	// Commit: patch the marginal, maintain the per-cell windows,
	// targeted-rescan what is left.
	newM := cloneMarginal(v.m)
	affected := v.keysBuf[:0]
	for ci := range changes {
		c := changes[ci].cell
		if v.cellHead[c] == -1 {
			affected = append(affected, c)
		}
		changes[ci].next = v.cellHead[c]
		v.cellHead[c] = int32(ci)
	}
	v.keysBuf = affected

	fallback := v.fbBuf[:0]
	for _, c := range affected {
		st.PatchedCells++
		rescan, err := v.patchCell(newM, int(c), changes)
		if err != nil {
			return nil, st, err
		}
		if rescan {
			fallback = append(fallback, c)
		}
		v.cellHead[c] = -1
	}
	v.fbBuf = fallback[:0]
	if len(fallback) > 0 {
		st.RescanCells = len(fallback)
		v.rescanCells(fallback, newM, f.next, nextCols)
	}
	v.m = newM
	return newM, st, nil
}

// flatSpan is the span pass of a flat view: the establishment's whole
// base group leaves its one cell and its whole successor group joins
// it, so the change is the group lengths, read off the span in O(1).
func flatSpan(sp *patchSpan, sv int32, changes []viewChange) []viewChange {
	out := sp.bTailHi - sp.bTailLo
	in := sp.nTailHi - sp.nTailLo
	if out == in {
		return changes
	}
	o := int32(0)
	if !sp.newEnt {
		o = sp.bTailHi - sp.bRef
	}
	return append(changes, viewChange{cell: sv, ent: sp.ent, o: o, n: o - out + in})
}

// foldSpan is the span pass of a view with dynamic attributes: the
// removed suffix folds into outCnt and the appended tail into inCnt,
// keyed by the dynamic columns plus the span's static key part. Only if
// some cell's counts differ does the kept prefix fold into preCnt, and
// only at those cells; the establishment's old and new totals there are
// pre + out and pre + in. A newborn has no prefix and a death an empty
// one.
func (v *MarginalView) foldSpan(sp *patchSpan, sv int32, baseCols, nextCols [][]uint16, changes []viewChange) []viewChange {
	keys := v.foldTail(baseCols, int(sp.bTailLo), int(sp.bTailHi), sv, v.outCnt, v.inCnt, v.keysBuf[:0])
	keys = v.foldTail(nextCols, int(sp.nTailLo), int(sp.nTailHi), sv, v.inCnt, v.outCnt, keys)
	v.keysBuf = keys
	changed := false
	for _, key := range keys {
		if v.outCnt[key] != v.inCnt[key] {
			v.fbMark[key] = fbCell
			changed = true
		}
	}
	if changed && !sp.newEnt {
		v.foldMarked(baseCols, int(sp.bRef), int(sp.bTailLo), sv)
	}
	for _, key := range keys {
		out, in := v.outCnt[key], v.inCnt[key]
		v.outCnt[key], v.inCnt[key] = 0, 0
		if out != in {
			p := v.preCnt[key]
			v.preCnt[key], v.fbMark[key] = 0, 0
			changes = append(changes, viewChange{cell: key, ent: sp.ent, o: p + out, n: p + in})
		}
	}
	return changes
}

// foldMarked counts the rows [lo, hi) into preCnt at the fbCell-marked
// cells only, loading the dynamic attributes. fbCell is 1, so adding
// the mark counts exactly the marked cells' rows without a branch.
func (v *MarginalView) foldMarked(cols [][]uint16, lo, hi int, sv int32) {
	idxs, mark, pre := v.dynIdx, v.fbMark, v.preCnt
	switch len(idxs) {
	case 1:
		w0 := v.weights[idxs[0]]
		for _, c0 := range cols[idxs[0]][lo:hi] {
			key := sv + int32(c0)*w0
			pre[key] += int32(mark[key])
		}
	case 2:
		w0, w1 := v.weights[idxs[0]], v.weights[idxs[1]]
		c0, c1 := cols[idxs[0]][lo:hi], cols[idxs[1]][lo:hi]
		for i := range c0 {
			key := sv + int32(c0[i])*w0 + int32(c1[i])*w1
			pre[key] += int32(mark[key])
		}
	default:
		for p := lo; p < hi; p++ {
			key := sv
			for _, j := range idxs {
				key += int32(cols[j][p]) * v.weights[j]
			}
			pre[key] += int32(mark[key])
		}
	}
}

// foldTail accumulates the cell keys of rows [lo, hi) into tgt,
// appending each key's first touch (in either scratch array) to keys.
// Only the dynamic attributes are loaded per row; sv carries the
// group-constant part of the key. A flat view's body folds the whole
// span into one cell without touching a column — the O(1)-per-group
// path for marginals over establishment attributes alone.
func (v *MarginalView) foldTail(cols [][]uint16, lo, hi int, sv int32, tgt, other []int32, keys []int32) []int32 {
	if lo >= hi {
		return keys
	}
	idxs := v.dynIdx
	switch len(idxs) {
	case 0:
		if tgt[sv] == 0 && other[sv] == 0 {
			keys = append(keys, sv)
		}
		tgt[sv] += int32(hi - lo)
	case 1:
		w0 := v.weights[idxs[0]]
		c0 := cols[idxs[0]][lo:hi]
		for i := range c0 {
			key := sv + int32(c0[i])*w0
			if tgt[key] == 0 && other[key] == 0 {
				keys = append(keys, key)
			}
			tgt[key]++
		}
	case 2:
		w0, w1 := v.weights[idxs[0]], v.weights[idxs[1]]
		c0, c1 := cols[idxs[0]][lo:hi], cols[idxs[1]][lo:hi]
		for i := range c0 {
			key := sv + int32(c0[i])*w0 + int32(c1[i])*w1
			if tgt[key] == 0 && other[key] == 0 {
				keys = append(keys, key)
			}
			tgt[key]++
		}
	default:
		for p := lo; p < hi; p++ {
			key := sv
			for _, j := range idxs {
				key += int32(cols[j][p]) * v.weights[j]
			}
			if tgt[key] == 0 && other[key] == 0 {
				keys = append(keys, key)
			}
			tgt[key]++
		}
	}
	return keys
}

// patchCell folds the cell's chained changes into the new marginal and
// edits the tracked window in place: each changed entity's stale entry
// is removed if tracked, and its new value reinserted when it clears
// the floor (an insertion into a full window folds the displaced
// minimum into the floor). The window and floor invariants hold after
// every step, so the edits compose in any order. It reports whether the
// cell's top-two could not be resolved exactly afterwards — the window
// shrank below two entries above the floor while an untracked cohort
// remains — and the cell needs the targeted rescan.
func (v *MarginalView) patchCell(newM *Marginal, c int, changes []viewChange) (rescan bool, err error) {
	base := c * viewTopK
	ln := int(v.topLen[c])
	floor := v.floor[c]
	var dCount, dEnts int64
	for ci := v.cellHead[c]; ci != -1; ci = changes[ci].next {
		ch := &changes[ci]
		dCount += int64(ch.n) - int64(ch.o)
		if ch.o > 0 {
			dEnts--
		}
		if ch.n > 0 {
			dEnts++
		}
		// Drop the entity's stale window entry, if tracked. A stale value
		// below the floor cannot be tracked at all — tracked entries carry
		// their current value and every tracked value is ≥ the floor — so
		// the membership scan is skipped outright for the (common, in big
		// cells) changes living entirely in the untracked cohort.
		if ch.o >= floor {
			for t := 0; t < ln; t++ {
				if v.top[base+t].ent == ch.ent {
					copy(v.top[base+t:base+ln-1], v.top[base+t+1:base+ln])
					ln--
					break
				}
			}
		}
		n := ch.n
		if n <= floor {
			continue // stays (or lands) in the untracked cohort
		}
		if ln == viewTopK {
			last := v.top[base+ln-1]
			if n < last.val || (n == last.val && ch.ent > last.ent) {
				// Cannot displace the window minimum: the entity joins the
				// cohort and the floor absorbs its value.
				floor = n
				continue
			}
			// Displaces the minimum, which falls into the cohort.
			if last.val > floor {
				floor = last.val
			}
			ln--
		}
		pos := ln
		for pos > 0 {
			prev := v.top[base+pos-1]
			if prev.val > n || (prev.val == n && prev.ent < ch.ent) {
				break
			}
			pos--
		}
		copy(v.top[base+pos+1:base+ln+1], v.top[base+pos:base+ln])
		v.top[base+pos] = topEntry{ent: ch.ent, val: n}
		ln++
	}
	newM.Counts[c] += dCount
	newM.EntityCount[c] += dEnts
	if newM.Counts[c] < 0 || newM.EntityCount[c] < 0 {
		return false, fmt.Errorf("table: patch drives cell %d negative (count %d, entities %d)", c, newM.Counts[c], newM.EntityCount[c])
	}
	untracked := newM.EntityCount[c] - int64(ln)
	if untracked < 0 {
		return false, fmt.Errorf("table: patch cell %d tracks %d contributors, marginal has %d", c, ln, newM.EntityCount[c])
	}
	v.topLen[c] = uint8(ln)
	if untracked == 0 {
		floor = 0
	}
	v.floor[c] = floor
	// Exactness: with no untracked cohort the window is authoritative;
	// otherwise the runner-up must clear the floor bounding the cohort.
	if untracked > 0 && (ln < 2 || v.top[base+1].val < floor) {
		return true, nil
	}
	var top1, top2 int64
	if ln > 0 {
		top1 = int64(v.top[base].val)
	}
	if ln > 1 {
		top2 = int64(v.top[base+1].val)
	}
	newM.MaxEntityContribution[c] = top1
	newM.SecondEntityContribution[c] = top2
	return false, nil
}

// rescanCells rebuilds the fallback cells' statistics authoritatively
// from the successor index: their counts, entity counts and windows are
// cleared and refolded by foldGroups. Counts and entity counts are
// recomputed too (they must and do agree with the patched values — the
// differential suites pin this).
func (v *MarginalView) rescanCells(cells []int32, newM *Marginal, ix *Index, cols [][]uint16) {
	for _, c := range cells {
		v.fbMark[c] |= fbCell
		v.fbMark[v.staticPart(c)] |= fbStatic
		newM.Counts[c] = 0
		newM.EntityCount[c] = 0
		v.topLen[c] = 0
		v.floor[c] = 0
	}
	v.foldGroups(ix, cols, newM)
	for _, c := range cells {
		v.fbMark[c] = 0
		v.fbMark[v.staticPart(c)] = 0
		v.settle(newM, int(c))
	}
}

// staticPart returns the static key part of cell key c: its digits of
// the view's static attributes, weighted; the dynamic digits are zero.
func (v *MarginalView) staticPart(c int32) int32 {
	sv := int32(0)
	for _, j := range v.staticIdx {
		w := v.weights[j]
		sv += c / w % int32(v.q.radices[j]) * w
	}
	return sv
}

// foldGroups folds every group of ix into m's fbCell-marked cells and
// their windows. A group whose static key part carries no fbStatic mark
// reaches no marked cell and is skipped after one read per static
// attribute; a flat view's group folds whole in O(1). A demoted or
// fully dynamic view has static part 0 everywhere, so nothing is
// skipped.
func (v *MarginalView) foldGroups(ix *Index, cols [][]uint16, m *Marginal) {
	scatter := v.outCnt
	keys := v.keysBuf
	for g, e := range ix.entities {
		lo, hi := int(ix.starts[g]), int(ix.starts[g+1])
		sv := int32(0)
		for _, j := range v.staticIdx {
			sv += int32(cols[j][lo]) * v.weights[j]
		}
		if v.fbMark[sv]&fbStatic == 0 {
			continue
		}
		keys = v.foldTail(cols, lo, hi, sv, scatter, scatter, keys[:0])
		for _, key := range keys {
			cnt := scatter[key]
			scatter[key] = 0
			if v.fbMark[key]&fbCell != 0 {
				m.Counts[key] += int64(cnt)
				m.EntityCount[key]++
				v.insertTop(int(key), e, cnt)
			}
		}
	}
	v.keysBuf = keys[:0]
}

// settle publishes cell c's top two contributions from its window.
func (v *MarginalView) settle(m *Marginal, c int) {
	base := c * viewTopK
	ln := int(v.topLen[c])
	m.MaxEntityContribution[c], m.SecondEntityContribution[c] = 0, 0
	if ln > 0 {
		m.MaxEntityContribution[c] = int64(v.top[base].val)
	}
	if ln > 1 {
		m.SecondEntityContribution[c] = int64(v.top[base+1].val)
	}
}
