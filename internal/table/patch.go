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
// contributions that change are the ones named by the removed and added
// tail rows, and everything the patch needs beyond the tails — the
// entity's previous total contribution per cell — is carried in a
// MarginalView, the per-establishment contribution list maintained
// alongside the truth. Maintenance cost is O(delta rows + changed
// cells) per quarter, not O(touched groups) and not O(table): on the
// default churn regime ~84% of all rows sit in touched groups, so even
// a touched-groups-only rescan would barely beat the full pass the
// cache paid before.
//
// Two structural facts keep the patch loop off the memory wall:
//
//   - The touched-establishment spans (removed suffix, appended tail)
//     are validated and resolved once per advance into a PatchFrame,
//     shared by every maintained view, so N cached marginals pay the
//     index walk once, not N times.
//
//   - Attributes that are constant within every establishment group —
//     place, industry, ownership in a LODES snapshot — are detected at
//     view build time and factored out of the per-row key computation:
//     a group's static key part is cached per establishment, removed
//     tail rows need no column loads for those attributes at all, and
//     appended rows only a verification load. A marginal over
//     establishment attributes alone patches in O(1) per touched group.
//     The factoring is safe on arbitrary data: appended rows are
//     verified against the group's cached values, and a violating group
//     is demoted to the generic all-attribute path (mixed), never
//     answered wrong.
//
// The subtle statistic is the per-cell top-two entity contribution
// (x_v and the runner-up). The view tracks each cell's top-K
// contributors by identity with a floor invariant — every contributor
// whose value exceeds floor[c] is in the list, and every unlisted
// contributor is ≤ floor[c] — so after removing the changed entities
// and reinserting their new values, the patched top-two is exact
// whenever the candidate runner-up clears the floor. When it does not
// (the cached second place is dethroned and no tracked successor
// remains), the cell falls back to a targeted rescan: one restricted
// pass over the successor index that folds only the fallback cells.

// viewTopK is the per-cell tracked-contributor depth. Cells with at
// most viewTopK contributing establishments are tracked exhaustively
// (complete, floor 0) and never fall back; deeper cells keep the K
// largest plus the floor bound.
const viewTopK = 8

// viewCell is one (cell, contribution) entry of an establishment's
// sorted contribution list.
type viewCell struct {
	cell  int32
	count int32
}

// topEntry is one tracked contributor of a cell.
type topEntry struct {
	ent int32
	val int32
}

// PatchStats reports one Apply's work profile.
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
// establishment, the removed base suffix and appended successor tail
// resolved to index row spans. It is built once per advance
// (NewPatchFrame) and shared by every maintained view's ApplyFrame, so
// the touched-set walk and its validation are paid once, not once per
// cached marginal.
type PatchFrame struct {
	base, next *Index
	spans      []patchSpan
	// verified is the set of schema attributes whose group-constancy has
	// been folded into the spans' constMask bits. Verification is lazy —
	// ApplyFrame demands exactly the attributes its view factored out as
	// static — so attributes no maintained view treats as group-constant
	// (the worker attributes, in practice) are never re-read at all. A
	// frame is therefore mutable and NOT safe for concurrent ApplyFrame
	// calls; the publisher serializes them under its advance lock.
	verified uint32
}

// patchSpan is one touched establishment's row movement.
type patchSpan struct {
	ent              int32
	newEnt           bool   // no group in base (birth, or a re-staffed empty establishment)
	bRef             int32  // first row of the base group (the group-constant reference), -1 when newEnt
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
// all views sharing the frame: bit a of a span's constMask reports
// that attribute a is constant across the appended rows and (for an
// existing group) matches the group's base value. ApplyFrame requests
// exactly its view's static set, so each attribute's tail columns are
// read at most once per advance no matter how many views share the
// frame — and attributes no view factored out are never read.
func (f *PatchFrame) ensureVerified(mask uint32) {
	mask &^= f.verified
	if mask == 0 {
		return
	}
	nAttrs := f.base.t.Schema().NumAttrs()
	for a := 0; a < nAttrs; a++ {
		bit := uint32(1) << uint(a)
		if mask&bit == 0 {
			continue
		}
		bcol, ncol := f.base.col(a), f.next.col(a)
		for si := range f.spans {
			sp := &f.spans[si]
			lo, hi := sp.nTailLo, sp.nTailHi
			if lo >= hi {
				sp.constMask |= bit
				continue
			}
			var ref uint16
			if sp.newEnt {
				ref = ncol[lo]
				lo++
			} else {
				ref = bcol[sp.bRef]
			}
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
	}
	f.verified |= mask
}

// MarginalView is a maintainable materialization of one query's truth:
// the marginal itself plus the per-establishment contribution lists and
// per-cell top-K contributor tracking that let Apply patch the truth
// under a quarterly delta without rescanning the table.
//
// A view is single-writer: Apply (and the scratch it reuses) must be
// externally serialized — the publisher calls it under its advance
// lock. The Marginal it returns is freshly allocated and immutable;
// readers of a previously returned Marginal are never affected by later
// Applies. If Apply returns an error the view is inconsistent and must
// be discarded.
type MarginalView struct {
	q *Query
	m *Marginal

	// ents lists the establishments the view has ever tracked,
	// ascending — a superset of the index's group entities (an
	// establishment whose rows all churn away stays as a tombstone with
	// an empty list, so the directory is append-mostly and never
	// rebuilt). cellsOf[i] is ents[i]'s contribution list, sorted by
	// cell; owned[i] records whether this view may mutate it in place
	// (false after Clone until first write — lists are copy-on-write so
	// clones stay independent). In a flat view the directory holds only
	// the mixed-demoted establishments; everyone else lives in the flat
	// arrays below.
	ents    []int32
	cellsOf [][]viewCell
	owned   []bool

	// Flat all-static specialization. When every query attribute is
	// group-constant (dynIdx empty — every marginal over establishment
	// attributes alone), each establishment contributes to exactly one
	// cell, so the directory degenerates to two dense arrays indexed by
	// establishment ID: flatCell[e] is e's cell, flatCnt[e] its
	// contribution (0 = no rows). A span then patches in O(1) with no
	// list walk, no lookup and no copy-on-write. An establishment whose
	// appended rows violate constancy is moved into the sparse directory
	// above as mixed (flatCnt zeroed) and handled by the generic path
	// from then on.
	flat     bool
	flatCnt  []int32
	flatCell []int32

	// Group-constant attribute factoring. weights[j] is query attr j's
	// mixed-radix weight (cell key = Σ col[j][row]·weights[j]).
	// staticIdx lists the attr positions found constant within every
	// group at build time, dynIdx the rest, allIdx every position.
	// staticOf[i] caches ents[i]'s static key part; mixed[i] marks a
	// group whose appended rows violated constancy (demoted to the
	// all-attribute path — never answered wrong, just slower).
	weights    []int32
	staticIdx  []int32
	dynIdx     []int32
	allIdx     []int32
	staticMask uint32 // schema-attr bits of staticIdx, checked against a span's constMask
	staticOf   []int32
	mixed      []bool

	// top is the flattened per-cell tracked-contributor window
	// (top[c*viewTopK : c*viewTopK+topLen[c]]), ordered by value
	// descending then entity ascending. floor[c] bounds every unlisted
	// contributor; complete[c] means the window holds every contributor.
	top      []topEntry
	topLen   []uint8
	complete []bool
	floor    []int32

	// Reusable scratch (see the single-writer contract above).
	outCnt   []int32 // per-cell removed-tail row counts of the entity in hand
	inCnt    []int32 // per-cell added-tail row counts
	cellHead []int32 // per-cell head into chain, -1 when cell unseen
	fbMark   []bool  // fallback-cell membership for the targeted rescan
	keysBuf  []int32
	diffBuf  []viewCell
	chgBuf   []viewChange
	fbBuf    []int32
}

// viewChange is one changed (establishment, cell) contribution.
type viewChange struct {
	cell int32
	ent  int32
	o, n int32 // old and new total contribution
	next int32 // next change of the same cell (chain), -1 at the end
}

// Query returns the query the view maintains.
func (v *MarginalView) Query() *Query { return v.q }

// Marginal returns the view's current truth. It is shared and must be
// treated as read-only.
func (v *MarginalView) Marginal() *Marginal { return v.m }

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
		q:        q,
		m:        newEmptyMarginal(q),
		ents:     make([]int32, 0, ng),
		cellsOf:  make([][]viewCell, 0, ng),
		owned:    make([]bool, 0, ng),
		staticOf: make([]int32, 0, ng),
		mixed:    make([]bool, 0, ng),
		weights:  make([]int32, nAttrs),
		top:      make([]topEntry, size*viewTopK),
		topLen:   make([]uint8, size),
		complete: make([]bool, size),
		floor:    make([]int32, size),
		outCnt:   make([]int32, size),
		inCnt:    make([]int32, size),
		cellHead: make([]int32, size),
		fbMark:   make([]bool, size),
	}
	for i := range v.cellHead {
		v.cellHead[i] = -1
	}
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
	isStatic := make([]bool, nAttrs)
	for j := 0; j < nAttrs; j++ {
		isStatic[j] = groupConstant(cols[j], ix, ng)
	}
	for j := 0; j < nAttrs; j++ {
		v.allIdx = append(v.allIdx, int32(j))
		if isStatic[j] {
			v.staticIdx = append(v.staticIdx, int32(j))
			v.staticMask |= uint32(1) << uint(q.attrs[j])
		} else {
			v.dynIdx = append(v.dynIdx, int32(j))
		}
	}

	v.flat = len(v.dynIdx) == 0
	if v.flat {
		// Every group folds into the one cell named by its static key:
		// fill the dense arrays directly, no per-establishment lists.
		maxEnt := int32(0)
		if ng > 0 {
			maxEnt = ix.entities[ng-1] + 1
		}
		v.flatCnt = make([]int32, maxEnt)
		v.flatCell = make([]int32, maxEnt)
		for g := 0; g < ng; g++ {
			lo, hi := int(ix.starts[g]), int(ix.starts[g+1])
			if lo >= hi {
				continue
			}
			e := ix.entities[g]
			sv := int32(0)
			for _, j := range v.staticIdx {
				sv += int32(cols[j][lo]) * v.weights[j]
			}
			cnt := int32(hi - lo)
			v.flatCnt[e] = cnt
			v.flatCell[e] = sv
			v.m.Counts[sv] += int64(cnt)
			v.m.EntityCount[sv]++
			v.insertTop(int(sv), e, cnt)
		}
	} else {
		cells := make([]int32, size)
		touched := make([]int, max(ix.maxGroup, 1))
		for g := 0; g < ng; g++ {
			lo, hi := int(ix.starts[g]), int(ix.starts[g+1])
			e := ix.entities[g]
			nt := scatterGroup(cells, touched, cols, q.radices, lo, hi)
			list := make([]viewCell, nt)
			for i, key := range touched[:nt] {
				c := cells[key]
				cells[key] = 0
				list[i] = viewCell{cell: int32(key), count: c}
				v.m.Counts[key] += int64(c)
				v.m.EntityCount[key]++
				v.insertTop(key, e, c)
			}
			sortViewCells(list)
			sv := int32(0)
			for _, j := range v.staticIdx {
				sv += int32(cols[j][lo]) * v.weights[j]
			}
			v.ents = append(v.ents, e)
			v.cellsOf = append(v.cellsOf, list)
			v.owned = append(v.owned, true)
			v.staticOf = append(v.staticOf, sv)
			v.mixed = append(v.mixed, false)
		}
	}
	for c := 0; c < size; c++ {
		ln := int(v.topLen[c])
		base := c * viewTopK
		if ln > 0 {
			v.m.MaxEntityContribution[c] = int64(v.top[base].val)
		}
		if ln > 1 {
			v.m.SecondEntityContribution[c] = int64(v.top[base+1].val)
		}
		v.complete[c] = int64(ln) == v.m.EntityCount[c]
	}
	return v, nil
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

// sortViewCells sorts a contribution list by cell (insertion sort: the
// lists are short — one entry per distinct cell the establishment's
// rows land in).
func sortViewCells(list []viewCell) {
	for i := 1; i < len(list); i++ {
		x := list[i]
		j := i - 1
		for j >= 0 && list[j].cell > x.cell {
			list[j+1] = list[j]
			j--
		}
		list[j+1] = x
	}
}

// lookupCellIdx returns the cell's position in the sorted list, or -1.
// Typical lists are a handful of entries, where the early-exit linear
// scan beats binary search's mispredicted branches; long lists (mixed
// groups, large establishments) fall back to bisection.
func lookupCellIdx(list []viewCell, cell int32) int {
	if len(list) <= 16 {
		for i := range list {
			if c := list[i].cell; c >= cell {
				if c == cell {
					return i
				}
				return -1
			}
		}
		return -1
	}
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid].cell < cell {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(list) && list[lo].cell == cell {
		return lo
	}
	return -1
}

// lookupCell returns the entity's contribution to the cell (0 when
// absent) from its sorted list.
func lookupCell(list []viewCell, cell int32) int32 {
	if i := lookupCellIdx(list, cell); i >= 0 {
		return list[i].count
	}
	return 0
}

// Flat reports whether the view runs the dense all-static
// specialization: every query attribute is establishment-constant, so
// applying a span is O(1) regardless of how many rows moved. Flat
// views stay worth patching at any churn level; the publisher's
// patch-versus-evict cost gate consults this.
func (v *MarginalView) Flat() bool { return v.flat }

// Clone returns a fully independent view at the same state — the
// Marginal pointer is shared (it is immutable), everything else
// including the per-establishment contribution lists is copied.
// Benchmarks and the differential suites use it to reset a view
// between chain replays; the publisher clones nothing.
func (v *MarginalView) Clone() *MarginalView {
	size := v.q.size
	c := &MarginalView{
		q:          v.q,
		m:          v.m,
		ents:       append([]int32(nil), v.ents...),
		cellsOf:    make([][]viewCell, len(v.cellsOf)),
		owned:      make([]bool, len(v.owned)),
		staticOf:   append([]int32(nil), v.staticOf...),
		mixed:      append([]bool(nil), v.mixed...),
		flat:       v.flat,
		flatCnt:    append([]int32(nil), v.flatCnt...),
		flatCell:   append([]int32(nil), v.flatCell...),
		weights:    v.weights,
		staticIdx:  v.staticIdx,
		staticMask: v.staticMask,
		dynIdx:     v.dynIdx,
		allIdx:     v.allIdx,
		top:        append([]topEntry(nil), v.top...),
		topLen:     append([]uint8(nil), v.topLen...),
		complete:   append([]bool(nil), v.complete...),
		floor:      append([]int32(nil), v.floor...),
		outCnt:     make([]int32, size),
		inCnt:      make([]int32, size),
		cellHead:   make([]int32, size),
		fbMark:     make([]bool, size),
		diffBuf:    make([]viewCell, 0, cap(v.diffBuf)),
		chgBuf:     make([]viewChange, 0, cap(v.chgBuf)),
	}
	// Deep-copy the contribution lists so the clone is fully independent
	// of (and as warm as) the original: a clone exists to replay a chain
	// the original already absorbed, and sharing lists copy-on-write
	// would bill the replay for allocations a long-lived view pays only
	// at birth. One backing array holds every list, full-sliced so a
	// list replacement or growth can never bleed into its neighbor.
	total := 0
	for _, l := range v.cellsOf {
		total += len(l)
	}
	if total > 0 {
		backing := make([]viewCell, 0, total)
		for i, l := range v.cellsOf {
			if len(l) == 0 {
				continue
			}
			lo := len(backing)
			backing = append(backing, l...)
			c.cellsOf[i] = backing[lo:len(backing):len(backing)]
			c.owned[i] = true
		}
	}
	for i := range c.cellHead {
		c.cellHead[i] = -1
	}
	return c
}

// Apply patches the view's truth from the base epoch to the successor.
// It is NewPatchFrame followed by ApplyFrame; callers maintaining
// several views over the same advance should build the frame once and
// share it.
func (v *MarginalView) Apply(base, next *Index, touched, kept []int32) (*Marginal, PatchStats, error) {
	if len(touched) == 0 && len(kept) == 0 {
		return v.m, PatchStats{}, nil
	}
	f, err := NewPatchFrame(base, next, touched, kept)
	if err != nil {
		return nil, PatchStats{}, err
	}
	return v.ApplyFrame(f)
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
		return nil, st, fmt.Errorf("table: Apply across a different schema")
	}
	st.TouchedEntities = len(f.spans)
	if len(f.spans) == 0 {
		return v.m, st, nil
	}
	baseCols := queryCols(f.base, q)
	nextCols := queryCols(f.next, q)
	if v.staticMask != 0 {
		f.ensureVerified(v.staticMask)
	}

	var err error
	changes := v.chgBuf[:0]
	if v.flat {
		changes, err = v.applyFlat(f, baseCols, nextCols, changes)
	} else {
		changes, err = v.applyDir(f, baseCols, nextCols, changes)
	}
	if err != nil {
		return nil, st, err
	}
	v.chgBuf = changes[:0]
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
		v.rescanCells(fallback, newM)
	}
	v.m = newM
	return newM, st, nil
}

// applyFlat is the span pass of a flat (all-static) view: each touched
// establishment patches its one cell in O(1) off the dense arrays. The
// sparse directory holds only mixed-demoted establishments; a span
// violating the view's static set moves its establishment there before
// taking the generic path.
func (v *MarginalView) applyFlat(f *PatchFrame, baseCols, nextCols [][]uint16, changes []viewChange) ([]viewChange, error) {
	// Grow the dense arrays to cover newborn IDs (spans are ascending,
	// so the last one bounds them all).
	if n := len(f.spans); n > 0 {
		if need := int(f.spans[n-1].ent) + 1 - len(v.flatCnt); need > 0 {
			v.flatCnt = append(v.flatCnt, make([]int32, need)...)
			v.flatCell = append(v.flatCell, make([]int32, need)...)
		}
	}
	vi := 0 // merge-walk over the mixed-only directory
	for si := range f.spans {
		sp := &f.spans[si]
		e := sp.ent
		for vi < len(v.ents) && v.ents[vi] < e {
			vi++
		}
		if vi < len(v.ents) && v.ents[vi] == e {
			var err error
			if changes, err = v.patchMixedSpan(sp, baseCols, nextCols, vi, changes); err != nil {
				return nil, err
			}
			continue
		}
		o := v.flatCnt[e]
		if !sp.newEnt && o == 0 {
			return nil, fmt.Errorf("table: Apply view out of sync with base index at entity %d", e)
		}
		if sp.newEnt && o != 0 {
			return nil, fmt.Errorf("table: Apply view has rows for entity %d absent from the base index", e)
		}
		if sp.constMask&v.staticMask != v.staticMask {
			// Constancy violated: demote to the sparse directory, then
			// handle generically from now on.
			var list []viewCell
			if o > 0 {
				list = []viewCell{{cell: v.flatCell[e], count: o}}
				v.flatCnt[e] = 0
			}
			v.insertEnt(vi, e, list, 0, true)
			var err error
			if changes, err = v.patchMixedSpan(sp, baseCols, nextCols, vi, changes); err != nil {
				return nil, err
			}
			continue
		}
		out := sp.bTailHi - sp.bTailLo
		in := sp.nTailHi - sp.nTailLo
		if out == in {
			continue
		}
		sv := v.flatCell[e]
		if o == 0 {
			if in == 0 {
				continue
			}
			sv = 0
			for _, j := range v.staticIdx {
				sv += int32(nextCols[j][sp.nTailLo]) * v.weights[j]
			}
		}
		n := o - out + in
		if n < 0 {
			return nil, fmt.Errorf("table: Apply drives entity %d cell %d contribution negative (%d - %d + %d)", e, sv, o, out, in)
		}
		v.flatCnt[e] = n
		v.flatCell[e] = sv
		changes = append(changes, viewChange{cell: sv, ent: e, o: o, n: n})
	}
	return changes, nil
}

// patchMixedSpan handles one mixed-demoted establishment of a flat
// view: the generic all-attribute fold over its removed and appended
// tails, with its contribution list kept in the sparse directory.
func (v *MarginalView) patchMixedSpan(sp *patchSpan, baseCols, nextCols [][]uint16, vi int, changes []viewChange) ([]viewChange, error) {
	oldList := v.cellsOf[vi]
	if !sp.newEnt && len(oldList) == 0 {
		return nil, fmt.Errorf("table: Apply view out of sync with base index at entity %d", sp.ent)
	}
	if sp.newEnt && len(oldList) > 0 {
		return nil, fmt.Errorf("table: Apply view has rows for entity %d absent from the base index", sp.ent)
	}
	keys := v.keysBuf[:0]
	keys = v.foldTail(baseCols, v.allIdx, int(sp.bTailLo), int(sp.bTailHi), 0, v.outCnt, v.inCnt, keys)
	keys = v.foldTail(nextCols, v.allIdx, int(sp.nTailLo), int(sp.nTailHi), 0, v.inCnt, v.outCnt, keys)
	v.keysBuf = keys
	diffs := v.diffBuf[:0]
	for _, key := range keys {
		out, in := v.outCnt[key], v.inCnt[key]
		v.outCnt[key], v.inCnt[key] = 0, 0
		if out == in {
			continue
		}
		o := lookupCell(oldList, key)
		n := o - out + in
		if n < 0 {
			return nil, fmt.Errorf("table: Apply drives entity %d cell %d contribution negative (%d - %d + %d)", sp.ent, key, o, out, in)
		}
		changes = append(changes, viewChange{cell: key, ent: sp.ent, o: o, n: n})
		diffs = append(diffs, viewCell{cell: key, count: n})
	}
	v.diffBuf = diffs
	if len(diffs) > 0 {
		sortViewCells(diffs)
		v.cellsOf[vi] = mergeCellList(oldList, diffs)
		v.owned[vi] = true
	}
	return changes, nil
}

// applyDir is the span pass of a view with dynamic attributes: the full
// directory of per-establishment contribution lists, with the static
// key part factored out of the per-row fold.
func (v *MarginalView) applyDir(f *PatchFrame, baseCols, nextCols [][]uint16, changes []viewChange) ([]viewChange, error) {
	vi := 0
	for si := range f.spans {
		sp := &f.spans[si]
		e := sp.ent
		for vi < len(v.ents) && v.ents[vi] < e {
			vi++
		}
		viewHas := vi < len(v.ents) && v.ents[vi] == e
		var oldList []viewCell
		if viewHas {
			oldList = v.cellsOf[vi]
		}
		if !sp.newEnt && (!viewHas || len(oldList) == 0) {
			return nil, fmt.Errorf("table: Apply view out of sync with base index at entity %d", e)
		}
		if sp.newEnt && len(oldList) > 0 {
			return nil, fmt.Errorf("table: Apply view has rows for entity %d absent from the base index", e)
		}

		// Death: the whole group leaves and nothing replaces it, so the
		// diff is exactly the negated contribution list — no column reads
		// at all, and the slot becomes a tombstone.
		if !sp.newEnt && sp.bTailLo == sp.bRef && sp.nTailLo >= sp.nTailHi {
			for _, vc := range oldList {
				changes = append(changes, viewChange{cell: vc.cell, ent: e, o: vc.count, n: 0})
			}
			v.cellsOf[vi] = nil
			v.owned[vi] = true
			continue
		}

		// Resolve the entity's static key part. The frame verified
		// per-attribute constancy over the appended tail (ensureVerified);
		// a span violating any of this view's static attributes demotes
		// the group to the generic all-attribute path.
		sv := int32(0)
		isMixed := viewHas && v.mixed[vi]
		freshStatic := false
		if len(v.staticIdx) > 0 && !isMixed {
			if sp.constMask&v.staticMask != v.staticMask {
				isMixed = true
			} else if !sp.newEnt {
				sv = v.staticOf[vi]
			} else if sp.nTailLo < sp.nTailHi {
				freshStatic = true
				for _, j := range v.staticIdx {
					sv += int32(nextCols[j][sp.nTailLo]) * v.weights[j]
				}
			}
		}

		// Tail diffs: contributions leaving with the removed suffix,
		// arriving with the appended rows.
		idxs := v.dynIdx
		if isMixed {
			idxs = v.allIdx
			sv = 0
		}
		keys := v.keysBuf[:0]
		keys = v.foldTail(baseCols, idxs, int(sp.bTailLo), int(sp.bTailHi), sv, v.outCnt, v.inCnt, keys)
		keys = v.foldTail(nextCols, idxs, int(sp.nTailLo), int(sp.nTailHi), sv, v.inCnt, v.outCnt, keys)
		v.keysBuf = keys

		diffs := v.diffBuf[:0]
		structural := false
		for _, key := range keys {
			out, in := v.outCnt[key], v.inCnt[key]
			v.outCnt[key], v.inCnt[key] = 0, 0
			if out == in {
				continue
			}
			o := lookupCell(oldList, key)
			n := o - out + in
			if n < 0 {
				return nil, fmt.Errorf("table: Apply drives entity %d cell %d contribution negative (%d - %d + %d)", e, key, o, out, in)
			}
			if o == 0 || n == 0 {
				structural = true
			}
			changes = append(changes, viewChange{cell: key, ent: e, o: o, n: n})
			diffs = append(diffs, viewCell{cell: key, count: n})
		}
		v.diffBuf = diffs
		if len(diffs) == 0 {
			continue
		}

		// Directory update: in place when only counts changed, a fresh
		// merged list when the cell set changed (copy-on-write after
		// Clone), an insertion for a first-seen establishment. A group
		// whose rows all leave keeps its ents slot as a tombstone with an
		// empty list.
		switch {
		case !viewHas:
			sortViewCells(diffs)
			v.insertEnt(vi, e, mergeCellList(nil, diffs), sv, isMixed)
		case structural:
			sortViewCells(diffs)
			v.cellsOf[vi] = mergeCellList(oldList, diffs)
			v.owned[vi] = true
			if freshStatic {
				v.staticOf[vi] = sv
			}
			if isMixed {
				v.mixed[vi] = true
			}
		default:
			if !v.owned[vi] {
				v.cellsOf[vi] = append([]viewCell(nil), oldList...)
				v.owned[vi] = true
			}
			list := v.cellsOf[vi]
			for _, d := range diffs {
				list[lookupCellIdx(list, d.cell)].count = d.count
			}
			if isMixed {
				v.mixed[vi] = true
			}
		}
	}
	return changes, nil
}

// foldTail accumulates the cell keys of rows [lo, hi) into tgt,
// appending each key's first touch (in either scratch array) to keys.
// Only the idxs attributes are loaded per row; sv carries the
// group-constant part of the key. The idxs-0 body folds the whole span
// into one cell without touching a column — the O(1)-per-group path for
// marginals over establishment attributes alone.
func (v *MarginalView) foldTail(cols [][]uint16, idxs []int32, lo, hi int, sv int32, tgt, other []int32, keys []int32) []int32 {
	if lo >= hi {
		return keys
	}
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

// insertEnt inserts a first-seen establishment into the directory at
// position pos (an append for births, whose IDs extend the frame; a
// shift only for the rare re-staffed establishment that predates the
// view).
func (v *MarginalView) insertEnt(pos int, e int32, list []viewCell, sv int32, mixed bool) {
	v.ents = append(v.ents, 0)
	v.cellsOf = append(v.cellsOf, nil)
	v.owned = append(v.owned, false)
	v.staticOf = append(v.staticOf, 0)
	v.mixed = append(v.mixed, false)
	copy(v.ents[pos+1:], v.ents[pos:])
	copy(v.cellsOf[pos+1:], v.cellsOf[pos:])
	copy(v.owned[pos+1:], v.owned[pos:])
	copy(v.staticOf[pos+1:], v.staticOf[pos:])
	copy(v.mixed[pos+1:], v.mixed[pos:])
	v.ents[pos] = e
	v.cellsOf[pos] = list
	v.owned[pos] = true
	v.staticOf[pos] = sv
	v.mixed[pos] = mixed
}

// mergeCellList merges an establishment's sorted contribution list with
// its sorted diffs (count == 0 removes the cell) into a fresh list.
func mergeCellList(old []viewCell, diffs []viewCell) []viewCell {
	out := make([]viewCell, 0, len(old)+len(diffs))
	i, j := 0, 0
	for i < len(old) || j < len(diffs) {
		switch {
		case j >= len(diffs) || (i < len(old) && old[i].cell < diffs[j].cell):
			out = append(out, old[i])
			i++
		case i >= len(old) || old[i].cell > diffs[j].cell:
			if diffs[j].count > 0 {
				out = append(out, diffs[j])
			}
			j++
		default:
			if diffs[j].count > 0 {
				out = append(out, diffs[j])
			}
			i++
			j++
		}
	}
	return out
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
	v.complete[c] = untracked == 0
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
// from the view's own post-patch contribution lists: one pass over the
// per-establishment lists, folding only the marked cells. Counts and
// entity counts are recomputed too (they must and do agree with the
// patched values — the differential suites pin this), and the tracked
// windows are rebuilt from scratch. Cost is O(tracked pairs), with no
// index access at all.
func (v *MarginalView) rescanCells(cells []int32, newM *Marginal) {
	for _, c := range cells {
		v.fbMark[c] = true
		newM.Counts[c] = 0
		newM.EntityCount[c] = 0
		newM.MaxEntityContribution[c] = 0
		newM.SecondEntityContribution[c] = 0
		v.topLen[c] = 0
		v.floor[c] = 0
	}
	if v.flat {
		for e, cnt := range v.flatCnt {
			if cnt > 0 && v.fbMark[v.flatCell[e]] {
				c := v.flatCell[e]
				newM.Counts[c] += int64(cnt)
				newM.EntityCount[c]++
				v.insertTop(int(c), int32(e), cnt)
			}
		}
	}
	for vi, list := range v.cellsOf {
		e := v.ents[vi]
		for _, vc := range list {
			if !v.fbMark[vc.cell] {
				continue
			}
			newM.Counts[vc.cell] += int64(vc.count)
			newM.EntityCount[vc.cell]++
			v.insertTop(int(vc.cell), e, vc.count)
		}
	}
	for _, c := range cells {
		v.fbMark[c] = false
		base := int(c) * viewTopK
		ln := int(v.topLen[c])
		if ln > 0 {
			newM.MaxEntityContribution[c] = int64(v.top[base].val)
		}
		if ln > 1 {
			newM.SecondEntityContribution[c] = int64(v.top[base+1].val)
		}
		v.complete[c] = int64(ln) == newM.EntityCount[c]
	}
}
