package table

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
)

// Index is an entity-sorted view of a table, built once and reused across
// marginal queries. Rows are pre-grouped by entity (establishment), so a
// query evaluates as one pass over entity groups: within a group, the
// rows' cell keys are scattered into a dense per-worker accumulator
// (scratch[key]++ plus a touched-cell list), and each touched cell is
// exactly one (cell, entity) contribution — the per-entity histogram
// value h(w, c) from which the cell count, x_v (largest single-entity
// contribution), second-largest contribution and distinct-entity count
// all fall out without any hash map or per-group sort. See DESIGN.md §6
// for the scatter-accumulator layout and the touched-list reset trick.
//
// Entity-less rows (entity −1) are each their own singleton group, with
// synthetic IDs −1, −2, … assigned in row order so that the detailed
// histogram is identical to the one the reference scalar engine produces.
//
// Group spans are sharded across workers at query time; each worker
// accumulates partial per-cell statistics that are merged in a fixed
// shard order, so the result is bit-identical at every worker count.
// Per-worker scan state (accumulators, scatter scratch, touched lists)
// is pooled on the index, so steady-state queries allocate only their
// result vectors.
type Index struct {
	t *Table
	// n is the row count the index was built at; a Table invalidates a
	// cached index by comparing this against its current row count.
	n int
	// rows lists every row ID, grouped by entity. A nil rows means the
	// identity permutation: the table itself is entity-sorted (as every
	// epoch snapshot MergeIndex builds for is), so index position p IS
	// table row p and the materialized columns alias the table's own —
	// no per-attribute gather at all.
	rows []int32
	// starts delimits the groups: group g spans
	// rows[starts[g]:starts[g+1]].
	starts []int32
	// entities holds each group's entity ID (synthetic negatives for
	// entity-less rows).
	entities []int32
	// cols are the table's code columns re-materialized in index row
	// order (cols[a].data[p] == t.cols[a][rows[p]]), so the scan kernel
	// reads every column strictly sequentially instead of gathering
	// through the row permutation. Materialization is lazy, per column,
	// on the first query that touches the attribute, and each column has
	// its own once-guard: a first-touch gather of one attribute (an O(n)
	// pass) never serializes workers resolving a different, already
	// materialized attribute. An index over a table that is not
	// entity-sorted pays the gather only for the attributes its queries
	// touch; the rest of the table's columns are never copied.
	cols []lazyCol
	// maxGroup is the largest group size, for sizing per-worker scratch.
	maxGroup int

	// scratch pools *scanScratch values across queries. Pool invariant:
	// a scratch's cells array is all-zero while in the pool (every scan
	// resets exactly the entries it touched), so reuse never needs an
	// O(size) clear of the scatter array.
	scratch sync.Pool
}

// lazyCol is one lazily materialized index-order column: data is built
// (or aliased, in identity mode) under the column's own once-guard.
type lazyCol struct {
	once sync.Once
	data []uint16
}

// BuildIndex constructs the entity-sorted index for the table's current
// rows. Most callers want Table.Index, which builds lazily and caches.
//
// Tables whose rows are already grouped by non-decreasing entity with no
// entity-less rows — as chunk-streamed ingest appends them — take the
// streaming path: one chunked pass over the entity column derives the
// group boundaries directly and the index is built in identity mode
// (rows == nil), so peak memory is the boundary arrays alone — no O(n)
// row permutation, no counting-sort offsets, and no per-attribute
// gathers ever (identity-mode columns alias the table's).
func BuildIndex(t *Table) *Index {
	if ix := buildSortedIndex(t); ix != nil {
		return ix
	}
	n := t.NumRows()
	numEnt := t.NumEntities()
	// Counting sort over entity IDs. Entity-less rows are appended after
	// the real groups, in row order, one singleton group each.
	counts := make([]int32, numEnt)
	anon := 0
	for _, e := range t.entities {
		if e < 0 {
			anon++
		} else {
			counts[e]++
		}
	}
	ix := &Index{t: t, n: n, rows: make([]int32, n)}
	numGroups := anon
	for _, c := range counts {
		if c > 0 {
			numGroups++
		}
	}
	ix.starts = make([]int32, 0, numGroups+1)
	ix.entities = make([]int32, 0, numGroups)
	// offsets[e] is where entity e's rows begin in ix.rows.
	offsets := make([]int32, numEnt)
	var pos int32
	for e, c := range counts {
		if c == 0 {
			continue
		}
		offsets[e] = pos
		ix.starts = append(ix.starts, pos)
		ix.entities = append(ix.entities, int32(e))
		if int(c) > ix.maxGroup {
			ix.maxGroup = int(c)
		}
		pos += c
	}
	anonPos := pos
	var nextAnon int32 = -1
	for row, e := range t.entities {
		if e < 0 {
			ix.rows[anonPos] = int32(row)
			ix.starts = append(ix.starts, anonPos)
			ix.entities = append(ix.entities, nextAnon)
			nextAnon--
			anonPos++
			continue
		}
		ix.rows[offsets[e]] = int32(row)
		offsets[e]++
	}
	if anon > 0 && ix.maxGroup == 0 {
		ix.maxGroup = 1
	}
	ix.starts = append(ix.starts, int32(n))
	ix.cols = make([]lazyCol, len(t.cols))
	return ix
}

// sortedScanChunk is the span size of the streamed entity-column pass in
// buildSortedIndex; it only bounds the scan loop's working set, never an
// allocation, so its exact value is immaterial to correctness.
const sortedScanChunk = 1 << 16

// buildSortedIndex returns an identity-mode index when the table's rows
// are already grouped by non-decreasing, non-negative entity, streaming
// the entity column in fixed-size chunks. It returns nil — and BuildIndex
// falls back to the counting sort — at the first out-of-order or
// entity-less row.
func buildSortedIndex(t *Table) *Index {
	ents := t.entities
	n := t.NumRows()
	ix := &Index{t: t, n: n}
	if n == 0 {
		ix.starts = []int32{0}
		ix.cols = make([]lazyCol, len(t.cols))
		return ix
	}
	prev := int32(-1)
	groupStart := 0
	for lo := 0; lo < n; lo += sortedScanChunk {
		hi := min(lo+sortedScanChunk, n)
		for p := lo; p < hi; p++ {
			e := ents[p]
			if e < 0 || e < prev {
				return nil
			}
			if e != prev {
				if p > groupStart {
					ix.addSortedGroup(prev, groupStart, p)
				}
				prev = e
				groupStart = p
			}
		}
	}
	ix.addSortedGroup(prev, groupStart, n)
	ix.starts = append(ix.starts, int32(n))
	ix.cols = make([]lazyCol, len(t.cols))
	return ix
}

func (ix *Index) addSortedGroup(e int32, lo, hi int) {
	ix.starts = append(ix.starts, int32(lo))
	ix.entities = append(ix.entities, e)
	if hi-lo > ix.maxGroup {
		ix.maxGroup = hi - lo
	}
}

// col returns attribute a's code column in index row order,
// materializing it on first use. The one-time gather through the row
// permutation (at most doubling the column's uint16 storage) is what
// lets every subsequent scan of the attribute read strictly
// sequentially — the dominant cost of the kernel. An identity-mode
// index (rows == nil) skips the gather entirely and aliases the
// table's column, which is already in index order.
func (ix *Index) col(a int) []uint16 {
	lc := &ix.cols[a]
	lc.once.Do(func() {
		src := ix.t.cols[a]
		if ix.rows == nil {
			lc.data = src
			return
		}
		re := make([]uint16, ix.n)
		for p, row := range ix.rows {
			re[p] = src[row]
		}
		lc.data = re
	})
	return lc.data
}

// NumGroups returns the number of entity groups (singleton groups for
// entity-less rows included).
func (ix *Index) NumGroups() int { return len(ix.entities) }

// cellStats is one cell's accumulated statistics. The four counters live
// in one 32-byte struct — half a cache line — so a fold touches one line
// where four parallel arrays would touch four; at paper scale the
// accumulator overflows L1 and the fold's random accesses dominate the
// scan, making this layout the difference between one and four L2 hits
// per touched cell.
type cellStats struct {
	count    int64
	max      int64
	second   int64
	entities int64
}

// partial is one worker's per-cell accumulator for one query.
type partial struct {
	stats []cellStats
	hist  []CellEntityCount
}

// reset prepares a (possibly reused) partial for a query of the given
// size. The stats array is grown or zeroed; the detailed histogram,
// which grows with the number of (cell, entity) runs — bounded by the
// shard's row count, not by the cell count — is sized from rowsHint on
// first detailed use and keeps its capacity across reuses. The
// non-detailed path carries no histogram at all.
func (p *partial) reset(size int, detailed bool, rowsHint int) {
	if cap(p.stats) < size {
		p.stats = make([]cellStats, size)
	} else {
		p.stats = p.stats[:size]
		clear(p.stats)
	}
	if detailed {
		if p.hist == nil {
			p.hist = make([]CellEntityCount, 0, rowsHint)
		}
		p.hist = p.hist[:0]
	} else {
		p.hist = nil
	}
}

// addRun folds one (cell, entity, count) contribution into the partial.
func (p *partial) addRun(cell int, entity int32, c int64, detailed bool) {
	st := &p.stats[cell]
	st.count += c
	st.entities++
	switch {
	case c > st.max:
		st.second = st.max
		st.max = c
	case c > st.second:
		st.second = c
	}
	if detailed {
		p.hist = append(p.hist, CellEntityCount{Cell: cell, Entity: entity, Count: c})
	}
}

// merge folds another worker's partial into p. Sums are order-free; the
// top-two contributions merge as the two largest of the four candidates.
func (p *partial) merge(o *partial) {
	for i := range p.stats {
		a, b := &p.stats[i], &o.stats[i]
		a.count += b.count
		a.entities += b.entities
		hi, lo := b.max, b.second
		if hi > a.max {
			a.second = max64(a.max, lo)
			a.max = hi
		} else if hi > a.second {
			a.second = hi
		}
		if lo > a.second {
			a.second = lo
		}
	}
	p.hist = append(p.hist, o.hist...)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// scanScratch is one worker's pooled scan state: the scatter accumulator
// and touched list of the sort-free kernel, plus the per-query partials.
// Ownership rule: a scratch is checked out of the index's pool for the
// duration of one shard scan (plus the fixed-order merge for shard 0's
// scratch) and returned before computeQueries returns; nothing that
// escapes to the caller may alias its storage — results are copied out.
type scanScratch struct {
	// cells is the scatter array, indexed by cell key. All-zero outside
	// the group currently being folded (see the Index.scratch invariant).
	// int32 halves the array's cache footprint vs int64; a single group's
	// per-cell count is bounded by the group's row count, which int32
	// covers for any table addressable by the int32 row IDs.
	cells []int32
	// touched records which cells the current (group, query) hit, so the
	// reset after folding is O(touched), not O(cells).
	touched []int
	// ps[k] accumulates query k's statistics for this worker's shard.
	ps []*partial
}

// checkout prepares a scratch for len(qs) queries of scatter width
// maxSize over a shard of rows rows.
func (sc *scanScratch) checkout(qs []*Query, maxSize int, detailed bool, rows, maxGroup int) {
	if cap(sc.cells) < maxSize {
		sc.cells = make([]int32, maxSize) // fresh ⇒ all-zero, preserving the pool invariant
	} else {
		sc.cells = sc.cells[:maxSize]
	}
	if cap(sc.touched) < maxGroup {
		sc.touched = make([]int, maxGroup)
	} else {
		sc.touched = sc.touched[:maxGroup]
	}
	for len(sc.ps) < len(qs) {
		sc.ps = append(sc.ps, &partial{})
	}
	sc.ps = sc.ps[:len(qs)]
	for k, q := range qs {
		sc.ps[k].reset(q.size, detailed, rows)
	}
}

// getScratch checks a scratch out of the pool (or creates one).
func (ix *Index) getScratch(qs []*Query, maxSize int, detailed bool, rows int) *scanScratch {
	sc, _ := ix.scratch.Get().(*scanScratch)
	if sc == nil {
		sc = &scanScratch{}
	}
	sc.checkout(qs, maxSize, detailed, rows, ix.maxGroup)
	return sc
}

// computeQueries evaluates the queries in one sharded pass over the
// entity groups. All queries share the pass: a worker evaluates every
// query over its shard (streaming each query's materialized columns
// sequentially) before the fixed-order merge, so a workload of several
// marginals pays one shard assignment and one scratch checkout. Groups
// of more than limit rows are skipped (see ComputeTruncated); an
// unfiltered scan passes math.MaxInt.
func (ix *Index) computeQueries(qs []*Query, detailed bool, limit int) ([]*Marginal, [][]CellEntityCount) {
	maxSize := 0
	for _, q := range qs {
		if ix.t.Schema() != q.schema {
			panic("table: query compiled against a different schema")
		}
		if q.size > maxSize {
			maxSize = q.size
		}
	}
	// Resolve each query's index-order column views once; they are
	// read-only and shared by every worker.
	plans := make([][][]uint16, len(qs))
	for k, q := range qs {
		cols := make([][]uint16, len(q.attrs))
		for i, a := range q.attrs {
			cols[i] = ix.col(a)
		}
		plans[k] = cols
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > ix.NumGroups() {
		workers = ix.NumGroups()
	}
	if workers < 1 {
		workers = 1
	}
	shards := ix.shardGroups(workers)
	states := make([]*scanScratch, len(shards))
	if len(shards) == 1 {
		// Single shard: scan inline — no goroutine, no synchronization.
		states[0] = ix.getScratch(qs, maxSize, detailed, ix.shardRows(shards[0]))
		ix.scanShard(shards[0][0], shards[0][1], qs, plans, states[0], detailed, limit)
	} else {
		var wg sync.WaitGroup
		for w := range shards {
			states[w] = ix.getScratch(qs, maxSize, detailed, ix.shardRows(shards[w]))
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ix.scanShard(shards[w][0], shards[w][1], qs, plans, states[w], detailed, limit)
			}(w)
		}
		wg.Wait()
	}

	// Merge shards in fixed order into shard 0's accumulators, then copy
	// the results out so every pooled buffer can be returned.
	acc := states[0]
	for w := 1; w < len(states); w++ {
		for k := range qs {
			acc.ps[k].merge(states[w].ps[k])
		}
		ix.scratch.Put(states[w])
	}
	outM := make([]*Marginal, len(qs))
	var outH [][]CellEntityCount
	if detailed {
		outH = make([][]CellEntityCount, len(qs))
	}
	for k, q := range qs {
		p := acc.ps[k]
		m := &Marginal{
			Query:                    q,
			Counts:                   make([]int64, q.size),
			MaxEntityContribution:    make([]int64, q.size),
			SecondEntityContribution: make([]int64, q.size),
			EntityCount:              make([]int64, q.size),
		}
		for i := range p.stats {
			st := &p.stats[i]
			m.Counts[i] = st.count
			m.MaxEntityContribution[i] = st.max
			m.SecondEntityContribution[i] = st.second
			m.EntityCount[i] = st.entities
		}
		outM[k] = m
		if detailed {
			hist := append([]CellEntityCount(nil), p.hist...)
			sort.Slice(hist, func(i, j int) bool {
				if hist[i].Cell != hist[j].Cell {
					return hist[i].Cell < hist[j].Cell
				}
				return hist[i].Entity < hist[j].Entity
			})
			outH[k] = hist
		}
	}
	ix.scratch.Put(acc)
	return outM, outH
}

// shardRows returns the number of rows the group span covers.
func (ix *Index) shardRows(shard [2]int) int {
	return int(ix.starts[shard[1]] - ix.starts[shard[0]])
}

// shardGroups splits the group range into contiguous spans of roughly
// equal row weight. Returns [lo, hi) group spans.
func (ix *Index) shardGroups(workers int) [][2]int {
	numGroups := ix.NumGroups()
	if workers <= 1 || numGroups <= 1 {
		return [][2]int{{0, numGroups}}
	}
	target := (ix.n + workers - 1) / workers
	var shards [][2]int
	lo := 0
	for lo < numGroups && len(shards) < workers-1 {
		hi := lo
		rows := 0
		for hi < numGroups && rows < target {
			rows += int(ix.starts[hi+1] - ix.starts[hi])
			hi++
		}
		shards = append(shards, [2]int{lo, hi})
		lo = hi
	}
	if lo < numGroups {
		shards = append(shards, [2]int{lo, numGroups})
	}
	return shards
}

// scanShard accumulates the groups [gLo, gHi) into the scratch's
// per-query partials with the sort-free scatter kernel: each group is a
// single O(g) pass that counts cell keys into the scatch array, records
// first touches, then folds and resets exactly the touched cells. Fold
// order is first-touch order — sums, top-two tracking and entity counts
// are order-free, and the detailed histogram is sorted afterwards, so
// the results are identical to the sorted-runs kernel this replaces.
// plans[k] holds query k's index-order column views. Groups of more
// than limit rows are skipped whole.
func (ix *Index) scanShard(gLo, gHi int, qs []*Query, plans [][][]uint16, sc *scanScratch, detailed bool, limit int) {
	cells, touched := sc.cells, sc.touched
	for k, q := range qs {
		p := sc.ps[k]
		cols := plans[k]
		for g := gLo; g < gHi; g++ {
			lo, hi := int(ix.starts[g]), int(ix.starts[g+1])
			if hi-lo > limit {
				continue
			}
			entity := ix.entities[g]
			if hi-lo == 1 {
				// Singleton group (entity-less rows, one-worker shops):
				// one run of count 1, no scatter needed.
				p.addRun(keyAt(cols, q.radices, lo), entity, 1, detailed)
				continue
			}
			nt := scatterGroup(cells, touched, cols, q.radices, lo, hi)
			for _, key := range touched[:nt] {
				p.addRun(key, entity, int64(cells[key]), detailed)
				cells[key] = 0
			}
		}
	}
}

// keyAt computes the cell key of index position p (mixed-radix over the
// query's columns).
func keyAt(cols [][]uint16, radices []int, p int) int {
	key := 0
	for j, col := range cols {
		key = key*radices[j] + int(col[p])
	}
	return key
}

// scatterGroup counts the cell keys of index positions [lo, hi) into the
// scatter array, recording each first touch, and returns the number of
// touched cells. The loops are specialized by query arity so the
// per-row key computation is fully unrolled for the common marginal
// shapes (the 0-ary body folds the whole group into cell 0 directly).
func scatterGroup(cells []int32, touched []int, cols [][]uint16, radices []int, lo, hi int) int {
	nt := 0
	note := func(key int) {
		if cells[key] == 0 {
			touched[nt] = key
			nt++
		}
		cells[key]++
	}
	switch len(cols) {
	case 0:
		cells[0] = int32(hi - lo)
		touched[0] = 0
		return 1
	case 1:
		c0 := cols[0][lo:hi]
		for i := range c0 {
			note(int(c0[i]))
		}
	case 2:
		r1 := radices[1]
		c0, c1 := cols[0][lo:hi], cols[1][lo:hi]
		for i := range c0 {
			note(int(c0[i])*r1 + int(c1[i]))
		}
	case 3:
		r1, r2 := radices[1], radices[2]
		c0, c1, c2 := cols[0][lo:hi], cols[1][lo:hi], cols[2][lo:hi]
		for i := range c0 {
			note((int(c0[i])*r1+int(c1[i]))*r2 + int(c2[i]))
		}
	default:
		for p := lo; p < hi; p++ {
			note(keyAt(cols, radices, p))
		}
	}
	return nt
}

// Compute evaluates one query over the index.
func (ix *Index) Compute(q *Query) *Marginal {
	qs := [1]*Query{q}
	ms, _ := ix.computeQueries(qs[:], false, math.MaxInt)
	return ms[0]
}

// ComputeAll evaluates many queries in one sharded pass over the index.
func (ix *Index) ComputeAll(qs []*Query) []*Marginal {
	if len(qs) == 0 {
		return nil
	}
	ms, _ := ix.computeQueries(qs, false, math.MaxInt)
	return ms
}

// ComputeDetailed evaluates one query and returns the per-entity
// histogram sorted by (cell, entity).
func (ix *Index) ComputeDetailed(q *Query) (*Marginal, []CellEntityCount) {
	qs := [1]*Query{q}
	ms, hs := ix.computeQueries(qs[:], true, math.MaxInt)
	return ms[0], hs[0]
}

// Truncation is what a θ-filtered scan leaves out: the entity groups of
// more than θ rows and the rows they hold.
type Truncation struct {
	RemovedGroups int
	RemovedRows   int
}

// ComputeTruncated evaluates one query over only the entities with at
// most theta rows: the marginal of the θ-truncated table (the node-DP
// projection of Section 6), computed without copying the table. An
// entity's row count is its group length in the index, so the scan is
// Compute's with every longer group skipped, and the result is
// bit-identical to computing the marginal over a copy that keeps only
// the short groups' rows. Every row must have an entity: an entity-less
// row has no employer whose size could be bounded.
func (ix *Index) ComputeTruncated(q *Query, theta int) (*Marginal, Truncation, error) {
	if theta < 1 {
		return nil, Truncation{}, fmt.Errorf("table: truncation threshold must be >= 1, got %d", theta)
	}
	if ix.hasEntityless() {
		return nil, Truncation{}, fmt.Errorf("table: truncation needs an entity on every row")
	}
	var tr Truncation
	for g := range ix.entities {
		if n := int(ix.starts[g+1] - ix.starts[g]); n > theta {
			tr.RemovedGroups++
			tr.RemovedRows += n
		}
	}
	qs := [1]*Query{q}
	ms, _ := ix.computeQueries(qs[:], false, theta)
	return ms[0], tr, nil
}

// hasEntityless reports whether the index holds entity-less rows. Their
// singleton groups always come last (BuildIndex appends them after the
// entity groups; the other constructors refuse them).
func (ix *Index) hasEntityless() bool {
	n := len(ix.entities)
	return n > 0 && ix.entities[n-1] < 0
}
