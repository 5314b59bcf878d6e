package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/mech"
	"repro/internal/table"
)

// The publisher's marginal cache. Computing a marginal is a full pass
// over the WorkerFull relation; the paper's evaluation (and any serving
// deployment) asks for the same handful of marginals under thousands of
// (mechanism, α, ε) combinations, so the truth is computed once per
// attribute set and reused. Only the noise differs between releases —
// and noise is what privacy budgets pay for, so reusing the truth is
// free in privacy terms.
//
// The cache holds exactly one entry per attribute set, keyed by its
// canonical spelling (attributes sorted in schema order): a released
// marginal depends only on the set V (Definition 2.1), and attribute
// order only renumbers its cells. A request in canonical order finds its
// truth with one key build and one lookup. Any other order is served by
// remapping the canonical entry's cells for that request alone — a
// permutation of mixed-radix digits, O(cells) instead of O(rows) — and
// the remapped copy is never cached.
//
// Concurrency: the cache is built for read-mostly serving traffic.
// Committed entries live in copy-on-write maps sharded by key hash and
// published through atomic pointers, so the steady-state hit path is a
// single atomic load plus a map lookup — no mutex, no contended cache
// line, throughput scales with GOMAXPROCS. Writes (rare: one per
// distinct marginal over the publisher's lifetime) clone the shard's map
// under its mutex. Misses go through a per-key singleflight: the first
// requester of an uncached marginal becomes the scan's leader, and every
// concurrent requester of the same key waits on the leader's result
// instead of scanning again — N concurrent misses cost exactly one pass
// over the table (the stampede test pins this under the race detector).

// CacheStats reports one epoch's marginal-cache effectiveness. A hit
// means a release skipped the full-table scan (whether served directly,
// by remapping a canonical entry, by waiting on a scan another request
// had already started, or from an entry carried over an epoch bump);
// Misses counts marginals that had to be computed — one table scan each
// on the point-miss path, while PrefetchMarginals computes all of its
// misses in a single shared pass. The cache holds one truth per
// canonical attribute set, so Patches and Evictions count canonical
// truths only. Patches counts the truths the Advance that created the
// epoch carried by *patching* (incremental view maintenance: the
// delta's contribution applied in place, no rescan). Evictions counts
// the truths that Advance dropped instead (entries the maintenance path
// could not patch); an epoch's cache is append-only, so nothing is
// evicted during the epoch. Refused requests — invalid parameters, unknown attributes or
// cells, or an exhausted budget — never touch the cache or its counters.
//
// Counters are per-epoch: each Advance starts a fresh set (see
// Publisher.CacheStatsByEpoch), so hit rates are attributable to the
// epoch that served them rather than smeared across the dataset's
// lifetime.
type CacheStats struct {
	Epoch     int
	Hits      int64
	Misses    int64
	Patches   int64
	Evictions int64
}

// cacheCounters is one epoch's live counter set. The publisher keeps a
// reference per epoch (CacheStatsByEpoch) while the cache itself
// updates it; releases pinned to an old snapshot keep counting against
// their own epoch after newer ones exist.
type cacheCounters struct {
	epoch     int
	hits      atomic.Int64
	misses    atomic.Int64
	patches   atomic.Int64
	evictions atomic.Int64
}

// view snapshots the counters.
func (cc *cacheCounters) view() CacheStats {
	return CacheStats{
		Epoch:     cc.epoch,
		Hits:      cc.hits.Load(),
		Misses:    cc.misses.Load(),
		Patches:   cc.patches.Load(),
		Evictions: cc.evictions.Load(),
	}
}

// marginalEntry is one truth: the compiled query, its marginal, and the
// per-cell mechanism inputs derived from it. A cached entry is always
// over the canonical query; a remapped copy for another attribute order
// lives only as long as the request that asked for it.
type marginalEntry struct {
	q     *table.Query
	m     *table.Marginal
	cells []mech.CellInput
}

func newMarginalEntry(q *table.Query, m *table.Marginal) *marginalEntry {
	return &marginalEntry{q: q, m: m, cells: CellInputs(m)}
}

// marginalCacheShards is the number of copy-on-write shards. A small
// power of two: the shard count only has to keep writers (first-time
// computes) from colliding, because readers never take a lock at all.
const marginalCacheShards = 16

// marginalCache is the sharded, singleflighted store behind the
// publisher's truth lookups. It is append-only: an entry, once
// committed, is served for the rest of the epoch. Every dataset change
// goes through Advance, which builds a new snapshot with its own cache,
// so a truth never goes stale in place.
type marginalCache struct {
	stats  *cacheCounters
	shards [marginalCacheShards]cacheShard
}

// cacheShard holds the committed entries for one hash slice of the key
// space plus the in-flight scans for keys not yet committed.
type cacheShard struct {
	// entries is the committed map, replaced wholesale on every write
	// (copy-on-write). Readers Load it and look up without locking; the
	// map value is never mutated after Store.
	entries atomic.Pointer[map[string]*marginalEntry]
	// mu serializes writers and guards inflight.
	mu       sync.Mutex
	inflight map[string]*inflightScan
}

// inflightScan is one leader's pending compute; followers block on done.
type inflightScan struct {
	done chan struct{}
	e    *marginalEntry
	err  error
}

func newMarginalCache(epoch int) *marginalCache {
	c := &marginalCache{stats: &cacheCounters{epoch: epoch}}
	for i := range c.shards {
		empty := make(map[string]*marginalEntry)
		c.shards[i].entries.Store(&empty)
		c.shards[i].inflight = make(map[string]*inflightScan)
	}
	return c
}

// shardOf hashes the key (FNV-1a, inlined so the hot path allocates
// nothing) onto a shard.
func (c *marginalCache) shardOf(key string) *cacheShard {
	const (
		offset64 = 0xcbf29ce484222325
		prime64  = 0x100000001b3
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime64
	}
	return &c.shards[h%marginalCacheShards]
}

// lookup returns the committed entry for the key, if any: one atomic
// load and a map read, safe under any concurrency.
func (c *marginalCache) lookup(key string) (*marginalEntry, bool) {
	e, ok := (*c.shardOf(key).entries.Load())[key]
	return e, ok
}

// commitLocked publishes an entry into the shard's committed map. The
// caller holds sh.mu. Existing entries are kept (first writer wins), so
// every reader of a key observes one shared *marginalEntry forever.
func (sh *cacheShard) commitLocked(key string, e *marginalEntry) *marginalEntry {
	old := *sh.entries.Load()
	if prev, ok := old[key]; ok {
		return prev
	}
	next := make(map[string]*marginalEntry, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[key] = e
	sh.entries.Store(&next)
	return e
}

// errScanAborted is handed to singleflight followers whose leader died
// without producing a result or an error (a panic inside the scan); the
// key itself stays retryable.
var errScanAborted = errors.New("core: marginal scan aborted")

// registerFlight claims the key's singleflight slot; the caller holds
// sh.mu and must finishFlight exactly once afterwards.
func (sh *cacheShard) registerFlight(key string) *inflightScan {
	fl := &inflightScan{done: make(chan struct{})}
	sh.inflight[key] = fl
	return fl
}

// finishFlight completes a registered flight: commits its result (if
// the scan succeeded), counts the scan, unregisters the flight, and
// releases followers. It reports whether the flight produced an entry.
// Call it via defer so a panicking scan cannot leave followers blocked
// on a never-closed channel — a flight finished with neither a result
// nor an error marks itself aborted instead.
func (c *marginalCache) finishFlight(key string, fl *inflightScan) (fresh bool) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	if fl.err == nil && fl.e == nil {
		fl.err = errScanAborted
	}
	if fl.err == nil {
		fl.e = sh.commitLocked(key, fl.e)
		c.stats.misses.Add(1)
		fresh = true
	}
	delete(sh.inflight, key)
	sh.mu.Unlock()
	close(fl.done)
	return fresh
}

// getOrCompute returns the entry for the key, running compute at most
// once across all concurrent callers (per-key singleflight). fresh
// reports whether this call's compute produced the entry — i.e. whether
// this caller paid for a table scan. A scan that completes successfully
// increments the miss counter (misses count scans, nothing else).
func (c *marginalCache) getOrCompute(key string, compute func() (*marginalEntry, error)) (e *marginalEntry, fresh bool, err error) {
	sh := c.shardOf(key)
	if e, ok := (*sh.entries.Load())[key]; ok {
		return e, false, nil
	}
	sh.mu.Lock()
	if e, ok := (*sh.entries.Load())[key]; ok {
		// Committed between the optimistic read and the lock.
		sh.mu.Unlock()
		return e, false, nil
	}
	if fl, ok := sh.inflight[key]; ok {
		// Another goroutine is already scanning for this key: follow it.
		sh.mu.Unlock()
		<-fl.done
		return fl.e, false, fl.err
	}
	fl := sh.registerFlight(key)
	sh.mu.Unlock()

	defer func() {
		fresh = c.finishFlight(key, fl)
		e, err = fl.e, fl.err
	}()
	fl.e, fl.err = compute()
	return
}

// committed returns every committed entry across the shards — the
// Advance path enumerates them to decide which truths survive the
// epoch bump.
func (c *marginalCache) committed() map[string]*marginalEntry {
	out := make(map[string]*marginalEntry)
	for i := range c.shards {
		for k, v := range *c.shards[i].entries.Load() {
			out[k] = v
		}
	}
	return out
}

// seed pre-populates the cache with entries carried over from the
// previous epoch. Called on a cache not yet published to any reader.
func (c *marginalCache) seed(entries map[string]*marginalEntry) {
	for key, e := range entries {
		sh := c.shardOf(key)
		sh.mu.Lock()
		sh.commitLocked(key, e)
		sh.mu.Unlock()
	}
}

// exactKey identifies an attribute list in request order. Entries are
// cached under the canonical spelling's key only.
func exactKey(attrs []string) string { return strings.Join(attrs, "\x1f") }

// canonicalQuery compiles the attribute list into its canonical query —
// attributes sorted in schema order, the cache's canonical form — or an
// ErrUnknownMarginal for lists the schema cannot compile.
func (sn *epochSnapshot) canonicalQuery(attrs []string) (*table.Query, error) {
	schema := sn.data.Schema()
	idx, err := schema.Resolve(attrs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnknownMarginal, err)
	}
	sort.Ints(idx)
	names := make([]string, len(idx))
	for i, a := range idx {
		names[i] = schema.Attr(a).Name
	}
	q, err := table.NewQuery(schema, names...)
	if err != nil {
		return nil, err
	}
	return q, nil
}

// computeEntry runs the full-table scan for a compiled query.
func (sn *epochSnapshot) computeEntry(q *table.Query) *marginalEntry {
	return newMarginalEntry(q, table.Compute(sn.data.WorkerFull, q))
}

// truthRef is an attribute list resolved against a snapshot before any
// truth is fetched: the request-order query, the canonical query and
// its cache key, and the committed canonical entry when the request's
// own spelling found it. The release paths resolve, then admit, then
// fetch, so a refused request never scans, caches or counts.
type truthRef struct {
	q     *table.Query   // request order
	canon *table.Query   // schema order; q itself for the canonical spelling
	key   string         // the canonical spelling's cache key
	hit   *marginalEntry // the committed entry the request's own key found
}

// resolve validates and compiles the attribute list. A canonical
// spelling whose truth is cached costs one key build and one lookup;
// anything else is canonicalized (ErrUnknownMarginal for lists the
// schema cannot compile).
func (sn *epochSnapshot) resolve(attrs []string) (truthRef, error) {
	key := exactKey(attrs)
	if e, ok := sn.cache.lookup(key); ok {
		return truthRef{q: e.q, canon: e.q, key: key, hit: e}, nil
	}
	canon, err := sn.canonicalQuery(attrs)
	if err != nil {
		return truthRef{}, err
	}
	r := truthRef{q: canon, canon: canon, key: exactKey(canon.AttrNames())}
	if r.key != key {
		if r.q, err = table.NewQuery(sn.data.Schema(), attrs...); err != nil {
			return truthRef{}, err
		}
	}
	return r, nil
}

// canonical returns the epoch's canonical truth for the resolved set,
// computing and caching it on first use. The entry is shared: its
// query, marginal and cell inputs must be treated as read-only.
//
// Concurrent requests for the same uncached set trigger exactly one
// table scan — the per-key singleflight makes every other requester a
// follower of the first (the scan itself still parallelizes internally
// via the table index). Requests for cached sets never touch a lock.
func (sn *epochSnapshot) canonical(r truthRef) (*marginalEntry, error) {
	c := sn.cache
	if r.hit != nil {
		c.stats.hits.Add(1)
		return r.hit, nil
	}
	e, fresh, err := c.getOrCompute(r.key, func() (*marginalEntry, error) {
		return sn.computeEntry(r.canon), nil
	})
	if err != nil {
		return nil, err
	}
	if !fresh {
		// Raced with a concurrent scan, followed one already in flight, or
		// reused a committed truth (for non-canonical orders only the cell
		// numbering changes): a hit either way.
		c.stats.hits.Add(1)
	}
	return e, nil
}

// truth returns the resolved set's truth in request order: the cached
// canonical entry itself for the canonical spelling, or a copy remapped
// for this request alone for any other order.
func (sn *epochSnapshot) truth(r truthRef) (*marginalEntry, error) {
	e, err := sn.canonical(r)
	if err != nil || r.q == r.canon {
		return e, err
	}
	return newMarginalEntry(r.q, remapMarginal(e.m, r.q)), nil
}

// canonicalCell maps a cell key of the request-order query to the same
// cell's key in the canonical query.
func (r truthRef) canonicalCell(cell int) int {
	if r.q == r.canon {
		return cell
	}
	strides := placeValues(r.canon, r.q)
	src := 0
	for j, code := range r.q.DecodeCell(cell, nil) {
		src += code * strides[j]
	}
	return src
}

// placeValues returns, for each of dst's attributes in dst's order, its
// place value in src's mixed-radix cell keys. src and dst must name the
// same attribute set.
func placeValues(src, dst *table.Query) []int {
	place := make([]int, len(src.Attrs()))
	v := 1
	for j := len(place) - 1; j >= 0; j-- {
		place[j] = v
		v *= src.Schema().Attr(src.Attrs()[j]).Size()
	}
	out := make([]int, len(dst.Attrs()))
	for i, a := range dst.Attrs() {
		for j, b := range src.Attrs() {
			if a == b {
				out[i] = place[j]
			}
		}
	}
	return out
}

// remapMarginal re-expresses a marginal under a query over the same
// attribute set in a different order. Cell keys are mixed-radix
// encodings of the per-attribute codes, so destination cell c holds
// source cell Σ digit_j(c)·stride_j, where stride_j is the place value
// in the source of the destination's j-th attribute. Walking the
// destination cells in order advances their digits like an odometer —
// the last digit fastest — so the source key moves by one stride per
// step and rewinds on each carry, with no per-cell decode or encode.
func remapMarginal(src *table.Marginal, dst *table.Query) *table.Marginal {
	strides := placeValues(src.Query, dst)
	radices := make([]int, len(strides))
	for j, a := range dst.Attrs() {
		radices[j] = dst.Schema().Attr(a).Size()
	}
	n := dst.NumCells()
	out := &table.Marginal{
		Query:                    dst,
		Counts:                   make([]int64, n),
		MaxEntityContribution:    make([]int64, n),
		SecondEntityContribution: make([]int64, n),
		EntityCount:              make([]int64, n),
	}
	digits := make([]int, len(strides))
	s := 0
	for cell := 0; cell < n; cell++ {
		out.Counts[cell] = src.Counts[s]
		out.MaxEntityContribution[cell] = src.MaxEntityContribution[s]
		out.SecondEntityContribution[cell] = src.SecondEntityContribution[s]
		out.EntityCount[cell] = src.EntityCount[s]
		for j := len(digits) - 1; j >= 0; j-- {
			digits[j]++
			s += strides[j]
			if digits[j] < radices[j] {
				break
			}
			digits[j] = 0
			s -= strides[j] * radices[j]
		}
	}
	return out
}

// Marginal returns the (cached) true marginal for the attribute set on
// the current epoch, in the given attribute order. For the canonical
// order the marginal is shared with the cache; for any other order it is
// a copy remapped for this call. Either way it must be treated as
// read-only — it is the confidential truth, retained for evaluation.
func (p *Publisher) Marginal(attrs []string) (*table.Marginal, error) {
	sn := p.snap.Load()
	r, err := sn.resolve(attrs)
	if err != nil {
		return nil, err
	}
	e, err := sn.truth(r)
	if err != nil {
		return nil, err
	}
	return e.m, nil
}

// PrefetchMarginals computes every not-yet-cached marginal among the
// attribute sets in a single sharded pass over the table (the
// incremental-view-maintenance move: pay one scan, answer many queries).
//
// The prefetched keys are registered as in-flight scans for the duration
// of the pass, so point lookups arriving mid-prefetch wait for its
// result instead of scanning on their own. Two overlapping prefetches
// can still each run a pass (the second skips every key the first
// already claimed); the committed results are identical truths either
// way.
func (p *Publisher) PrefetchMarginals(attrSets [][]string) error {
	sn := p.snap.Load()
	refs := make([]truthRef, len(attrSets))
	for i, attrs := range attrSets {
		r, err := sn.resolve(attrs)
		if err != nil {
			return err
		}
		refs[i] = r
	}
	sn.prefetch(refs)
	return nil
}

// prefetch is PrefetchMarginals over already-resolved sets, pinned to
// one snapshot (the batch path pins once for losses, prefetch and noise
// together).
func (sn *epochSnapshot) prefetch(refs []truthRef) {
	c := sn.cache
	var missing []*table.Query
	var flights []*inflightScan
	var keys []string
	seen := make(map[string]bool)
	// Every registered flight is finished exactly once — on success, on
	// error, and on a panic inside the scan (followers of an unfinished
	// flight would block forever).
	finished := 0
	defer func() {
		for i := finished; i < len(flights); i++ {
			c.finishFlight(keys[i], flights[i])
		}
	}()
	for _, r := range refs {
		key := r.key
		if r.hit != nil || seen[key] {
			continue
		}
		seen[key] = true
		sh := c.shardOf(key)
		sh.mu.Lock()
		if _, ok := (*sh.entries.Load())[key]; ok {
			sh.mu.Unlock()
			continue
		}
		if _, ok := sh.inflight[key]; ok {
			// Another scan (point miss or concurrent prefetch) already owns
			// this key; it will commit the identical truth.
			sh.mu.Unlock()
			continue
		}
		fl := sh.registerFlight(key)
		sh.mu.Unlock()
		missing = append(missing, r.canon)
		flights = append(flights, fl)
		keys = append(keys, key)
	}
	if len(missing) == 0 {
		return
	}
	for i, m := range table.ComputeAll(sn.data.WorkerFull, missing) {
		flights[i].e = newMarginalEntry(missing[i], m)
		c.finishFlight(keys[i], flights[i])
		finished++
	}
}

// MarginalCacheStats returns the current epoch's cache counters.
func (p *Publisher) MarginalCacheStats() CacheStats {
	return p.snap.Load().cache.stats.view()
}

// CacheStatsByEpoch returns every epoch's cache counters, oldest
// first. Counters of earlier epochs are still live while releases
// pinned to their snapshots are in flight.
func (p *Publisher) CacheStatsByEpoch() []CacheStats {
	p.historyMu.Lock()
	defer p.historyMu.Unlock()
	out := make([]CacheStats, len(p.history))
	for i, cc := range p.history {
		out[i] = cc.view()
	}
	return out
}
