package core

import (
	"fmt"

	"repro/internal/lodes"
	"repro/internal/table"
)

// Epoch-snapshot serving: the versioned-dataset side of the publisher.
//
// One epochSnapshot bundles everything a release reads — the dataset,
// its entity-sorted index, and the marginal cache holding that epoch's
// truths — so pinning the snapshot pointer at the top of a release
// path is all the isolation a reader needs. Advance builds the
// successor off to the side (incremental index maintenance, selective
// cache carry-over) and installs it with one atomic store; in-flight
// releases keep their pinned snapshot until they finish, and nothing
// ever blocks on an update.

// epochSnapshot is one immutable epoch of the versioned dataset: the
// data, its index (inside the table), and the marginal cache whose
// entries are truths of exactly this epoch.
type epochSnapshot struct {
	epoch int
	data  *lodes.Dataset
	cache *marginalCache
}

// Advance absorbs one quarterly delta: it applies the delta to the
// current snapshot's dataset, maintains the entity-sorted index
// incrementally (table.MergeIndex — O(establishment groups), no
// counting sort, no column gather), selectively invalidates the
// marginal cache, and installs the successor snapshot. Releases in
// flight keep serving from their pinned snapshot; releases that start
// after Advance returns see the new epoch. Advances serialize with
// each other.
//
// Cache maintenance: a cached marginal survives the epoch bump either
// untouched — its affected-cell set (table.AffectedCells over the
// delta's touched establishments) is empty, so the truth is
// bit-identical in the new epoch — or *patched*: the delta's
// contribution is applied to the cached truth through its maintained
// view (table.MarginalView.ApplyFrame — O(rows in the touched groups),
// no rescan), counted in CacheStats.Patches. The cache holds canonical
// truths only, so there is nothing else to re-derive: other attribute
// orders are remapped per request from whatever the new epoch holds.
// Only entries the maintenance path cannot handle (a poisoned view, a
// heavy delta) are evicted and recomputed on demand. Entries are keyed
// by version structurally: each epoch owns its cache, so a truth can
// never leak across epochs.
//
// Advance moves no accountant's ledger: the caller advances each
// accountant it charges (privacy.Accountant.AdvanceEpoch, or the
// journaled privacy.Registry.AdvanceEpoch), so later charges are
// attributed to the new epoch. An update never refreshes the budget.
func (p *Publisher) Advance(delta *lodes.Delta) error {
	p.advanceMu.Lock()
	defer p.advanceMu.Unlock()
	old := p.snap.Load()
	next, err := old.data.ApplyDelta(delta)
	if err != nil {
		return fmt.Errorf("core: advance: %w", err)
	}
	touched, touchedRows, kept := delta.TouchedKept(old.data)
	baseIx := old.data.WorkerFull.Index()
	nextIx, err := table.MergeIndex(baseIx, next.WorkerFull, touched, touchedRows)
	if err != nil {
		return fmt.Errorf("core: advance: %w", err)
	}
	next.WorkerFull.AdoptIndex(nextIx)

	cache := newMarginalCache(next.Epoch)
	carried, patched, evicted := p.maintainEntries(old, baseIx, nextIx, touched, kept, next.Epoch)
	cache.seed(carried)
	cache.stats.patches.Store(patched)
	cache.stats.evictions.Store(evicted)

	sn := &epochSnapshot{epoch: next.Epoch, data: next, cache: cache}
	p.historyMu.Lock()
	p.history = append(p.history, cache.stats)
	p.historyMu.Unlock()
	p.snap.Store(sn)
	return nil
}

// patchChurnCeiling is the fraction of base establishment groups an
// advance may touch before it counts as heavy. A non-flat view keeps no
// per-establishment state, so patching it re-reads every touched group
// — kept prefix, removed suffix and appended tail — over the view's
// dynamic attributes: O(rows in touched groups × dynamic attributes).
// BLS-calibrated churn touches ~15% of establishments, whose groups
// hold about a fifth of the rows; the stress generators touch nearly
// all of them, where a patch costs as much as the rescan it avoids.
// Heavy advances evict non-flat truths instead. Flatness is only known
// once a view exists, so heavy advances never build new views.
const patchChurnCeiling = 0.5

// maintainEntries carries the old epoch's committed truths — one per
// canonical attribute set — into the successor epoch, patching the ones
// the delta affected through their maintained view (built lazily, on
// the first Advance that affects them, from the base index). A view's
// state is per cell — the truth, each cell's top-contributor window and
// per-cell scratch, about 90 bytes a cell beyond the truth — and it
// reads every touched establishment's rows back from the two indexes,
// so its memory does not grow with the table. Any truth the maintenance
// path cannot handle is evicted instead. Runs under advanceMu — the
// views map, each view's scratch and the shared frame are single-writer
// by construction.
func (p *Publisher) maintainEntries(old *epochSnapshot, baseIx, nextIx *table.Index, touched, kept []int32, nextEpoch int) (carried map[string]*marginalEntry, patched, evicted int64) {
	entries := old.cache.committed()
	// liveViews is the successor epoch's view set: views for truths that
	// survive. Everything else (stale epochs, evicted truths, truths no
	// longer cached) is garbage and dropped with the swap.
	liveViews := make(map[string]*maintainedView)
	defer func() { p.views = liveViews }()
	if len(entries) == 0 {
		return nil, 0, 0
	}

	keys := make([]string, 0, len(entries))
	qs := make([]*table.Query, 0, len(entries))
	for key, e := range entries {
		keys = append(keys, key)
		qs = append(qs, e.q)
	}
	affected := table.Affected(baseIx, nextIx, touched, qs)

	// Cost gate: patching a non-flat view is O(rows in touched groups ×
	// dynamic attributes) while the rescan it avoids is O(table rows ×
	// attributes), so once a delta churns most of the frame — the stress
	// regimes, not BLS reality — patching costs as much as it saves.
	// Heavy advances evict those truths instead (recomputed on demand,
	// exactly the pre-maintenance behavior); flat views patch in O(1) per
	// span and stay worth patching at any churn level. The signal counts
	// touched establishments against base groups (newborns inflate it
	// slightly — conservative in the right direction).
	heavy := baseIx.NumGroups() > 0 &&
		float64(len(touched))/float64(baseIx.NumGroups()) > patchChurnCeiling

	// One frame — the validated touched-establishment span descriptor —
	// shared by every view patched this advance, built lazily so an
	// advance that patches nothing (a heavy one, or one with no live
	// views) never pays the span compilation. If the delta's shape is
	// inconsistent with the indexes nothing can be patched; affected
	// truths are evicted below and recomputed on demand.
	var frame *table.PatchFrame
	var frameErr error
	frameBuilt := false
	getFrame := func() (*table.PatchFrame, error) {
		if !frameBuilt {
			frame, frameErr = table.NewPatchFrame(baseIx, nextIx, touched, kept)
			frameBuilt = true
		}
		return frame, frameErr
	}

	carried = make(map[string]*marginalEntry, len(entries))
	for i, key := range keys {
		e := entries[key]
		mv := p.views[key]
		if mv != nil && mv.epoch != old.epoch {
			mv = nil // stale: it missed a delta
		}
		if !affected[i] {
			// Truth bit-identical across the bump: carry the entry as-is.
			// An existing view still absorbs the frame, so it reflects the
			// successor index the *next* frame is based on.
			if mv != nil {
				if f, err := getFrame(); err == nil {
					if _, _, err := mv.view.ApplyFrame(f); err == nil {
						mv.epoch = nextEpoch
						liveViews[key] = mv
					}
				}
			}
			carried[key] = e
			continue
		}
		if heavy && (mv == nil || !mv.view.Flat()) {
			evicted++
			continue
		}
		f, ferr := getFrame()
		if ferr != nil {
			evicted++
			continue
		}
		if mv == nil {
			v, err := table.NewMarginalView(baseIx, e.q)
			if err != nil {
				evicted++
				continue
			}
			mv = &maintainedView{view: v, epoch: old.epoch}
		}
		newM, _, err := mv.view.ApplyFrame(f)
		if err != nil {
			// Poisoned view: evict the truth, recompute on demand.
			evicted++
			continue
		}
		carried[key] = newMarginalEntry(e.q, newM)
		mv.epoch = nextEpoch
		liveViews[key] = mv
		patched++
	}
	return carried, patched, evicted
}
