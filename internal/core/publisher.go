// Package core assembles the paper's contribution into a publisher: it
// answers marginal queries over a LODES dataset under a chosen privacy
// definition and mechanism, computing per-cell smooth sensitivity from
// the data, validating parameter regions, deriving the effective privacy
// loss of the release (including the d·ε rule for weak ER-EE privacy over
// worker attributes), and optionally charging a budget accountant.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bipartite"
	"repro/internal/dist"
	"repro/internal/lodes"
	"repro/internal/mech"
	"repro/internal/privacy"
	"repro/internal/table"
)

// MechanismKind selects one of the release mechanisms.
type MechanismKind int

const (
	// MechLogLaplace is Algorithm 1.
	MechLogLaplace MechanismKind = iota
	// MechSmoothGamma is Algorithm 2.
	MechSmoothGamma
	// MechSmoothLaplace is Algorithm 3.
	MechSmoothLaplace
	// MechEdgeLaplace is the edge-DP baseline (Laplace(1/ε)).
	MechEdgeLaplace
	// MechTruncatedLaplace is the node-DP baseline (θ-truncation +
	// Laplace(θ/ε)).
	MechTruncatedLaplace
)

// String names the mechanism kind.
func (k MechanismKind) String() string {
	switch k {
	case MechLogLaplace:
		return "log-laplace"
	case MechSmoothGamma:
		return "smooth-gamma"
	case MechSmoothLaplace:
		return "smooth-laplace"
	case MechEdgeLaplace:
		return "edge-laplace"
	case MechTruncatedLaplace:
		return "truncated-laplace"
	}
	return fmt.Sprintf("MechanismKind(%d)", int(k))
}

// ParseMechanismKind resolves a mechanism name as used on command lines.
func ParseMechanismKind(name string) (MechanismKind, error) {
	for _, k := range []MechanismKind{
		MechLogLaplace, MechSmoothGamma, MechSmoothLaplace, MechEdgeLaplace, MechTruncatedLaplace,
	} {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown mechanism %q", ErrInvalidRequest, name)
}

// Request describes one release: the marginal to publish and the
// mechanism and parameters to publish it with.
type Request struct {
	// Attrs are the marginal query's attributes (Definition 2.1's V).
	Attrs []string
	// Mechanism selects the release algorithm.
	Mechanism MechanismKind
	// Alpha is the establishment-size protection window (unused by the
	// edge/node DP baselines).
	Alpha float64
	// Eps is the privacy-loss parameter.
	Eps float64
	// Delta is the failure probability (Smooth Laplace only).
	Delta float64
	// Theta is the truncation threshold (Truncated Laplace only).
	Theta int
}

// Release is the result of answering one request.
type Release struct {
	// Epoch is the dataset epoch the release was computed against. A
	// release pinned to epoch N reflects epoch N's rows even if an
	// Advance installed a newer snapshot while it was in flight.
	Epoch int
	// Query is the compiled marginal query.
	Query *table.Query
	// Truth is the true marginal (confidential; retained for evaluation —
	// a production deployment would not return it), in the request's
	// attribute order. For the canonical (schema) order it is shared with
	// the publisher's marginal cache and every other such release; for any
	// other order it is a copy remapped for this release. Either way it
	// must be treated as read-only.
	Truth *table.Marginal
	// Noisy holds the released counts, indexed by cell key.
	Noisy []float64
	// Loss is the effective privacy loss of the whole release, after
	// marginal composition.
	Loss privacy.Loss
	// MechanismName records the concrete mechanism and parameters.
	MechanismName string
	// Truncation is set for Truncated Laplace releases: θ and the
	// employers and jobs the truncation removed. Its Kept table is nil:
	// the truncated counts come from a θ-filtered scan of the snapshot's
	// index, and no truncated table is ever built.
	Truncation *bipartite.TruncationResult
}

// Publisher answers release requests over one versioned dataset. It is
// safe for concurrent use: the truth for each marginal is computed at
// most once per epoch (concurrent first requests singleflight onto one
// scan) and served from a sharded copy-on-write cache whose hit path
// takes no lock at all (see cache.go), and budget accounting serializes
// inside the Accountant.
//
// Serving is snapshot-isolated: the current epoch — the dataset, its
// index and its marginal cache — lives behind one atomic pointer, and
// every release pins the snapshot it started on. Advance applies a
// quarterly delta and installs the successor snapshot without blocking
// in-flight releases: a release started on epoch N never reads epoch
// N+1 rows (see epoch.go).
type Publisher struct {
	// snap is the current epoch snapshot; readers Load it exactly once
	// per operation and use only that snapshot throughout.
	snap atomic.Pointer[epochSnapshot]
	// advanceMu serializes snapshot installation (Advance).
	advanceMu sync.Mutex
	// historyMu guards history, the per-epoch cache counters backing
	// CacheStatsByEpoch. Old epochs' counters stay live: a release
	// pinned to an earlier snapshot still counts its hits there.
	historyMu sync.Mutex
	history   []*cacheCounters

	// views holds the live maintenance state of cached canonical truths,
	// keyed like the cache: the per-cell top-K tracking that lets Advance
	// patch a truth in place instead of evicting it
	// (table.MarginalView). Views are built
	// lazily — on the first Advance that affects a cached truth — and
	// consulted, mutated and pruned only under advanceMu.
	views map[string]*maintainedView
}

// maintainedView pairs one plan's maintenance state with the epoch its
// truth reflects; a view whose epoch is not the Advance's base epoch is
// stale (it missed a delta) and is dropped rather than patched.
type maintainedView struct {
	view  *table.MarginalView
	epoch int
}

// NewPublisher creates a publisher serving the dataset as its initial
// epoch snapshot.
func NewPublisher(d *lodes.Dataset) *Publisher {
	if d == nil {
		panic("core: nil dataset")
	}
	p := &Publisher{views: make(map[string]*maintainedView)}
	sn := &epochSnapshot{epoch: d.Epoch, data: d, cache: newMarginalCache(d.Epoch)}
	p.snap.Store(sn)
	p.history = []*cacheCounters{sn.cache.stats}
	return p
}

// Dataset returns the current epoch's dataset.
func (p *Publisher) Dataset() *lodes.Dataset { return p.snap.Load().data }

// Epoch returns the epoch of the snapshot currently being served.
func (p *Publisher) Epoch() int { return p.snap.Load().epoch }

// definitionFor returns the privacy definition a request's release
// satisfies: the paper's Theorem 8.1 dichotomy for the ER-EE mechanisms
// (strong for establishment-attribute queries, weak once worker
// attributes appear), and the graph-DP definitions for the baselines.
func definitionFor(kind MechanismKind, attrs []string) privacy.Definition {
	switch kind {
	case MechEdgeLaplace:
		return privacy.EdgeDP
	case MechTruncatedLaplace:
		return privacy.NodeDP
	}
	for _, a := range attrs {
		if lodes.IsWorkerAttr(a) {
			return privacy.WeakEREE
		}
	}
	return privacy.StrongEREE
}

// NewCellMechanism constructs the cell-level mechanism of a kind. Parameters
// outside the mechanism's validity region return mech's own error, unwrapped;
// a kind that is not a cell-level mechanism returns an ErrInvalidRequest.
func NewCellMechanism(kind MechanismKind, alpha, eps, delta float64) (mech.CellMechanism, error) {
	var m mech.CellMechanism
	var err error
	switch kind {
	case MechLogLaplace:
		m, err = mech.NewLogLaplace(alpha, eps)
	case MechSmoothGamma:
		m, err = mech.NewSmoothGamma(alpha, eps)
	case MechSmoothLaplace:
		m, err = mech.NewSmoothLaplace(alpha, eps, delta)
	case MechEdgeLaplace:
		m, err = mech.NewEdgeLaplace(eps)
	case MechTruncatedLaplace:
		return nil, fmt.Errorf("%w: truncated-laplace is a marginal-level mechanism", ErrInvalidRequest)
	default:
		return nil, fmt.Errorf("%w: unknown mechanism kind %v", ErrInvalidRequest, kind)
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// cellMechanism constructs the cell-level mechanism for a request, or an
// ErrInvalidRequest when the parameters fall outside its validity region
// (or the kind itself is not a cell-level mechanism).
func cellMechanism(req Request) (mech.CellMechanism, error) {
	m, err := NewCellMechanism(req.Mechanism, req.Alpha, req.Eps, req.Delta)
	if err != nil && !errors.Is(err, ErrInvalidRequest) {
		return nil, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	return m, err
}

// cellLoss is the privacy loss of releasing one cell under the request:
// the classical-DP baselines (edge-DP and node-DP) carry no α.
func cellLoss(req Request, def privacy.Definition) privacy.Loss {
	alpha := req.Alpha
	if def == privacy.EdgeDP || def == privacy.NodeDP {
		alpha = 0
	}
	return privacy.Loss{Def: def, Alpha: alpha, Eps: req.Eps, Delta: req.Delta}
}

// lossFor derives the effective privacy loss of releasing the full
// marginal under the request. A loss outside the definition's validity
// region is an ErrInvalidRequest.
func lossFor(req Request, def privacy.Definition, schema *table.Schema) (privacy.Loss, error) {
	perCell := cellLoss(req, def)
	if def == privacy.EdgeDP || def == privacy.NodeDP {
		// Classical DP: marginal cells partition the records (edge-DP) or
		// establishments (node-DP), so parallel composition gives ε.
		if err := perCell.Validate(); err != nil {
			return perCell, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
		}
		return perCell, nil
	}
	d := lodes.WorkerAttrDomainSize(schema, req.Attrs)
	loss, err := privacy.MarginalLoss(perCell, d)
	if err != nil {
		return privacy.Loss{}, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	return loss, nil
}

// epochStream derives the noise stream a release actually draws from:
// the caller's stream, split by the epoch of the snapshot the release
// is pinned to. The derivation happens after the snapshot pointer is
// loaded, so it can never disagree with Release.Epoch even under a
// concurrent Advance. It guarantees that a caller-supplied stream
// identity reused across epochs — deliberately (a replayed request) or
// adversarially (a client naming its own sequence numbers) — yields
// independent noise on each epoch's truth; identical base noise over
// two epochs' counts would let a consumer difference the releases and
// cancel the noise, defeating the privacy guarantee the accountant's
// budget arithmetic assumes.
func epochStream(s *dist.Stream, epoch int) *dist.Stream {
	return s.SplitIndex("epoch", epoch)
}

// ReleaseMarginal answers a marginal query under the request, charging
// the accountant a. The truth is served from the pinned snapshot's
// marginal cache (computed on first use); the noise is drawn fresh per
// cell from the given stream split by the pinned epoch (see
// epochStream).
//
// One publisher (one dataset, one shared truth cache) fronts many
// tenants, each with their own accountant; a nil accountant releases
// unaccounted. The spend tag is the request's durable identity
// (sequence number and body digest) for the accountant's write-ahead
// journal. It is stamped with the epoch the release actually pinned, so
// the journaled record names exactly the bytes the response will carry;
// with wire determinism that makes the record sufficient to recognize
// and replay a client retry without charging twice. A nil tag charges
// untagged.
//
// The request is checked in full — parameters, attribute list,
// mechanism, then the accountant's admission check — before its truth is
// fetched, so a refused request scans, caches and draws nothing.
func (p *Publisher) ReleaseMarginal(a *privacy.Accountant, req Request, s *dist.Stream, tag *privacy.SpendTag) (*Release, error) {
	sn := p.snap.Load()
	loss, err := lossFor(req, definitionFor(req.Mechanism, req.Attrs), sn.data.Schema())
	if err != nil {
		return nil, err
	}
	pr, err := sn.prepare(req, loss)
	if err != nil {
		return nil, err
	}
	if a != nil {
		if err := a.Admit([]privacy.Loss{loss}); err != nil {
			return nil, fmt.Errorf("core: release blocked: %w", err)
		}
	}
	rel, err := sn.release(pr, s)
	if err != nil {
		return nil, err
	}
	if a != nil {
		if err := a.SpendTagged(rel.Loss, stampTag(tag, rel.Epoch)); err != nil {
			return nil, fmt.Errorf("core: release blocked: %w", err)
		}
	}
	return rel, nil
}

// stampTag copies tag with the pinned epoch filled in. The copy keeps
// the caller's tag reusable across retries of different epochs.
func stampTag(tag *privacy.SpendTag, epoch int) *privacy.SpendTag {
	if tag == nil {
		return nil
	}
	t := *tag
	t.Epoch = epoch
	return &t
}

// prepared is a release request checked against everything but the
// budget: its loss, its resolved attribute list, and its mechanism —
// cell is nil exactly for truncated-laplace, which trunc then holds.
type prepared struct {
	loss  privacy.Loss
	ref   truthRef
	cell  mech.CellMechanism
	trunc mech.TruncatedLaplace
}

// prepare resolves the request's attribute list and builds its
// mechanism on the pinned snapshot without fetching any truth. An
// unknown attribute list is reported before invalid mechanism
// parameters.
func (sn *epochSnapshot) prepare(req Request, loss privacy.Loss) (prepared, error) {
	ref, err := sn.resolve(req.Attrs)
	if err != nil {
		return prepared{}, err
	}
	pr := prepared{loss: loss, ref: ref}
	if req.Mechanism == MechTruncatedLaplace {
		if pr.trunc, err = mech.NewTruncatedLaplace(req.Eps, req.Theta); err != nil {
			return prepared{}, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
		}
		return pr, nil
	}
	if pr.cell, err = cellMechanism(req); err != nil {
		return prepared{}, err
	}
	return pr, nil
}

// release fetches a prepared request's truth and draws its noise, both
// from the pinned snapshot, never the publisher's current one —
// snapshot isolation is this one receiver. It charges nothing: the
// single-release paths charge per release, ReleaseBatch the whole batch
// atomically.
func (sn *epochSnapshot) release(pr prepared, s *dist.Stream) (*Release, error) {
	entry, err := sn.truth(pr.ref)
	if err != nil {
		return nil, err
	}
	// Fold the pinned epoch into the noise derivation (see epochStream):
	// the same caller stream on successive epochs draws independent
	// noise, so differencing releases across an Advance cannot cancel
	// the noise and recover the underlying counts.
	s = epochStream(s, sn.epoch)

	rel := &Release{Epoch: sn.epoch, Query: entry.q, Truth: entry.m, Loss: pr.loss}
	if pr.cell == nil {
		// entry.q is in request order, so the filtered scan yields the
		// truncated counts in the release's own cell numbering.
		theta := pr.trunc.Theta
		m, tr, err := sn.data.WorkerFull.Index().ComputeTruncated(entry.q, theta)
		if err != nil {
			return nil, err
		}
		if rel.Noisy, err = pr.trunc.ReleaseCounts(m.Counts, s); err != nil {
			return nil, err
		}
		rel.Truncation = &bipartite.TruncationResult{Theta: theta, RemovedEmployers: tr.RemovedGroups, RemovedEdges: tr.RemovedRows}
		rel.MechanismName = pr.trunc.Name()
		return rel, nil
	}
	noisy, err := mech.ReleaseCells(pr.cell, entry.cells, s)
	if err != nil {
		return nil, err
	}
	rel.Noisy = noisy
	rel.MechanismName = pr.cell.Name()
	return rel, nil
}

// ReleaseSingleCell answers one cell of a marginal (the paper's
// Workload 2 regime: "single queries"), charging the accountant a with
// the tag stamped by the pinned epoch (a nil accountant releases
// unaccounted, a nil tag charges untagged; see ReleaseMarginal). A
// single cell never pays the d·ε marginal surcharge — that surcharge
// only arises when the full worker-attribute marginal is released under
// weak privacy. It also reports the epoch of the snapshot the cell was
// read from, pinned atomically with the read — a serving layer cannot
// learn it otherwise without racing a concurrent Advance.
func (p *Publisher) ReleaseSingleCell(a *privacy.Accountant, req Request, cellValues []string, s *dist.Stream, tag *privacy.SpendTag) (noisy float64, truth int64, loss privacy.Loss, epoch int, err error) {
	sn := p.snap.Load()
	epoch = sn.epoch
	if req.Mechanism == MechTruncatedLaplace {
		return 0, 0, privacy.Loss{}, epoch, fmt.Errorf("%w: single-cell release not defined for truncated-laplace", ErrInvalidRequest)
	}
	// Every check comes before the truth fetch, so a refused request never
	// triggers (or caches) a full-table scan.
	loss = cellLoss(req, definitionFor(req.Mechanism, req.Attrs))
	if err := loss.Validate(); err != nil {
		return 0, 0, privacy.Loss{}, epoch, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	m, err := cellMechanism(req)
	if err != nil {
		return 0, 0, privacy.Loss{}, epoch, err
	}
	ref, err := sn.resolve(req.Attrs)
	if err != nil {
		return 0, 0, privacy.Loss{}, epoch, err
	}
	cell, err := ref.q.CellKeyForValues(cellValues...)
	if err != nil {
		return 0, 0, privacy.Loss{}, epoch, fmt.Errorf("%w: %v", ErrUnknownCell, err)
	}
	if a != nil {
		if err := a.Admit([]privacy.Loss{loss}); err != nil {
			return 0, 0, privacy.Loss{}, epoch, fmt.Errorf("core: release blocked: %w", err)
		}
	}
	// One cell never justifies a fresh full-table scan, or a remap of the
	// whole marginal: read the cell's statistics straight from the
	// canonical truth in the pinned snapshot's cache.
	entry, err := sn.canonical(ref)
	if err != nil {
		return 0, 0, privacy.Loss{}, epoch, err
	}
	cell = ref.canonicalCell(cell)
	// Same epoch folding as the marginal path (see epochStream): a
	// stream reused across an Advance draws fresh noise for the cell.
	v, err := m.ReleaseCell(entry.cells[cell], epochStream(s, sn.epoch))
	if err != nil {
		return 0, 0, privacy.Loss{}, epoch, err
	}
	if a != nil {
		if err := a.SpendTagged(loss, stampTag(tag, epoch)); err != nil {
			return 0, 0, privacy.Loss{}, epoch, fmt.Errorf("core: release blocked: %w", err)
		}
	}
	return v, entry.m.Counts[cell], loss, epoch, nil
}

// CellInputs converts a computed marginal into the per-cell inputs the
// mechanisms consume.
func CellInputs(m *table.Marginal) []mech.CellInput {
	out := make([]mech.CellInput, len(m.Counts))
	for i := range m.Counts {
		out[i] = mech.CellInput{
			Count:           float64(m.Counts[i]),
			MaxContribution: m.MaxEntityContribution[i],
		}
	}
	return out
}
