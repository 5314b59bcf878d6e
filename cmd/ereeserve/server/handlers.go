package server

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/crashpoint"
	"repro/internal/dist"
	"repro/internal/lodes"
	"repro/internal/privacy"

	"repro/cmd/ereeserve/config"
)

// apiKeyHeader carries the tenant (or admin) credential.
const apiKeyHeader = "X-API-Key"

// errorBody is every error response's shape. RemainingEps/Delta are
// only present on budget rejections (429), so an admitted-but-degraded
// client can see exactly what it has left without a second call.
type errorBody struct {
	Error          string   `json:"error"`
	RemainingEps   *float64 `json:"remaining_eps,omitempty"`
	RemainingDelta *float64 `json:"remaining_delta,omitempty"`
	// Primary is a follower's redirect hint on shed spend traffic: the
	// base URL writes belong on.
	Primary string `json:"primary,omitempty"`
}

// statusFor maps a release error to its HTTP status via the typed
// sentinels — the entire reason internal/core and internal/privacy
// export them.
func statusFor(err error) int {
	switch {
	case errors.Is(err, privacy.ErrBudgetExhausted):
		return http.StatusTooManyRequests
	case errors.Is(err, core.ErrUnknownMarginal), errors.Is(err, core.ErrUnknownCell):
		return http.StatusNotFound
	case errors.Is(err, core.ErrInvalidRequest), errors.Is(err, privacy.ErrIncompatibleLoss),
		errors.Is(err, privacy.ErrInvalidLoss), errors.Is(err, errBadBody):
		return http.StatusBadRequest
	case errors.Is(err, errBodyTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, privacy.ErrPersistence):
		// The accounting store cannot make the charge durable; the
		// charge was refused, the request is retryable elsewhere/later.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// writeJSON renders a response body. Struct field order is fixed and
// Go's float formatting is deterministic, so identical values are
// identical bytes — the wire half of the determinism contract.
func writeJSON(w http.ResponseWriter, status int, body any) {
	raw, err := json.Marshal(body)
	if err != nil {
		// Unreachable for our response types; keep the failure visible.
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(raw, '\n'))
}

// writeError renders an error response, attaching the tenant's
// remaining budget on budget rejections.
func writeError(w http.ResponseWriter, err error, acct *privacy.Accountant) {
	status := statusFor(err)
	body := errorBody{Error: err.Error()}
	if status == http.StatusTooManyRequests && acct != nil {
		eps, delta := acct.Remaining()
		body.RemainingEps = &eps
		body.RemainingDelta = &delta
	}
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, body)
}

// writeRelease renders a charged success response. It hosts the two
// response-side crash points the chaos harness kills at: before any
// byte leaves (charge durable, response lost — the client must be able
// to re-fetch it as a replay) and mid-body (a torn response must never
// be mistaken for a fresh charge on retry).
func writeRelease(w http.ResponseWriter, body any) {
	crashpoint.Maybe(crashBeforeResponse)
	raw, err := json.Marshal(body)
	if err != nil {
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	raw = append(raw, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if crashpoint.Armed(crashMidResponse) && len(raw) > 1 {
		half := len(raw) / 2
		w.Write(raw[:half])
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		crashpoint.Maybe(crashMidResponse)
		w.Write(raw[half:])
		return
	}
	w.Write(raw)
}

// withTenant authenticates the request's API key and hands the handler
// its tenant. Keys are matched by SHA-256 digest (privacy.Registry), so
// lookup time does not depend on how much of a candidate key agrees
// with a registered one; an unknown key gets the same opaque 401 as a
// missing one.
func (s *Server) withTenant(h func(http.ResponseWriter, *http.Request, *privacy.Tenant)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t, ok := s.reg.Lookup(r.Header.Get(apiKeyHeader))
		if !ok {
			writeJSON(w, http.StatusUnauthorized, errorBody{Error: "unknown API key"})
			return
		}
		h(w, r, t)
	}
}

// withAdmin authenticates the admin key.
func (s *Server) withAdmin(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		key := r.Header.Get(apiKeyHeader)
		if s.adminKey == "" || subtle.ConstantTimeCompare([]byte(key), []byte(s.adminKey)) != 1 {
			writeJSON(w, http.StatusUnauthorized, errorBody{Error: "admin endpoint requires the admin key"})
			return
		}
		h(w, r)
	}
}

// lossJSON is a privacy loss on the wire.
type lossJSON struct {
	Definition string  `json:"definition"`
	Alpha      float64 `json:"alpha"`
	Eps        float64 `json:"eps"`
	Delta      float64 `json:"delta"`
}

func lossToJSON(l privacy.Loss) lossJSON {
	return lossJSON{
		Definition: config.DefinitionToken(l.Def),
		Alpha:      l.Alpha,
		Eps:        l.Eps,
		Delta:      l.Delta,
	}
}

// releaseJSON is one marginal release on the wire. The confidential
// truth is deliberately absent: this is the production boundary, and
// the privacy guarantee covers exactly what crosses it.
type releaseJSON struct {
	Epoch     int       `json:"epoch"`
	Seq       int64     `json:"seq"`
	Attrs     []string  `json:"attrs"`
	Mechanism string    `json:"mechanism"`
	Loss      lossJSON  `json:"loss"`
	Cells     int       `json:"cells"`
	Counts    []float64 `json:"counts"`
}

func releaseToJSON(rel *core.Release, seq int64, attrs []string) releaseJSON {
	return releaseJSON{
		Epoch:     rel.Epoch,
		Seq:       seq,
		Attrs:     attrs,
		Mechanism: rel.MechanismName,
		Loss:      lossToJSON(rel.Loss),
		Cells:     len(rel.Noisy),
		Counts:    rel.Noisy,
	}
}

// handleHealth is the unauthenticated liveness probe: it answers 200
// whenever the process can serve HTTP at all — during recovery, while
// ready, and while draining. Orchestrators that restart on failed
// liveness must not kill a server that is merely recovering or
// draining; that is what /readyz distinguishes.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		OK    bool   `json:"ok"`
		Role  string `json:"role"`
		Epoch int    `json:"epoch"`
	}{true, s.roleName(), s.pub.Epoch()})
}

// readyJSON is the /readyz body: besides the lifecycle state it names
// the node's replication role, fencing term, and — on followers — the
// replication lag in records, so a load balancer (or the smoke script)
// can route reads to a caught-up follower without a separate
// authenticated status call.
type readyJSON struct {
	Ready                 bool   `json:"ready"`
	State                 string `json:"state"`
	Role                  string `json:"role"`
	Term                  uint64 `json:"term"`
	ReplicationLagRecords int64  `json:"replication_lag_records"`
}

// handleReady is the unauthenticated readiness probe: 200 only when
// the server is accepting traffic — recovery finished, drain not
// begun, mirror not diverged. Load balancers route on this, and the
// smoke/chaos harnesses poll it instead of sleeping.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	out := readyJSON{Role: s.roleName(), Term: s.term.Load()}
	if s.role.Load() == roleFollower && s.repl != nil {
		out.ReplicationLagRecords = s.repl.lag()
	}
	status := http.StatusServiceUnavailable
	switch s.state.Load() {
	case stateReady:
		out.Ready, out.State = true, "ready"
		status = http.StatusOK
	case stateDraining:
		out.State = "draining"
	case stateDiverged:
		out.State = "diverged"
	default:
		out.State = "starting"
	}
	writeJSON(w, status, out)
}

// replayed serves a request whose charge is already durable (the
// client retried after losing the response). The release is recomputed
// with a nil accountant — wire determinism makes it byte-identical to
// the lost one — so the tenant is not charged twice. It reports false,
// deferring to the normal charged path, when the identity misses the
// cache or the current epoch no longer matches the recorded one (then
// the retry is semantically a fresh request and must pay).
func (s *Server) replayed(tenant string, seq int64, digest string) bool {
	if s.persist == nil {
		return false
	}
	return s.replay.has(tenant, replayKey{Seq: seq, Digest: digest, Epoch: s.pub.Epoch()})
}

// noteCharged records a charged request identity: it raises the
// tenant's seq counter past seq (see nextSeq) and, on a durable server,
// records the identity for replay detection. Called after the charge
// succeeded, which means its spend record — tagged with exactly this
// identity — is on disk.
func (s *Server) noteCharged(tenant string, seq int64, digest string, epoch int) {
	s.raiseSeq(tenant, seq)
	if s.persist == nil {
		return
	}
	s.replay.add(tenant, replayKey{Seq: seq, Digest: digest, Epoch: epoch})
}

// handleRelease serves POST /v1/release: one marginal, charged to the
// calling tenant.
func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request, t *privacy.Tenant) {
	req, _, explicit, err := decodeRelease(r.Body, false)
	if err != nil {
		writeError(w, err, t.Acct)
		return
	}
	seq := s.resolveSeq(t.Name, explicit)
	digest := requestDigest(digestRelease, []core.Request{req}, nil)
	stream := s.requestStream(t.Name, seq, digest)
	if s.replayed(t.Name, seq, digest) {
		if rel, err := s.pub.ReleaseMarginal(nil, req, stream, nil); err == nil && rel.Epoch == s.pub.Epoch() {
			writeRelease(w, releaseToJSON(rel, seq, req.Attrs))
			return
		}
	}
	rel, err := s.pub.ReleaseMarginal(t.Acct, req, stream, &privacy.SpendTag{Seq: seq, Digest: digest})
	if err != nil {
		writeError(w, err, t.Acct)
		return
	}
	s.noteCharged(t.Name, seq, digest, rel.Epoch)
	writeRelease(w, releaseToJSON(rel, seq, req.Attrs))
}

// batchJSON is the /v1/batch success response.
type batchJSON struct {
	Seq      int64         `json:"seq"`
	Releases []releaseJSON `json:"releases"`
}

// handleBatch serves POST /v1/batch: the whole batch is admitted or
// rejected before any scan or noise is paid for, and the accountant is
// charged atomically — a 429 batch spends nothing and reports the
// tenant's remaining budget.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, t *privacy.Tenant) {
	reqs, explicit, err := decodeBatch(r.Body)
	if err != nil {
		writeError(w, err, t.Acct)
		return
	}
	seq := s.resolveSeq(t.Name, explicit)
	digest := requestDigest(digestBatch, reqs, nil)
	stream := s.requestStream(t.Name, seq, digest)
	if s.replayed(t.Name, seq, digest) {
		if rels, err := s.pub.ReleaseBatch(nil, reqs, stream, nil); err == nil &&
			len(rels) > 0 && rels[0].Epoch == s.pub.Epoch() {
			out := batchJSON{Seq: seq, Releases: make([]releaseJSON, len(rels))}
			for i, rel := range rels {
				out.Releases[i] = releaseToJSON(rel, seq, reqs[i].Attrs)
			}
			writeRelease(w, out)
			return
		}
	}
	rels, err := s.pub.ReleaseBatch(t.Acct, reqs, stream, &privacy.SpendTag{Seq: seq, Digest: digest})
	if err != nil {
		writeError(w, err, t.Acct)
		return
	}
	if len(rels) > 0 {
		s.noteCharged(t.Name, seq, digest, rels[0].Epoch)
	}
	out := batchJSON{Seq: seq, Releases: make([]releaseJSON, len(rels))}
	for i, rel := range rels {
		out.Releases[i] = releaseToJSON(rel, seq, reqs[i].Attrs)
	}
	writeRelease(w, out)
}

// cellJSON is the /v1/cell success response.
type cellJSON struct {
	Epoch  int      `json:"epoch"`
	Seq    int64    `json:"seq"`
	Attrs  []string `json:"attrs"`
	Values []string `json:"values"`
	Loss   lossJSON `json:"loss"`
	Count  float64  `json:"count"`
}

// handleCell serves POST /v1/cell: one cell of a marginal (the paper's
// single-query regime — no d·ε marginal surcharge).
func (s *Server) handleCell(w http.ResponseWriter, r *http.Request, t *privacy.Tenant) {
	req, values, explicit, err := decodeRelease(r.Body, true)
	if err != nil {
		writeError(w, err, t.Acct)
		return
	}
	seq := s.resolveSeq(t.Name, explicit)
	digest := requestDigest(digestCell, []core.Request{req}, values)
	stream := s.requestStream(t.Name, seq, digest)
	if s.replayed(t.Name, seq, digest) {
		if noisy, _, loss, epoch, err := s.pub.ReleaseSingleCell(nil, req, values, stream, nil); err == nil && epoch == s.pub.Epoch() {
			writeRelease(w, cellJSON{
				Epoch: epoch, Seq: seq, Attrs: req.Attrs, Values: values,
				Loss: lossToJSON(loss), Count: noisy,
			})
			return
		}
	}
	noisy, _, loss, epoch, err := s.pub.ReleaseSingleCell(t.Acct, req, values, stream, &privacy.SpendTag{Seq: seq, Digest: digest})
	if err != nil {
		writeError(w, err, t.Acct)
		return
	}
	s.noteCharged(t.Name, seq, digest, epoch)
	writeRelease(w, cellJSON{
		Epoch:  epoch,
		Seq:    seq,
		Attrs:  req.Attrs,
		Values: values,
		Loss:   lossToJSON(loss),
		Count:  noisy,
	})
}

// statsJSON is the /v1/stats response: the calling tenant's budget
// position plus the publisher's per-epoch cache counters. Tenants see
// only their own budget.
type statsJSON struct {
	Tenant         string           `json:"tenant"`
	Definition     string           `json:"definition"`
	Alpha          float64          `json:"alpha"`
	SpentEps       float64          `json:"spent_eps"`
	SpentDelta     float64          `json:"spent_delta"`
	RemainingEps   float64          `json:"remaining_eps"`
	RemainingDelta float64          `json:"remaining_delta"`
	Releases       int              `json:"releases"`
	SpendByEpoch   []epochSpendJSON `json:"spend_by_epoch"`
	Epoch          int              `json:"epoch"`
	Cache          []cacheStatsJSON `json:"cache"`
	ReplayCache    *replayCacheJSON `json:"replay_cache,omitempty"`
}

// replayCacheJSON reports the tenant's replay-dedup ring: its bound
// (replayWindow), the live occupancy, and how many identities this
// process has evicted (an evicted identity's retry re-charges).
type replayCacheJSON struct {
	Capacity  int   `json:"capacity"`
	Size      int   `json:"size"`
	Evictions int64 `json:"evictions"`
}

type epochSpendJSON struct {
	Epoch    int     `json:"epoch"`
	Eps      float64 `json:"eps"`
	Delta    float64 `json:"delta"`
	Releases int     `json:"releases"`
}

type cacheStatsJSON struct {
	Epoch     int   `json:"epoch"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Patches   int64 `json:"patches"`
	Evictions int64 `json:"evictions"`
}

// tenantPosition is a tenant's accounting position as /v1/stats
// reports it.
type tenantPosition struct {
	spentEps, spentDelta         float64
	remainingEps, remainingDelta float64
	releases                     int
	ledger                       []privacy.EpochSpend
	replaySize                   int
	replayEvictions              int64
}

// handleStats serves GET /v1/stats. A primary reads the tenant's
// position from its live accountant. A follower has no live
// accountants — charges happen on the primary — so it reads the
// mirrored state instead; either way the body is rendered the same.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, t *privacy.Tenant) {
	var pos tenantPosition
	if s.role.Load() == roleFollower && s.repl != nil {
		pos = s.mirroredPosition(t)
	} else {
		spent := t.Acct.Spent()
		pos.spentEps, pos.spentDelta = spent.Eps, spent.Delta
		pos.remainingEps, pos.remainingDelta = t.Acct.Remaining()
		pos.releases = t.Acct.Releases()
		pos.ledger = t.Acct.SpendByEpoch()
		pos.replaySize, pos.replayEvictions = s.replay.stats(t.Name)
	}
	def, alpha := t.Acct.Def()
	out := statsJSON{
		Tenant:         t.Name,
		Definition:     config.DefinitionToken(def),
		Alpha:          alpha,
		SpentEps:       pos.spentEps,
		SpentDelta:     pos.spentDelta,
		RemainingEps:   pos.remainingEps,
		RemainingDelta: pos.remainingDelta,
		Releases:       pos.releases,
		SpendByEpoch:   make([]epochSpendJSON, len(pos.ledger)),
		Epoch:          s.pub.Epoch(),
	}
	for i, e := range pos.ledger {
		out.SpendByEpoch[i] = epochSpendJSON{Epoch: e.Epoch, Eps: e.Eps, Delta: e.Delta, Releases: e.Releases}
	}
	for _, cs := range s.pub.CacheStatsByEpoch() {
		out.Cache = append(out.Cache, cacheStatsJSON{Epoch: cs.Epoch, Hits: cs.Hits, Misses: cs.Misses, Patches: cs.Patches, Evictions: cs.Evictions})
	}
	out.ReplayCache = &replayCacheJSON{Capacity: replayWindow, Size: pos.replaySize, Evictions: pos.replayEvictions}
	writeJSON(w, http.StatusOK, out)
}

// advanceJSON is the /v1/admin/advance response.
type advanceJSON struct {
	Epoch    int              `json:"epoch"`
	Quarters []advanceQuarter `json:"quarters"`
}

// CachePatches and CacheEvictions report how the marginal cache crossed
// the bump: truths patched in place by the incremental maintenance path
// versus truths dropped for on-demand recomputation. A warm server
// should see patches, not evictions.
type advanceQuarter struct {
	Epoch          int   `json:"epoch"`
	Jobs           int   `json:"jobs"`
	Establishments int   `json:"establishments"`
	Births         int   `json:"births"`
	Deaths         int   `json:"deaths"`
	CachePatches   int64 `json:"cache_patches"`
	CacheEvictions int64 `json:"cache_evictions"`
}

// advanceErrorJSON is the /v1/admin/advance failure response. Quarters
// already absorbed before the failure are NOT rolled back (each one was
// installed and every tenant ledger advanced), so the body reports
// exactly how far the call got — an admin retrying after a partial
// failure can see that asking for the remaining quarters continues the
// same delta sequence a single successful call would have produced.
type advanceErrorJSON struct {
	Error            string           `json:"error"`
	QuartersAbsorbed int              `json:"quarters_absorbed"`
	Epoch            int              `json:"epoch"`
	Quarters         []advanceQuarter `json:"quarters,omitempty"`
}

// handleAdvance serves POST /v1/admin/advance: generate and absorb N
// quarterly deltas under live load. Serving never stalls — in-flight
// releases stay pinned to the snapshot they started on — and every
// tenant's spend ledger advances in lockstep with the dataset epoch.
//
// Seeding is by absolute quarter index: the q-th quarter absorbed over
// the server's lifetime draws from root+q, where root is the configured
// delta seed or the request's override. Because the index is absolute —
// not the loop index within one call — any split of N quarters into
// calls, including a retry after a partial failure, absorbs the exact
// delta sequence one N-quarter call would have.
func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	quarters, seedOverride, err := decodeAdvance(r.Body)
	if err != nil {
		writeError(w, err, nil)
		return
	}
	s.advMu.Lock()
	defer s.advMu.Unlock()
	out := advanceJSON{Quarters: make([]advanceQuarter, 0, quarters)}
	fail := func(q int, err error) {
		wrapped := fmt.Errorf("quarter %d: %w", q, err)
		writeJSON(w, statusFor(wrapped), advanceErrorJSON{
			Error:            wrapped.Error(),
			QuartersAbsorbed: len(out.Quarters),
			Epoch:            s.pub.Epoch(),
			Quarters:         out.Quarters,
		})
	}
	for q := 0; q < quarters; q++ {
		root := s.deltaSeed
		if seedOverride != nil {
			root = *seedOverride
		}
		seed := root + int64(s.quartersAbsorbed)
		data := s.pub.Dataset()
		dl, err := lodes.GenerateDelta(data, s.deltaCfg, dist.NewStreamFromSeed(seed))
		if err != nil {
			fail(q, err)
			return
		}
		if err := s.pub.Advance(dl); err != nil {
			fail(q, err)
			return
		}
		// The dataset advance is journaled after Advance succeeded (so
		// recovery never replays a record whose delta deterministically
		// fails to apply) and before any tenant ledger moves. A crash
		// before this record leaves the advance absent after recovery; a
		// crash after it finds the record, re-derives the delta from the
		// seed, and reconciles every tenant ledger — the advance is
		// atomic-on-recovery, never half-applied.
		if s.persist != nil {
			if err := s.persist.LogDatasetAdvance(s.quartersAbsorbed, seed); err != nil {
				fail(q, fmt.Errorf("%w: %v", privacy.ErrPersistence, err))
				return
			}
		}
		crashpoint.Maybe(crashAfterAdvance)
		// Every tenant's ledger follows the dataset epoch (each advance
		// durable before its ledger moves; a partial sweep heals on
		// recovery via the lineage reconcile).
		if err := s.reg.AdvanceEpoch(); err != nil {
			fail(q, err)
			return
		}
		s.quartersAbsorbed++
		next := s.pub.Dataset()
		cs := s.pub.MarginalCacheStats()
		out.Quarters = append(out.Quarters, advanceQuarter{
			Epoch:          s.pub.Epoch(),
			Jobs:           next.NumJobs(),
			Establishments: next.NumEstablishments(),
			Births:         len(dl.Births),
			Deaths:         len(dl.Deaths),
			CachePatches:   cs.Patches,
			CacheEvictions: cs.Evictions,
		})
	}
	out.Epoch = s.pub.Epoch()
	writeJSON(w, http.StatusOK, out)
}
