package server

// Primary-side replication surface: the WAL is the replication stream.
//
// A follower bootstraps from GET /v1/replication/snapshot (the
// compacted state prefix plus the live generation number), then tails
// GET /v1/replication/stream — exact log frames, in order, only ever
// fsync-covered bytes — and applies each record through the same
// applyRecord path recovery uses. Both endpoints authenticate with the
// admin key and carry the requester's fencing term in X-Eree-Term: a
// primary that observes a higher term than its own journals a fence
// record and refuses the write role from then on, so a deposed primary
// that was partitioned away can never double-spend a tenant's budget
// (split-brain safety). POST /v1/admin/promote bumps the term — on a
// follower it adopts the mirrored state and takes the primary role; on
// a fenced ex-primary it clears the fence.

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/wal"
)

// replTermHeader carries the requester's fencing term on replication
// requests. Absent means "no term claim" (curl, scripts); present and
// higher than the serving node's own term means that node is deposed.
const replTermHeader = "X-Eree-Term"

const (
	// maxStreamWait bounds the stream endpoint's long-poll so a hung
	// follower cannot pin a connection past the server's write timeout.
	maxStreamWait = 10 * time.Second
	// maxStreamBytes bounds one stream response's record payload.
	maxStreamBytes = 4 << 20
)

// replSnapshotJSON is the bootstrap payload: decode Snapshot (the
// compacted prefix), then stream generation Gen from wal.StreamStart().
// Arch is the primary's runtime.GOARCH (see checkArch); it and the
// stream response's Arch are empty from a primary that predates the
// field.
type replSnapshotJSON struct {
	Arch           string `json:"arch,omitempty"`
	Term           uint64 `json:"term"`
	Gen            uint64 `json:"gen"`
	Snapshot       []byte `json:"snapshot"`
	DurableRecords uint64 `json:"durable_records"`
	Epoch          int    `json:"epoch"`
}

// replStreamJSON is one stream batch: whole log records (base64 on the
// wire), the next cursor offset, and the primary's durable frontier so
// the follower can report its lag. Compacted means the requested
// generation is gone — re-bootstrap from the snapshot.
type replStreamJSON struct {
	Arch           string   `json:"arch,omitempty"`
	Term           uint64   `json:"term"`
	Gen            uint64   `json:"gen"`
	Next           int64    `json:"next"`
	Records        [][]byte `json:"records"`
	DurableRecords uint64   `json:"durable_records"`
	Compacted      bool     `json:"compacted,omitempty"`
}

// replStatusJSON is the operator/harness view of a node's replication
// position. StateDigest is the live divergence digest (hex, the state's
// multiset hash that applyRecord keeps current), directly comparable
// across nodes of one version.
type replStatusJSON struct {
	Role           string `json:"role"`
	Term           uint64 `json:"term"`
	Fenced         bool   `json:"fenced"`
	Epoch          int    `json:"epoch"`
	Gen            uint64 `json:"gen"`
	DurableRecords uint64 `json:"durable_records"`
	AppliedRecords uint64 `json:"applied_records"`
	LagRecords     int64  `json:"replication_lag_records"`
	StateDigest    string `json:"state_digest,omitempty"`
	Diverged       string `json:"diverged,omitempty"`
	Upstream       string `json:"upstream,omitempty"`
}

// promoteJSON is the /v1/admin/promote response.
type promoteJSON struct {
	Role string `json:"role"`
	Term uint64 `json:"term"`
}

// observeTerm enforces the fencing protocol on a replication request.
// It returns false (response written) when the request was refused. A
// primary seeing a foreign term above its own journals the fence first
// — durable before the refusal is visible — then refuses writes
// forever (writable) until an operator promotes it. Followers don't
// fence on foreign terms: their mirrored log must carry only shipped
// records, and they shed writes by role anyway.
func (s *Server) observeTerm(w http.ResponseWriter, r *http.Request) bool {
	h := r.Header.Get(replTermHeader)
	if h == "" || s.role.Load() == roleFollower {
		return true
	}
	foreign, err := strconv.ParseUint(h, 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "malformed " + replTermHeader + " header"})
		return false
	}
	if foreign <= s.term.Load() {
		return true
	}
	s.fenceMu.Lock()
	defer s.fenceMu.Unlock()
	if foreign > s.term.Load() {
		if s.persist != nil {
			if err := s.persist.LogFence(foreign); err != nil {
				writeJSON(w, http.StatusInternalServerError, errorBody{Error: fmt.Sprintf("recording fence: %v", err)})
				return false
			}
		}
		s.term.Store(foreign)
		s.fenced.Store(true)
	}
	writeJSON(w, http.StatusConflict, errorBody{
		Error: fmt.Sprintf("fenced: observed term %d above this node's own; it no longer holds the primary role", foreign),
	})
	return false
}

// handleReplSnapshot serves GET /v1/replication/snapshot.
func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.persist == nil {
		writeJSON(w, http.StatusNotImplemented, errorBody{Error: "replication requires durable state (state_dir)"})
		return
	}
	if !s.observeTerm(w, r) {
		return
	}
	gen, snap, err := s.persist.store.ExportSnapshot()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	_, _, nrec := s.persist.store.Durable()
	writeJSON(w, http.StatusOK, replSnapshotJSON{
		Arch:           runtime.GOARCH,
		Term:           s.term.Load(),
		Gen:            gen,
		Snapshot:       snap,
		DurableRecords: nrec,
		Epoch:          s.pub.Epoch(),
	})
}

// handleReplStream serves GET /v1/replication/stream?gen=G&offset=O:
// long-polls the durable frontier (wait_ms, capped) and ships whole
// records from the cursor. A compacted generation answers 200 with
// compacted=true rather than an error — re-seeding is the protocol's
// normal catch-up path, not a failure.
func (s *Server) handleReplStream(w http.ResponseWriter, r *http.Request) {
	if s.persist == nil {
		writeJSON(w, http.StatusNotImplemented, errorBody{Error: "replication requires durable state (state_dir)"})
		return
	}
	if !s.observeTerm(w, r) {
		return
	}
	q := r.URL.Query()
	gen, err := strconv.ParseUint(q.Get("gen"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "stream: gen must be an unsigned integer"})
		return
	}
	offset, err := strconv.ParseInt(q.Get("offset"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "stream: offset must be an integer"})
		return
	}
	var wait time.Duration
	if ms := q.Get("wait_ms"); ms != "" {
		n, err := strconv.ParseInt(ms, 10, 64)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "stream: wait_ms must be a non-negative integer"})
			return
		}
		wait = min(time.Duration(n)*time.Millisecond, maxStreamWait)
	}
	recs, next, err := s.persist.store.Tail(gen, offset, wait, maxStreamBytes)
	if errors.Is(err, wal.ErrCompacted) {
		cur, _, _ := s.persist.store.Durable()
		writeJSON(w, http.StatusOK, replStreamJSON{Arch: runtime.GOARCH, Term: s.term.Load(), Gen: cur, Compacted: true})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("stream: %v", err)})
		return
	}
	_, _, nrec := s.persist.store.Durable()
	writeJSON(w, http.StatusOK, replStreamJSON{
		Arch:           runtime.GOARCH,
		Term:           s.term.Load(),
		Gen:            gen,
		Next:           next,
		Records:        recs,
		DurableRecords: nrec,
	})
}

// handleReplStatus serves GET /v1/replication/status.
func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	out := replStatusJSON{
		Role:   s.roleName(),
		Term:   s.term.Load(),
		Fenced: s.fenced.Load(),
		Epoch:  s.pub.Epoch(),
	}
	if s.persist != nil {
		gen, _, nrec := s.persist.store.Durable()
		out.Gen, out.DurableRecords, out.AppliedRecords = gen, nrec, nrec
		if s.role.Load() == roleFollower && s.repl != nil {
			s.repl.status(&out)
		}
		// Read after the follower's applied count: the mirror applies a
		// batch before counting it, so the digest covers at least what
		// the response reports applied.
		out.StateDigest = s.persist.digest()
	}
	writeJSON(w, http.StatusOK, out)
}

// handlePromote serves POST /v1/admin/promote: this node takes (or
// retakes) the primary role at a strictly higher term. On a follower
// the replication loop is stopped, the promotion term is journaled,
// and the mirrored state is adopted through the same path boot
// recovery uses — restored accountants, attached journal, fresh
// snapshot. On a primary — fenced or not — the term is bumped and the
// fence cleared. Promotion of a diverged follower is refused: its
// mirror is provably not the primary's history.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	s.fenceMu.Lock()
	defer s.fenceMu.Unlock()
	if s.role.Load() == roleFollower {
		if err := s.promoteFollower(); err != nil {
			writeJSON(w, http.StatusConflict, errorBody{Error: fmt.Sprintf("promote: %v", err)})
			return
		}
	} else {
		newTerm := s.term.Load() + 1
		if s.persist != nil {
			if err := s.persist.LogTerm(newTerm); err != nil {
				writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: fmt.Sprintf("promote: journaling term: %v", err)})
				return
			}
		}
		s.term.Store(newTerm)
		s.fenced.Store(false)
	}
	writeJSON(w, http.StatusOK, promoteJSON{Role: s.roleName(), Term: s.term.Load()})
}
