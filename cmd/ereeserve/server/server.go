// Package server implements the ereeserve HTTP/JSON front-end over the
// publisher: a multi-tenant networked release service.
//
// One Server wraps one core.Publisher (one versioned dataset, one
// shared truth cache — truth is free in privacy terms, so tenants share
// it) and a privacy.Registry mapping API keys to tenants, each with its
// own budget accountant. Endpoints:
//
//	POST /v1/release        one marginal release
//	POST /v1/batch          many releases, atomically accounted, with
//	                        fail-fast admission control (429 + remaining
//	                        budget before any scan or noise is paid for)
//	POST /v1/cell           one cell of a marginal
//	GET  /v1/stats          the calling tenant's budget + cache/epoch stats
//	POST /v1/admin/advance  absorb quarterly deltas under live load (admin key)
//	POST /v1/admin/promote  bump the fencing term and take the primary role (admin key)
//	GET  /v1/replication/*  snapshot / stream / status for followers (admin key)
//	GET  /healthz           liveness + current epoch (no auth)
//	GET  /readyz            readiness + role, term, replication lag (no auth)
//
// A durable server is either the primary (owns mutation, serves the
// replication endpoints) or a follower (-replicate-from: mirrors the
// primary's WAL through the recovery apply path, serves reads, sheds
// writes with a hint to the primary, and can be promoted). See
// replication.go and follower.go.
//
// # Determinism contract over the wire
//
// A release's noise stream is
//
//	Split("tenant:"+name).SplitIndex("req", seq).Split("body:"+digest)
//
// of the server's root noise stream, further split by the pinned
// snapshot epoch inside the publisher (core's epochStream). seq is
// either supplied by the client or assigned from the tenant's own
// counter; digest is the SHA-256 of the request's canonical encoding
// (see digest.go). Responses are rendered with a fixed field order and
// Go's deterministic float formatting, so the same (noise seed,
// dataset, tenant, seq, request, epoch) yields bit-identical response
// bytes — across runs, across concurrent load, across the race
// detector. Changing any coordinate — a different request under the
// same seq, the same request on a later epoch — draws independent
// noise, so no pair of distinct releases can be differenced to cancel
// the noise. What other tenants do, and how requests interleave, never
// shows in a tenant's bytes; only the dataset epoch a request lands on
// is scheduling-dependent (and is reported in the response).
package server

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/crashpoint"
	"repro/internal/dist"
	"repro/internal/lodes"
	"repro/internal/privacy"
)

// Lifecycle states (Server.state). Requests to the /v1 endpoints are
// only served in stateReady; /healthz and /readyz always answer.
const (
	stateStarting int32 = iota
	stateReady
	stateDraining
	// stateDiverged is terminal: a follower whose mirror provably forked
	// from its primary stops serving rather than answer from bad state.
	stateDiverged
)

// Server is the multi-tenant release service. Create with New (in
// memory) or Open (durable accounting under a state directory), expose
// via Handler or serve on a socket via Start.
type Server struct {
	pub *core.Publisher
	reg *privacy.Registry
	// noise is the root noise stream identity. Only pure derivations
	// (Split/SplitIndex) are ever called on it, which read the immutable
	// identity and never advance state, so concurrent use is safe.
	noise    *dist.Stream
	adminKey string
	deltaCfg lodes.DeltaConfig
	// deltaSeed roots admin-advance delta generation.
	deltaSeed int64
	// advMu serializes admin advances: each generated delta must be
	// based on the snapshot the previous one produced.
	advMu sync.Mutex
	// quartersAbsorbed numbers generated deltas across advance calls
	// (quarter q draws from deltaSeed+q), so an advance sequence is
	// reproducible regardless of how it is split into calls.
	quartersAbsorbed int
	// seqs assigns per-tenant sequence numbers to requests that do not
	// carry one: map[string]*atomic.Int64 keyed by tenant name.
	seqs sync.Map

	// persist is the write-ahead accounting store; nil for in-memory
	// servers (New), set by Open.
	persist *Persistence
	// replay remembers recently charged request identities so a client
	// retry of a durable charge is re-served without charging again.
	replay *replayCache

	// state is the lifecycle gate (starting → ready → draining).
	state atomic.Int32
	// inflight counts requests inside the /v1 endpoints, for load
	// shedding; maxInFlight bounds it.
	inflight    atomic.Int64
	maxInFlight int
	// reqTimeout, when positive, bounds each release endpoint's handler
	// time via http.TimeoutHandler (set by Start's RunOptions).
	reqTimeout time.Duration

	// role is rolePrimary or roleFollower; term is the node's fencing
	// term and fenced marks a deposed primary (it observed a higher
	// foreign term and refuses writes until promoted). See replication.go.
	role   atomic.Int32
	term   atomic.Uint64
	fenced atomic.Bool
	// fenceMu serializes term transitions (observing a foreign term,
	// promotion) so exactly one fence/term record is journaled per
	// transition.
	fenceMu sync.Mutex
	// repl holds the follower's streaming state; nil on primaries.
	repl *replState
}

// Roles (Server.role).
const (
	rolePrimary int32 = iota
	roleFollower
)

func (s *Server) roleName() string {
	if s.role.Load() == roleFollower {
		return "follower"
	}
	return "primary"
}

// Options configure a Server beyond its publisher and tenants.
type Options struct {
	// NoiseSeed roots every noise stream the server draws from.
	NoiseSeed int64
	// AdminKey authorizes /v1/admin endpoints; empty disables them.
	AdminKey string
	// DeltaSeed roots admin-advance delta generation (quarter q of the
	// server's lifetime draws from DeltaSeed+q).
	DeltaSeed int64
	// DeltaConfig parameterizes generated quarterly deltas; zero value
	// means lodes.DefaultDeltaConfig().
	DeltaConfig *lodes.DeltaConfig
	// StateDir, when non-empty, enables durable accounting: Open
	// recovers from it and journals every charge to it. Ignored by New.
	StateDir string
	// MaxInFlight bounds concurrently served /v1 requests; excess is
	// shed with 503 + Retry-After. 0 means the default (256), negative
	// disables shedding.
	MaxInFlight int
	// ReplicateFrom, when non-empty, boots the server as a follower
	// mirroring the primary at this base URL (requires StateDir and
	// AdminKey — the replication endpoints authenticate with the shared
	// admin key). The follower serves reads, sheds writes with a hint
	// to the primary, and becomes the primary on /v1/admin/promote.
	ReplicateFrom string
}

const defaultMaxInFlight = 256

// newServer builds the server in stateStarting; callers mark it ready.
func newServer(pub *core.Publisher, reg *privacy.Registry, opts Options) *Server {
	cfg := lodes.DefaultDeltaConfig()
	if opts.DeltaConfig != nil {
		cfg = *opts.DeltaConfig
	}
	maxInFlight := opts.MaxInFlight
	if maxInFlight == 0 {
		maxInFlight = defaultMaxInFlight
	}
	s := &Server{
		pub:         pub,
		reg:         reg,
		noise:       dist.NewStreamFromSeed(opts.NoiseSeed),
		adminKey:    opts.AdminKey,
		deltaCfg:    cfg,
		deltaSeed:   opts.DeltaSeed,
		replay:      newReplayCache(),
		maxInFlight: maxInFlight,
	}
	// Every node starts at term 1 until recovery or a stream says
	// otherwise; an in-memory server keeps it.
	s.term.Store(1)
	return s
}

// New creates an in-memory server over the publisher and tenant
// registry: no durability, immediately ready. Budgets reset on
// restart — the serving shape for tests and embedded use; production
// serving goes through Open.
func New(pub *core.Publisher, reg *privacy.Registry, opts Options) *Server {
	s := newServer(pub, reg, opts)
	s.state.Store(stateReady)
	return s
}

// Open creates a server with durable accounting under
// opts.StateDir: it recovers the write-ahead state (spend totals,
// per-epoch ledgers, dataset lineage, sequence counters, replay
// identities), restores every configured tenant's accountant
// bit-identically, replays the dataset lineage by regenerating each
// recorded quarter's delta from its recorded seed, attaches the
// journal so every future charge is durable before its response, and
// compacts the log into a fresh snapshot. The server is ready when
// Open returns. With an empty StateDir it degenerates to New.
//
// The publisher must be at the dataset lineage's epoch 0 (the same
// built-from-config dataset every boot); recovery re-derives later
// epochs. A recovered tenant whose configured definition or α changed
// is a boot error — spend history under one privacy definition cannot
// be reinterpreted under another. Changed budgets are honored (the
// history is kept; an accountant restored over budget refuses further
// charges). Recovered tenants absent from the configuration stay in
// the state untouched.
func Open(pub *core.Publisher, reg *privacy.Registry, opts Options) (*Server, error) {
	s := newServer(pub, reg, opts)
	if opts.StateDir == "" {
		if opts.ReplicateFrom != "" {
			return nil, fmt.Errorf("server: follower mode requires a state directory")
		}
		s.state.Store(stateReady)
		return s, nil
	}
	if opts.ReplicateFrom != "" {
		return openFollower(s, opts)
	}
	pers, err := openState(opts.StateDir)
	if err != nil {
		return nil, err
	}
	if err := s.adopt(pers); err != nil {
		pers.store.Close()
		return nil, err
	}
	s.state.Store(stateReady)
	return s, nil
}

// replayLineage advances the publisher through every recorded quarter
// it has not yet absorbed, regenerating each delta from its seed.
// Generation and Advance are deterministic, so the publisher lands on
// the exact snapshot chain the recorded history served. The caller
// must be the state's only writer (boot, promotion, or the follower's
// replication loop).
func (s *Server) replayLineage() error {
	seeds := s.persist.state.QuarterSeeds
	for q := s.pub.Epoch(); q < len(seeds); q++ {
		dl, err := lodes.GenerateDelta(s.pub.Dataset(), s.deltaCfg, dist.NewStreamFromSeed(seeds[q]))
		if err == nil {
			err = s.pub.Advance(dl)
		}
		if err != nil {
			return fmt.Errorf("server: replaying quarter %d: %w", q, err)
		}
	}
	return nil
}

// adopt takes ownership of a recovered (or mirrored) state: replay the
// dataset lineage the publisher has not yet absorbed, restore every
// configured tenant's accountant, seq counter and replay ring
// bit-identically, attach the journal, bring every ledger to the
// publisher's epoch through it, establish the fencing term, and
// compact into a fresh snapshot. Boot recovery and follower promotion
// are the same operation — a node assuming the primary role over a
// state it trusts.
func (s *Server) adopt(pers *Persistence) error {
	s.persist = pers
	st := pers.state
	if err := s.replayLineage(); err != nil {
		return err
	}
	s.advMu.Lock()
	s.quartersAbsorbed = len(st.QuarterSeeds)
	s.advMu.Unlock()

	for _, t := range s.reg.Tenants() {
		ts, ok := st.Tenants[t.Name]
		if !ok {
			continue
		}
		def, alpha := t.Acct.Def()
		if def != ts.Def || alpha != ts.Alpha {
			return fmt.Errorf("server: tenant %q recovered under %v(alpha=%g) but configured as %v(alpha=%g): spend history cannot change privacy definition",
				t.Name, ts.Def, ts.Alpha, def, alpha)
		}
		if err := t.Acct.Restore(ts.SpentEps, ts.SpentDelta, ts.Releases, ts.Ledger); err != nil {
			return fmt.Errorf("server: tenant %q: %w", t.Name, err)
		}
		ctr := new(atomic.Int64)
		ctr.Store(ts.NextSeq)
		s.seqs.Store(t.Name, ctr)
		s.replay.seed(t.Name, ts.Recent)
	}

	// From here every charge is write-ahead: registration records for
	// the full registry land first, then the journal is live.
	if err := s.reg.AttachJournal(pers); err != nil {
		return fmt.Errorf("server: attaching journal: %w", err)
	}

	// Reconcile: a crash can land between the dataset advance record
	// and some tenants' ledger advances, and a tenant new to the
	// configuration starts at epoch 0. Every ledger catches up to the
	// publisher's epoch through the journal, like any other advance, so
	// an advance is atomic-on-recovery: it either completed for all
	// tenants or completes now.
	for _, t := range s.reg.Tenants() {
		for t.Acct.Epoch() < s.pub.Epoch() {
			if _, err := t.Acct.AdvanceEpochLogged(); err != nil {
				return fmt.Errorf("server: reconciling tenant %q: %w", t.Name, err)
			}
		}
	}

	// Establish the fencing term. A fresh history starts at term 1 and
	// journals it; a recovered one keeps its recorded term — including
	// the fenced flag, so a deposed primary stays deposed across
	// restarts until an operator promotes it.
	if st.Term == 0 {
		if err := pers.LogTerm(1); err != nil {
			return fmt.Errorf("server: establishing term: %w", err)
		}
	}
	s.term.Store(st.Term)
	s.fenced.Store(st.Fenced)

	// Fold everything into a fresh snapshot so the replayed log is
	// compacted away and the next boot starts from this state.
	if err := pers.compact(); err != nil {
		return fmt.Errorf("server: boot compaction: %w", err)
	}
	return nil
}

// closePersistent compacts and closes the accounting store; the
// shutdown path calls it after the drain, when no request can be
// mid-charge (and a follower's replication loop has stopped).
func (s *Server) closePersistent() error {
	if s.persist == nil {
		return nil
	}
	err := s.persist.compact()
	if cerr := s.persist.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// beginDrain moves the server to draining: /readyz turns not-ready and
// the /v1 endpoints refuse new requests while in-flight ones finish.
func (s *Server) beginDrain() {
	s.state.Store(stateDraining)
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.Handle("POST /v1/release", s.withTimeout(s.shed(s.writable(s.withTenant(s.handleRelease)))))
	mux.Handle("POST /v1/batch", s.withTimeout(s.shed(s.writable(s.withTenant(s.handleBatch)))))
	mux.Handle("POST /v1/cell", s.withTimeout(s.shed(s.writable(s.withTenant(s.handleCell)))))
	mux.Handle("GET /v1/stats", s.withTimeout(s.shed(s.withTenant(s.handleStats))))
	// The admin advance is deliberately outside withTimeout: absorbing
	// several quarters legitimately outlives a per-request deadline,
	// and aborting it mid-sweep would buy nothing (each quarter is
	// journaled before it applies). It still sheds and drains.
	mux.HandleFunc("POST /v1/admin/advance", s.shed(s.writable(s.withAdmin(s.handleAdvance))))
	// Promotion and the replication surface sit outside shed: a
	// follower must be promotable before it is "ready", and a draining
	// primary should keep shipping its log so followers catch up.
	mux.HandleFunc("POST /v1/admin/promote", s.withAdmin(s.handlePromote))
	mux.HandleFunc("GET /v1/replication/snapshot", s.withAdmin(s.handleReplSnapshot))
	mux.HandleFunc("GET /v1/replication/stream", s.withAdmin(s.handleReplStream))
	mux.HandleFunc("GET /v1/replication/status", s.withAdmin(s.handleReplStatus))
	return http.MaxBytesHandler(mux, maxBodyBytes)
}

// writable refuses mutation on nodes that must not spend: a follower
// sheds spend traffic with a hint to the primary, and a fenced
// ex-primary refuses writes outright — the split-brain guarantee that
// a deposed node can never double-spend a tenant's budget.
func (s *Server) writable(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.fenced.Load() {
			writeJSON(w, http.StatusServiceUnavailable, errorBody{
				Error: fmt.Sprintf("fenced: this node was deposed at term %d and refuses writes; promote it to resume", s.term.Load()),
			})
			return
		}
		if s.role.Load() == roleFollower {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, errorBody{
				Error:   "read-only follower: spend traffic belongs on the primary",
				Primary: s.repl.upstream,
			})
			return
		}
		h(w, r)
	}
}

// shed gates a /v1 endpoint on lifecycle state and the in-flight
// bound: not-ready (starting or draining) and over-capacity requests
// get 503 + Retry-After instead of degrading everyone's latency.
func (s *Server) shed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		switch s.state.Load() {
		case stateStarting:
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "service is starting"})
			return
		case stateDraining:
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "service is draining"})
			return
		case stateDiverged:
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "replica has diverged from its primary and refuses to serve"})
			return
		}
		n := s.inflight.Add(1)
		defer s.inflight.Add(-1)
		if s.maxInFlight > 0 && n > int64(s.maxInFlight) {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "service is overloaded"})
			return
		}
		h(w, r)
	}
}

// withTimeout bounds a handler's total time when a per-request
// deadline is configured (Start's RunOptions); zero means unbounded.
// With the mid-response crash point armed the wrapper is skipped:
// http.TimeoutHandler buffers the whole response, which would turn a
// mid-body kill into a no-bytes kill and blind the chaos harness to
// exactly the torn-response case it exists to test.
func (s *Server) withTimeout(h http.Handler) http.Handler {
	if s.reqTimeout <= 0 || crashpoint.Armed(crashMidResponse) {
		return h
	}
	return http.TimeoutHandler(h, s.reqTimeout, `{"error":"request deadline exceeded"}`+"\n")
}

// tenantStream derives the root stream of one tenant's noise. Labeling
// by name (not key) means rotating a tenant's API key never changes its
// released values.
func (s *Server) tenantStream(name string) *dist.Stream {
	return s.noise.Split("tenant:" + name)
}

// requestStream derives the noise stream one request draws from: the
// tenant's root stream, split by sequence number, split by the
// request-content digest — the wire half of the determinism contract
// (the publisher folds in the pinned epoch). Deriving from the digest
// means a client reusing an explicit seq for a *different* request gets
// independent noise, while a true replay reproduces every byte.
func (s *Server) requestStream(tenant string, seq int64, digest string) *dist.Stream {
	return s.tenantStream(tenant).SplitIndex("req", int(seq)).Split("body:" + digest)
}

// seqCounter returns the tenant's counter: the next seq the server
// assigns.
func (s *Server) seqCounter(name string) *atomic.Int64 {
	v, ok := s.seqs.Load(name)
	if !ok {
		v, _ = s.seqs.LoadOrStore(name, new(atomic.Int64))
	}
	return v.(*atomic.Int64)
}

// nextSeq assigns the tenant's next request sequence number. A charge
// under a client-named seq raises the counter past it (raiseSeq), so an
// assigned seq does not repeat one already charged. One collision is
// left: a client naming, concurrently, a seq the counter has not reached
// yet can be charged under the same seq as a request assigned it in
// between.
func (s *Server) nextSeq(name string) int64 {
	return s.seqCounter(name).Add(1) - 1
}

// raiseSeq lifts the tenant's counter to seq+1 if it is lower: the rule
// recovery applies to the log's NextSeq, so the live counter and the log
// agree.
func (s *Server) raiseSeq(name string, seq int64) {
	c := s.seqCounter(name)
	for {
		cur := c.Load()
		if cur > seq || c.CompareAndSwap(cur, seq+1) {
			return
		}
	}
}

// resolveSeq picks the request's sequence number: the client's explicit
// one if present (validated by the decoder), else the tenant's counter.
func (s *Server) resolveSeq(name string, explicit *int64) int64 {
	if explicit != nil {
		return *explicit
	}
	return s.nextSeq(name)
}
