package server

// Follower mode: a live, bit-identical mirror of a primary's durable
// state, maintained by tailing the primary's WAL. The mirror is the
// node's own Persistence state — the same one a primary journals
// into — and every shipped record reaches it through applyRecord, the
// identical code path boot recovery uses, so a mirror is correct
// exactly when recovery is, and a follower compacts exactly as a
// primary does.
//
// The loop's contract, in order, for every batch: Persistence.mirror
// (1) appends the shipped records to the local WAL — byte-identical
// frames, durable before anything observes them — then (2) applies
// each to the state; (3) the local publisher then replays any dataset
// advances the batch carried. Shipped digest records are verified by
// applyRecord at the same log positions the primary computed them, so
// a mirror that has diverged halts loudly (stops replicating, stops
// serving, refuses promotion) instead of serving or inheriting a
// forked ledger. A follower that falls behind a compaction re-seeds
// from the snapshot endpoint and resumes — catch-up is part of the
// protocol, not an operator event.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/wal"
)

// replFatalError marks a replication failure that retrying cannot fix:
// a record the mirror refuses, a digest mismatch, a forked dataset
// lineage. The loop halts on it; transport errors just back off.
type replFatalError struct{ err error }

func (e *replFatalError) Error() string { return e.err.Error() }
func (e *replFatalError) Unwrap() error { return e.err }

func fatalRepl(err error) error { return &replFatalError{err} }

const (
	// streamWait is the follower's long-poll: the primary holds a stream
	// request this long for new durable records before answering empty,
	// and the follower polls again at once.
	streamWait = 250 * time.Millisecond
	// replRetryDelay is the follower's back-off after a failed
	// replication request (primary unreachable or refusing).
	replRetryDelay = 250 * time.Millisecond
)

// replState is a follower's replication machinery: the upstream
// cursor and the streaming loop's lifecycle. The mirrored state itself
// lives in the server's Persistence.
type replState struct {
	upstream string
	adminKey string
	client   *http.Client

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	mu sync.Mutex
	// synced means (gen, offset) is a valid cursor into the primary's
	// live generation; false forces a snapshot bootstrap.
	synced bool
	gen    uint64
	offset int64
	// applied counts records applied within gen; upstreamDurable is the
	// primary's durable record count in gen as of the last response —
	// their difference is the replication lag.
	applied         uint64
	upstreamDurable uint64
	diverged        string
}

// openFollower boots s as a follower of opts.ReplicateFrom: recover
// the local mirror (so reads serve immediately after a restart), then
// stream. Open returns without waiting for the primary — /readyz turns
// ready at the first successful bootstrap, and promotion works even
// while catching up (the mirror is whatever has been made durable).
func openFollower(s *Server, opts Options) (*Server, error) {
	if opts.AdminKey == "" {
		return nil, fmt.Errorf("server: follower mode requires the admin key (replication endpoints authenticate with it)")
	}
	pers, err := openState(opts.StateDir)
	if err != nil {
		return nil, err
	}
	s.persist = pers
	s.role.Store(roleFollower)
	if t := pers.state.Term; t > 0 {
		s.term.Store(t)
	}
	s.repl = &replState{
		upstream: strings.TrimRight(opts.ReplicateFrom, "/"),
		adminKey: opts.AdminKey,
		client:   &http.Client{Timeout: maxStreamWait + 15*time.Second},
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if err := s.replayLineage(); err != nil {
		pers.store.Close()
		return nil, err
	}
	go s.repl.run(s)
	return s, nil
}

// run is the replication loop: bootstrap when the cursor is invalid,
// otherwise tail. The stream's long-poll is the only wait between
// polls; a failed request backs off replRetryDelay, and divergence
// halts the loop permanently.
func (rs *replState) run(s *Server) {
	defer close(rs.done)
	for {
		select {
		case <-rs.stop:
			return
		default:
		}
		err := rs.syncOnce(s)
		if err == nil {
			continue
		}
		var fatal *replFatalError
		if errors.As(err, &fatal) {
			rs.markDiverged(s, err.Error())
			log.Printf("ereeserve follower: DIVERGED from %s, halting replication: %v", rs.upstream, err)
			return
		}
		select {
		case <-rs.stop:
			return
		case <-time.After(replRetryDelay):
		}
	}
}

func (rs *replState) syncOnce(s *Server) error {
	rs.mu.Lock()
	synced := rs.synced
	rs.mu.Unlock()
	if !synced {
		if err := rs.bootstrap(s); err != nil {
			return err
		}
		s.state.CompareAndSwap(stateStarting, stateReady)
		return nil
	}
	return rs.streamOnce(s)
}

// bootstrap (re-)seeds the mirror from the primary's compacted
// snapshot (Persistence.install verifies that its dataset lineage
// extends what the local publisher already absorbed, and installs the
// bytes into the local WAL), replays the lineage into the publisher,
// and points the cursor at the generation's start.
func (rs *replState) bootstrap(s *Server) error {
	var snap replSnapshotJSON
	if err := rs.get(s, "/v1/replication/snapshot", nil, &snap); err != nil {
		return err
	}
	if err := checkArch(snap.Arch); err != nil {
		return err
	}
	if err := s.persist.install(snap.Snapshot, s.pub.Epoch()); err != nil {
		return fatalRepl(err)
	}
	if err := s.replayLineage(); err != nil {
		return fatalRepl(err)
	}
	if t := s.persist.state.Term; t > s.term.Load() {
		s.term.Store(t)
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.gen = snap.Gen
	rs.offset = wal.StreamStart()
	rs.applied = 0
	rs.upstreamDurable = snap.DurableRecords
	rs.synced = true
	return nil
}

// streamOnce tails one batch from the cursor and mirrors it: local WAL
// append first (durable before observed), then state application.
func (rs *replState) streamOnce(s *Server) error {
	rs.mu.Lock()
	gen, off := rs.gen, rs.offset
	rs.mu.Unlock()
	q := url.Values{}
	q.Set("gen", strconv.FormatUint(gen, 10))
	q.Set("offset", strconv.FormatInt(off, 10))
	q.Set("wait_ms", strconv.FormatInt(streamWait.Milliseconds(), 10))
	var resp replStreamJSON
	if err := rs.get(s, "/v1/replication/stream", q, &resp); err != nil {
		return err
	}
	if err := checkArch(resp.Arch); err != nil {
		return err
	}
	if resp.Compacted {
		rs.mu.Lock()
		rs.synced = false
		rs.mu.Unlock()
		return nil
	}
	if len(resp.Records) == 0 {
		rs.mu.Lock()
		rs.upstreamDurable = resp.DurableRecords
		rs.mu.Unlock()
		return nil
	}
	if err := s.persist.mirror(resp.Records); err != nil {
		return fatalRepl(err)
	}
	// Once per batch: dataset advances move the publisher, a higher
	// recorded term moves the node's term. This loop is the state's only
	// writer on a follower, so it reads the state without the lock.
	if err := s.replayLineage(); err != nil {
		return fatalRepl(err)
	}
	if t := s.persist.state.Term; t > s.term.Load() {
		s.term.Store(t)
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.applied += uint64(len(resp.Records))
	rs.offset = resp.Next
	rs.upstreamDurable = resp.DurableRecords
	return nil
}

// checkArch halts replication from a primary built for another
// architecture. Both nodes regenerate the dataset from its seed, and
// math.Exp, math.Log and math.Pow may round differently across
// architectures, so such a follower could hold a different dataset,
// pass every ledger digest, and after promotion serve different truths.
// A primary that reports no architecture predates the field and is
// accepted: followers upgrade before their primary (DESIGN.md §12).
func checkArch(primary string) error {
	if primary != "" && primary != runtime.GOARCH {
		return fatalRepl(fmt.Errorf("primary runs on %s, this follower on %s: the regenerated datasets may differ", primary, runtime.GOARCH))
	}
	return nil
}

// get performs one authenticated replication request against the
// upstream, decoding a 200 JSON body into out.
func (rs *replState) get(s *Server, path string, q url.Values, out any) error {
	u := rs.upstream + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	req.Header.Set(apiKeyHeader, rs.adminKey)
	req.Header.Set(replTermHeader, strconv.FormatUint(s.term.Load(), 10))
	resp, err := rs.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("primary %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, out)
}

// markDiverged halts the node: replication stops (the loop exits after
// this), /readyz reports diverged, the /v1 endpoints shed, and
// promotion is refused. The forked state stays on disk for forensics.
func (rs *replState) markDiverged(s *Server, msg string) {
	rs.mu.Lock()
	rs.diverged = msg
	rs.synced = false
	rs.mu.Unlock()
	s.state.Store(stateDiverged)
}

// stopLoop stops the replication loop and waits for it to exit.
// Idempotent; safe after the loop already halted itself.
func (rs *replState) stopLoop() {
	rs.stopOnce.Do(func() { close(rs.stop) })
	<-rs.done
}

// lag is the follower's replication lag in records within the current
// generation (0 while unsynced — there is no frontier to lag).
func (rs *replState) lag() int64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	l := int64(rs.upstreamDurable) - int64(rs.applied)
	if l < 0 || !rs.synced {
		return 0
	}
	return l
}

// status fills the follower half of a replication status response.
func (rs *replState) status(out *replStatusJSON) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out.Upstream = rs.upstream
	out.Gen = rs.gen
	out.AppliedRecords = rs.applied
	if l := int64(rs.upstreamDurable) - int64(rs.applied); l > 0 && rs.synced {
		out.LagRecords = l
	}
	out.Diverged = rs.diverged
}

// promoteFollower is the follower half of /v1/admin/promote (fenceMu
// held): stop mirroring, journal a strictly higher term, and adopt the
// mirrored state exactly as boot recovery would — restored
// accountants, attached journal, compacted snapshot. The promoted node
// is a primary whose history is the primary's history.
func (s *Server) promoteFollower() error {
	rs := s.repl
	rs.stopLoop()
	rs.mu.Lock()
	diverged := rs.diverged
	rs.mu.Unlock()
	if diverged != "" {
		return fmt.Errorf("refusing to promote a diverged follower: %s", diverged)
	}
	if err := s.persist.LogTerm(max(s.persist.state.Term+1, 2)); err != nil {
		return fmt.Errorf("journaling promotion term: %w", err)
	}
	if err := s.adopt(s.persist); err != nil {
		return fmt.Errorf("adopting mirrored state: %w", err)
	}
	s.role.Store(rolePrimary)
	s.state.Store(stateReady)
	return nil
}
