package server

// Durable accounting for the release service, built on internal/wal.
//
// The write-ahead contract: a spend record reaches the log — and
// fsync — before the release's response bytes leave the process, so
// no observed response exists without a durable record of its charge.
// The safe failure direction is over-charging (a crash after the
// record but before the response wastes budget); under-charging would
// let a restarted tenant re-spend, which is a privacy violation.
//
// The log carries these record kinds: tenant registration (budget
// parameters, so recovery can rebuild an accountant before replaying
// its charges), spends (the summed (ε, δ) of one charge plus its
// request identity when tagged), per-tenant ledger advances, dataset
// advances (the absolute quarter index and generation seed — deltas
// are generated deterministically from the seed, so recovery replays
// the dataset lineage instead of persisting datasets), fencing terms
// (a node establishing or observing a term — see replication.go),
// and periodic state digests. A digest record carries the state's
// multiset hash (stateSum), which applyRecord keeps current in a few
// element hashes per record; replaying a digest record compares it,
// so both recovery and a streaming follower detect divergence instead
// of serving from a forked state. Logs written before the multiset
// hash carry SHA-256 over the canonical state encoding instead, which
// replay still verifies.
//
// Persistence owns the node's one durable state, a persistentState,
// from openState to Close. Every record the node stages (a primary's
// charges, advances and terms) or mirrors (a follower's shipped
// batches) is applied to it in log order through applyRecord — the
// code path recovery replays — compaction encodes it, and the
// replication status hashes it. Nothing rebuilds it from the live
// accountants, so a snapshot is by construction what replaying the log
// gives: crash recovery, a drain, a follower bootstrap and a promotion
// write the same bytes for the same history, and a mirror is correct
// exactly when recovery is.
//
// Floats travel as IEEE-754 bit patterns and recovery re-applies the
// same additions in the same per-tenant order the live accountant
// performed them (the journal write happens under the accountant's
// mutex), so a recovered Registry is bit-identical to the one that
// crashed — spent totals, per-epoch ledgers, everything.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/crashpoint"
	"repro/internal/privacy"
	"repro/internal/wal"
)

// Record kinds. Values are part of the on-disk format; never renumber.
const (
	recRegister       byte = 1
	recSpend          byte = 2
	recAdvanceTenant  byte = 3
	recAdvanceDataset byte = 4
	recTerm           byte = 5 // node establishes fencing term (promote / first boot)
	recFence          byte = 6 // node observed a higher foreign term and fenced itself
	recDigest         byte = 7 // SHA-256 over the canonical state body; verified, no longer written
	recStateSum       byte = 8 // the state's multiset hash (stateSum) at this log position
)

// snapshotVersion 2 added the fencing term and fenced flag; version-1
// snapshots (pre-replication state dirs) decode with term 0.
const snapshotVersion byte = 2

// replayWindow bounds both per-tenant rings of remembered request
// identities: the durable Recent ring in the state and the live
// replayCache. Digests cover the durable ring, so every node must use
// the same bound — hence a constant. A retry older than the window
// re-charges — the safe direction (never a free fresh release).
const replayWindow = 4096

// digestEveryDefault is how many appended records elapse between
// journaled state digests. Small enough that every chaos script
// crosses at least one digest check; a digest record costs 41 log
// bytes and no hashing, since the state keeps its sum current.
const digestEveryDefault = 8

// Crash-point names (armed via EREE_CRASH, see internal/crashpoint).
const (
	crashBeforeSync     = "wal-before-sync"
	crashAfterSync      = "wal-after-sync"
	crashBeforeResponse = "serve-before-response"
	crashMidResponse    = "serve-mid-response"
	crashAfterAdvance   = "advance-after-record"
)

// ---- binary codec -------------------------------------------------

// recWriter builds a record/snapshot payload. All integers big-endian,
// strings length-prefixed, floats as Float64bits — the same canonical
// style as the request digest encoding (digest.go).
type recWriter struct{ b []byte }

func (w *recWriter) u8(v byte)     { w.b = append(w.b, v) }
func (w *recWriter) u32(v uint32)  { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *recWriter) u64(v uint64)  { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *recWriter) i64(v int64)   { w.u64(uint64(v)) }
func (w *recWriter) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *recWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}
func (w *recWriter) replayKey(k replayKey) {
	w.i64(k.Seq)
	w.str(k.Digest)
	w.u64(uint64(k.Epoch))
}

var errTruncatedRecord = errors.New("truncated record")

// recReader decodes what recWriter built. Like bufio.Scanner it keeps
// its first error, a read past the end, and returns zero values after
// it, so a decoder reads its fields in straight-line code and checks
// once, at done.
type recReader struct {
	b   []byte
	off int
	err error
}

// take returns the next n bytes, or nil once a read has come up short.
func (r *recReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b)-r.off < n {
		r.err = errTruncatedRecord
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *recReader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *recReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (r *recReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

func (r *recReader) i64() int64   { return int64(r.u64()) }
func (r *recReader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *recReader) str() string  { return string(r.take(int(r.u32()))) }

// done returns the first short read, else an error for unread bytes.
func (r *recReader) done() error {
	if r.err == nil && r.off != len(r.b) {
		return fmt.Errorf("record has %d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

// ---- journal ------------------------------------------------------

// Persistence adapts the WAL store into the privacy.Journal the
// accountants write through, plus the server-level dataset-advance
// and term records. Every Log method is durable on return
// (group-committed under concurrency via wal.Store.Stage/Commit).
//
// state is the node's durable state in exact log order, and it keeps
// its divergence digest current as each record applies. Every
// digestEveryDefault records the journal stages a recStateSum
// carrying that digest, and any replayer (recovery, a streaming
// follower) compares its own at the same log position. Staging —
// record ordering plus state application — happens under mu; the
// fsync wait does not, so group commit still batches.
//
// The state sees a record when it is staged, before its fsync, so it
// must never answer a replay lookup: that could re-serve bytes for a
// charge that never became durable. Replays stay on the replayCache,
// which learns an identity only after its charge committed.
type Persistence struct {
	store *wal.Store

	mu          sync.Mutex
	state       *persistentState
	sinceDigest int
}

// append stages one record (and, at the digest cadence, a trailing
// digest record), applies it to the state, and blocks until the group
// commit covering it completes.
func (p *Persistence) append(rec []byte) error {
	p.mu.Lock()
	seq, err := p.store.Stage(rec)
	if err != nil {
		p.mu.Unlock()
		return err
	}
	if aerr := p.state.applyRecord(rec); aerr != nil {
		// The record is staged but the state refused it: the log and the
		// in-memory state would disagree from here on. Surfacing the
		// error aborts the charge (the server sheds), which is the safe
		// over-charging direction — the staged record may still reach
		// disk and replay as spend with no response sent.
		p.mu.Unlock()
		return fmt.Errorf("server: state apply: %w", aerr)
	}
	p.sinceDigest++
	if p.sinceDigest >= digestEveryDefault {
		if dseq, derr := p.store.Stage(p.state.sumRecord()); derr == nil {
			// Digest records do not mutate state; nothing to apply.
			seq = dseq
			p.sinceDigest = 0
		}
	}
	p.mu.Unlock()
	return p.store.Commit(seq)
}

// mirror is a follower's apply path for one shipped batch: append the
// byte-identical frames to the local WAL (durable before anything
// observes them), then apply each to the state — shipped digest
// records verify in passing. A follower emits no records of its own,
// so the digest cadence is untouched.
func (p *Persistence) mirror(recs [][]byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.store.AppendBatch(recs); err != nil {
		return fmt.Errorf("mirroring records to the local log: %w", err)
	}
	for _, rec := range recs {
		if err := p.state.applyRecord(rec); err != nil {
			return fmt.Errorf("applying shipped record: %w", err)
		}
	}
	return nil
}

// install is a follower's bootstrap: replace the state with the
// decoding of a primary's compacted snapshot, and install the bytes
// verbatim into the local store so the next restart recovers from the
// prefix the primary's would. The snapshot's dataset lineage must
// extend the first absorbed quarters of the current state — a
// publisher cannot rewind — so a shorter or forked lineage is
// divergence, and it leaves the store untouched for forensics.
func (p *Persistence) install(snap []byte, absorbed int) error {
	next := newPersistentState()
	if snap != nil {
		var err error
		if next, err = decodeSnapshot(snap); err != nil {
			return fmt.Errorf("primary snapshot undecodable: %w", err)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(next.QuarterSeeds) < absorbed {
		return fmt.Errorf("primary lineage has %d quarters but the local publisher is at epoch %d: mirrors have forked", len(next.QuarterSeeds), absorbed)
	}
	for i := 0; i < absorbed; i++ {
		if next.QuarterSeeds[i] != p.state.QuarterSeeds[i] {
			return fmt.Errorf("dataset lineage fork at quarter %d: primary seed %d, local %d", i, next.QuarterSeeds[i], p.state.QuarterSeeds[i])
		}
	}
	if snap != nil {
		if err := p.store.Snapshot(snap); err != nil {
			return fmt.Errorf("installing primary snapshot: %w", err)
		}
	}
	p.state = next
	return nil
}

// compact folds the state into a fresh snapshot and rotates the log,
// restarting the digest cadence: every digest chain is anchored at a
// snapshot both a recovering process and a bootstrapping follower
// decode identically. Like wal.Store.Snapshot, this is a
// quiescent-point operation (boot, drain, promote).
func (p *Persistence) compact() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.store.Snapshot(encodeSnapshot(p.state)); err != nil {
		return err
	}
	p.sinceDigest = 0
	return nil
}

// digest is the node's live divergence digest: the hash a replayer of
// its log would compute right now.
func (p *Persistence) digest() string {
	p.mu.Lock()
	d := p.state.sum.bytes()
	p.mu.Unlock()
	return hex.EncodeToString(d[:])
}

func (p *Persistence) LogSpend(rec privacy.SpendRecord) error { return p.append(spendRecord(rec)) }

func (p *Persistence) LogAdvance(rec privacy.AdvanceRecord) error {
	return p.append(tenantAdvanceRecord(rec))
}

func (p *Persistence) LogRegister(rec privacy.RegisterRecord) error {
	return p.append(registerRecord(rec))
}

// LogDatasetAdvance records that the server absorbed its quarter-th
// quarterly delta, generated from seed. Recovery regenerates the delta
// from the seed — generation is deterministic — and re-advances.
func (p *Persistence) LogDatasetAdvance(quarter int, seed int64) error {
	return p.append(datasetAdvanceRecord(quarter, seed))
}

// LogTerm durably records this node establishing term (promotion or
// first primary boot); LogFence records it observing a higher foreign
// term and fencing itself. Both are monotonic: applyRecord refuses a
// regression, so a forked log cannot smuggle an old term back in.
func (p *Persistence) LogTerm(term uint64) error { return p.append(termRecord(recTerm, term)) }

func (p *Persistence) LogFence(term uint64) error { return p.append(termRecord(recFence, term)) }

// ---- record encodings ---------------------------------------------

func spendRecord(rec privacy.SpendRecord) []byte {
	var w recWriter
	w.u8(recSpend)
	w.str(rec.Tenant)
	w.f64(rec.Eps)
	w.f64(rec.Delta)
	w.u32(uint32(rec.Releases))
	if rec.Tag != nil {
		w.u8(1)
		w.i64(rec.Tag.Seq)
		w.str(rec.Tag.Digest)
		w.u64(uint64(rec.Tag.Epoch))
	} else {
		w.u8(0)
	}
	return w.b
}

func tenantAdvanceRecord(rec privacy.AdvanceRecord) []byte {
	var w recWriter
	w.u8(recAdvanceTenant)
	w.str(rec.Tenant)
	w.u64(uint64(rec.Epoch))
	return w.b
}

func registerRecord(rec privacy.RegisterRecord) []byte {
	var w recWriter
	w.u8(recRegister)
	w.str(rec.Tenant)
	w.u32(uint32(rec.Def))
	w.f64(rec.Alpha)
	w.f64(rec.BudgetEps)
	w.f64(rec.BudgetDelta)
	return w.b
}

func datasetAdvanceRecord(quarter int, seed int64) []byte {
	var w recWriter
	w.u8(recAdvanceDataset)
	w.u64(uint64(quarter))
	w.i64(seed)
	return w.b
}

// termRecord encodes a recTerm or recFence record.
func termRecord(kind byte, term uint64) []byte {
	var w recWriter
	w.u8(kind)
	w.u64(term)
	return w.b
}

// ---- recovered state ----------------------------------------------

// replayKey is the dedup identity of a charged request: with wire
// determinism, (tenant, seq, digest, epoch) fully determines the
// response bytes, so a repeat under the same key can be re-served
// without a second charge.
type replayKey struct {
	Seq    int64
	Digest string
	Epoch  int
}

// tenantState is one tenant's accounting as the log records it.
type tenantState struct {
	Def         privacy.Definition
	Alpha       float64
	BudgetEps   float64
	BudgetDelta float64
	Ledger      privacy.Ledger
	NextSeq     int64
	Recent      []replayKey // oldest first, ≤ replayWindow
}

// persistentState is everything the snapshot carries (and the log
// patches): the dataset lineage, every tenant's accounting — including
// tenants the current configuration no longer names, whose history
// simply stays — and the node's fencing term. sum is not encoded: it
// is the state's divergence digest, sumOf(st), which decodeSnapshot
// computes once and applyRecord keeps current; enc is applyRecord's
// scratch writer for element hashes.
type persistentState struct {
	QuarterSeeds []int64
	Tenants      map[string]*tenantState
	Term         uint64
	Fenced       bool
	sum          stateSum
	enc          recWriter
}

func newPersistentState() *persistentState {
	return &persistentState{Tenants: make(map[string]*tenantState)}
}

// ---- divergence digest --------------------------------------------

// stateSum is the divergence digest: a multiset hash (MSet-Add-Hash,
// Clarke et al., ASIACRYPT 2003), the sum mod 2²⁵⁶ of SHA-256 over
// each state element. Addition commutes, so the sum needs no element
// order, and a record that changes some elements moves it by
// subtracting their old hashes and adding their new ones — a few
// hashes per record, whatever the size of the state. The limbs are
// little-endian: s[0] holds the least significant 64 bits.
//
// The digest detects divergence between replayers of one log. It is
// not a commitment against the log's writer, and with elements chosen
// by an adversary a 256-bit additive hash is not collision-resistant
// (Wagner's generalized birthday attack); DESIGN §12.
type stateSum [4]uint64

func (s *stateSum) add(h [sha256.Size]byte) {
	var c uint64
	for i := range s {
		s[i], c = bits.Add64(s[i], binary.BigEndian.Uint64(h[24-8*i:]), c)
	}
}

func (s *stateSum) sub(h [sha256.Size]byte) {
	var b uint64
	for i := range s {
		s[i], b = bits.Sub64(s[i], binary.BigEndian.Uint64(h[24-8*i:]), b)
	}
}

// bytes is the sum as a 32-byte big-endian integer: the form digest
// records and the replication status carry.
func (s stateSum) bytes() (out [sha256.Size]byte) {
	for i, l := range s {
		binary.BigEndian.PutUint64(out[24-8*i:], l)
	}
	return out
}

// State element kinds. Each element is hashed as SHA-256 over its kind
// byte and its recWriter encoding, so elements of two kinds never
// share an encoding. The fencing term and fenced flag are no element:
// a promoted follower (term bumped) must still converge with an
// uninterrupted single-node run of the same history.
const (
	elemTenant  byte = 1 // identity, budgets, ledger totals and NextSeq
	elemEpoch   byte = 2 // one ledger epoch entry and its position
	elemQuarter byte = 3 // one dataset quarter's index and seed
	elemReplay  byte = 4 // one replay-ring entry and its predecessor
)

// The element hashes encode into w's buffer, reset first, so a
// state's scratch writer (persistentState.enc) serves every record
// without allocating once it has grown to the largest element.

func (w *recWriter) tenantElem(name string, t *tenantState) [sha256.Size]byte {
	w.b = append(w.b[:0], elemTenant)
	w.str(name)
	w.u32(uint32(t.Def))
	w.f64(t.Alpha)
	w.f64(t.BudgetEps)
	w.f64(t.BudgetDelta)
	w.f64(t.Ledger.SpentEps)
	w.f64(t.Ledger.SpentDelta)
	w.u64(uint64(t.Ledger.Releases))
	w.i64(t.NextSeq)
	return sha256.Sum256(w.b)
}

func (w *recWriter) epochElem(name string, pos int, e privacy.EpochSpend) [sha256.Size]byte {
	w.b = append(w.b[:0], elemEpoch)
	w.str(name)
	w.u32(uint32(pos))
	w.u64(uint64(e.Epoch))
	w.f64(e.Eps)
	w.f64(e.Delta)
	w.u64(uint64(e.Releases))
	return sha256.Sum256(w.b)
}

func (w *recWriter) quarterElem(quarter int, seed int64) [sha256.Size]byte {
	w.b = append(w.b[:0], elemQuarter)
	w.u32(uint32(quarter))
	w.i64(seed)
	return sha256.Sum256(w.b)
}

// replayElem hashes ring entry k with its predecessor, nil for the
// oldest entry. Chaining each entry to the one before it covers the
// ring's order without storing a position: an append adds one element,
// and evicting the oldest entry removes two and adds one.
func (w *recWriter) replayElem(name string, k replayKey, pred *replayKey) [sha256.Size]byte {
	w.b = append(w.b[:0], elemReplay)
	w.str(name)
	w.replayKey(k)
	if pred == nil {
		w.u8(0)
	} else {
		w.u8(1)
		w.replayKey(*pred)
	}
	return sha256.Sum256(w.b)
}

// sumOf computes a state's divergence digest from scratch: the sum of
// every element's hash. decodeSnapshot calls it once; from there
// applyRecord keeps st.sum equal to it, which the tests check against
// this function.
func sumOf(st *persistentState) stateSum {
	var s stateSum
	var w recWriter
	for q, seed := range st.QuarterSeeds {
		s.add(w.quarterElem(q, seed))
	}
	for name, t := range st.Tenants {
		s.add(w.tenantElem(name, t))
		for pos, e := range t.Ledger.Epochs {
			s.add(w.epochElem(name, pos, e))
		}
		var pred *replayKey
		for i := range t.Recent {
			s.add(w.replayElem(name, t.Recent[i], pred))
			pred = &t.Recent[i]
		}
	}
	return s
}

// sumRecord is the digest record the primary stages at the cadence.
func (st *persistentState) sumRecord() []byte {
	d := st.sum.bytes()
	return append([]byte{recStateSum}, d[:]...)
}

// legacyDigest is the digest recDigest records carry: SHA-256 over the
// canonical body encoding, in sorted tenant order. It costs a pass over
// the whole state, so it is computed only to verify those records in
// logs written before the multiset hash.
func legacyDigest(st *persistentState) [sha256.Size]byte {
	var w recWriter
	encodeStateBody(&w, st)
	return sha256.Sum256(w.b)
}

// applyRecord replays one log record onto the state, and moves st.sum
// by the elements it changes. Records are CRC-clean by the time they
// get here, so a semantic violation means the log and snapshot
// disagree structurally — that is corruption, and recovery fails
// rather than guessing at spend totals. A refused record changes
// nothing.
func (st *persistentState) applyRecord(payload []byte) error {
	r := &recReader{b: payload}
	kind := r.u8()
	if r.err != nil {
		return r.err
	}
	switch kind {
	case recRegister:
		name, def, alpha := r.str(), privacy.Definition(r.u32()), r.f64()
		beps, bdelta := r.f64(), r.f64()
		if err := r.done(); err != nil {
			return err
		}
		if t, ok := st.Tenants[name]; ok {
			// Re-registration (every boot journals the registry): budgets
			// may have been reconfigured; identity must not change.
			if t.Def != def || t.Alpha != alpha {
				return fmt.Errorf("tenant %q re-registered under a different definition", name)
			}
			st.sum.sub(st.enc.tenantElem(name, t))
			t.BudgetEps, t.BudgetDelta = beps, bdelta
			st.sum.add(st.enc.tenantElem(name, t))
			return nil
		}
		t := &tenantState{
			Def: def, Alpha: alpha,
			BudgetEps: beps, BudgetDelta: bdelta,
			Ledger: privacy.NewLedger(),
		}
		st.Tenants[name] = t
		st.sum.add(st.enc.tenantElem(name, t))
		st.sum.add(st.enc.epochElem(name, 0, t.Ledger.Epochs[0]))
		return nil

	case recSpend:
		name, eps, delta, releases := r.str(), r.f64(), r.f64(), r.u32()
		tagged := r.u8()
		var tag replayKey
		if tagged == 1 {
			tag.Seq, tag.Digest, tag.Epoch = r.i64(), r.str(), int(r.u64())
		}
		if err := r.done(); err != nil {
			return err
		}
		t, ok := st.Tenants[name]
		if !ok {
			return fmt.Errorf("spend for unregistered tenant %q", name)
		}
		open := len(t.Ledger.Epochs) - 1
		st.sum.sub(st.enc.tenantElem(name, t))
		st.sum.sub(st.enc.epochElem(name, open, t.Ledger.Epochs[open]))
		// The live accountant's own charge, in its order — the journal
		// append happens under its mutex — so the floats are bit-identical.
		t.Ledger.Charge(eps, delta, int(releases))
		if tagged == 1 {
			st.pushReplay(name, t, tag)
			if tag.Seq+1 > t.NextSeq {
				t.NextSeq = tag.Seq + 1
			}
		}
		st.sum.add(st.enc.tenantElem(name, t))
		st.sum.add(st.enc.epochElem(name, open, t.Ledger.Epochs[open]))
		return nil

	case recAdvanceTenant:
		name, epoch := r.str(), r.u64()
		if err := r.done(); err != nil {
			return err
		}
		t, ok := st.Tenants[name]
		if !ok {
			return fmt.Errorf("advance for unregistered tenant %q", name)
		}
		if err := t.Ledger.Advance(int(epoch)); err != nil {
			return fmt.Errorf("tenant %q %v", name, err)
		}
		open := len(t.Ledger.Epochs) - 1
		st.sum.add(st.enc.epochElem(name, open, t.Ledger.Epochs[open]))
		return nil

	case recAdvanceDataset:
		quarter, seed := r.u64(), r.i64()
		if err := r.done(); err != nil {
			return err
		}
		if int(quarter) != len(st.QuarterSeeds) {
			return fmt.Errorf("dataset advance for quarter %d, expected %d", quarter, len(st.QuarterSeeds))
		}
		st.sum.add(st.enc.quarterElem(len(st.QuarterSeeds), seed))
		st.QuarterSeeds = append(st.QuarterSeeds, seed)
		return nil

	case recTerm, recFence:
		term := r.u64()
		if err := r.done(); err != nil {
			return err
		}
		if term <= st.Term {
			return fmt.Errorf("fencing term regression: %d after %d", term, st.Term)
		}
		st.Term = term
		st.Fenced = kind == recFence
		return nil

	case recStateSum, recDigest:
		sum := r.take(sha256.Size)
		if err := r.done(); err != nil {
			return err
		}
		want := st.sum.bytes()
		if kind == recDigest {
			want = legacyDigest(st)
		}
		if !bytes.Equal(sum, want[:]) {
			return fmt.Errorf("state digest mismatch at log position: recorded %x, computed %x — replica/replay has diverged", sum, want)
		}
		return nil

	default:
		return fmt.Errorf("unknown record kind %d", kind)
	}
}

// pushReplay appends k to t's replay ring and evicts the oldest entries
// beyond replayWindow, moving st.sum by each entry-and-predecessor
// element that appears or goes.
func (st *persistentState) pushReplay(name string, t *tenantState, k replayKey) {
	var pred *replayKey
	if n := len(t.Recent); n > 0 {
		pred = &t.Recent[n-1]
	}
	st.sum.add(st.enc.replayElem(name, k, pred))
	t.Recent = append(t.Recent, k)
	for len(t.Recent) > replayWindow {
		oldest, next := t.Recent[0], t.Recent[1]
		st.sum.sub(st.enc.replayElem(name, oldest, nil))
		st.sum.sub(st.enc.replayElem(name, next, &oldest))
		st.sum.add(st.enc.replayElem(name, next, nil))
		t.Recent = t.Recent[1:]
	}
}

// encodeSnapshot serializes the full state (sorted tenant order, so
// identical state is identical bytes): a version byte, the fencing
// term and fenced flag, then the canonical body.
func encodeSnapshot(st *persistentState) []byte {
	var w recWriter
	w.u8(snapshotVersion)
	w.u64(st.Term)
	if st.Fenced {
		w.u8(1)
	} else {
		w.u8(0)
	}
	encodeStateBody(&w, st)
	return w.b
}

func encodeStateBody(w *recWriter, st *persistentState) {
	w.u32(uint32(len(st.QuarterSeeds)))
	for _, seed := range st.QuarterSeeds {
		w.i64(seed)
	}
	names := make([]string, 0, len(st.Tenants))
	for name := range st.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	w.u32(uint32(len(names)))
	for _, name := range names {
		t := st.Tenants[name]
		w.str(name)
		w.u32(uint32(t.Def))
		w.f64(t.Alpha)
		w.f64(t.BudgetEps)
		w.f64(t.BudgetDelta)
		w.f64(t.Ledger.SpentEps)
		w.f64(t.Ledger.SpentDelta)
		w.u64(uint64(t.Ledger.Releases))
		w.i64(t.NextSeq)
		w.u32(uint32(len(t.Ledger.Epochs)))
		for _, e := range t.Ledger.Epochs {
			w.u64(uint64(e.Epoch))
			w.f64(e.Eps)
			w.f64(e.Delta)
			w.u64(uint64(e.Releases))
		}
		w.u32(uint32(len(t.Recent)))
		for _, k := range t.Recent {
			w.replayKey(k)
		}
	}
}

func decodeSnapshot(payload []byte) (*persistentState, error) {
	r := &recReader{b: payload}
	ver := r.u8()
	if r.err == nil && ver != 1 && ver != snapshotVersion {
		return nil, fmt.Errorf("snapshot version %d not supported", ver)
	}
	st := newPersistentState()
	if ver >= 2 {
		st.Term, st.Fenced = r.u64(), r.u8() == 1
	}
	// Every count loop stops at the first short read, so a corrupt count
	// costs no more iterations than the payload has bytes.
	for i, n := uint32(0), r.u32(); i < n && r.err == nil; i++ {
		st.QuarterSeeds = append(st.QuarterSeeds, r.i64())
	}
	for i, n := uint32(0), r.u32(); i < n && r.err == nil; i++ {
		name := r.str()
		t := &tenantState{Def: privacy.Definition(r.u32()), Alpha: r.f64(), BudgetEps: r.f64(), BudgetDelta: r.f64()}
		t.Ledger.SpentEps, t.Ledger.SpentDelta, t.Ledger.Releases = r.f64(), r.f64(), int(r.u64())
		t.NextSeq = r.i64()
		nl := r.u32()
		if r.err == nil && nl == 0 {
			return nil, fmt.Errorf("tenant %q snapshot has an empty ledger", name)
		}
		for j := uint32(0); j < nl && r.err == nil; j++ {
			e := privacy.EpochSpend{Epoch: int(r.u64()), Eps: r.f64(), Delta: r.f64(), Releases: int(r.u64())}
			t.Ledger.Epochs = append(t.Ledger.Epochs, e)
		}
		for j, nr := uint32(0), r.u32(); j < nr && r.err == nil; j++ {
			t.Recent = append(t.Recent, replayKey{Seq: r.i64(), Digest: r.str(), Epoch: int(r.u64())})
		}
		st.Tenants[name] = t
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	st.sum = sumOf(st)
	return st, nil
}

// openState opens the WAL in dir and reconstructs the node's state:
// decode the snapshot, then replay every post-snapshot record (digest
// records along the way re-verify the replay).
func openState(dir string) (*Persistence, error) {
	store, recovered, err := wal.Open(dir, wal.Options{
		BeforeSync: func() { crashpoint.Maybe(crashBeforeSync) },
		AfterSync:  func() { crashpoint.Maybe(crashAfterSync) },
	})
	if err != nil {
		return nil, err
	}
	st := newPersistentState()
	if recovered.Snapshot != nil {
		st, err = decodeSnapshot(recovered.Snapshot)
		if err != nil {
			store.Close()
			return nil, fmt.Errorf("server: state snapshot: %w", err)
		}
	}
	for i, raw := range recovered.Records {
		if err := st.applyRecord(raw); err != nil {
			store.Close()
			return nil, fmt.Errorf("server: state log record %d: %w", i, err)
		}
	}
	return &Persistence{store: store, state: st}, nil
}

// ---- replay cache -------------------------------------------------

// replayCache is the live mirror of each tenant's Recent ring: the
// request identities whose charges are on disk, so a repeat can be
// served as a free replay. Bounded per tenant by replayWindow;
// eviction is oldest-first, and an evicted identity simply re-charges
// on retry.
type replayCache struct {
	mu      sync.Mutex
	tenants map[string]*tenantReplay
}

type tenantReplay struct {
	seen      map[replayKey]struct{}
	fifo      []replayKey
	evictions int64
}

func newReplayCache() *replayCache {
	return &replayCache{tenants: make(map[string]*tenantReplay)}
}

func (c *replayCache) add(tenant string, k replayKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tr, ok := c.tenants[tenant]
	if !ok {
		tr = &tenantReplay{seen: make(map[replayKey]struct{})}
		c.tenants[tenant] = tr
	}
	if _, dup := tr.seen[k]; dup {
		return
	}
	tr.seen[k] = struct{}{}
	tr.fifo = append(tr.fifo, k)
	if len(tr.fifo) > replayWindow {
		evict := tr.fifo[0]
		tr.fifo = tr.fifo[1:]
		delete(tr.seen, evict)
		tr.evictions++
	}
}

// stats reports the tenant's live ring occupancy and how many
// identities have been evicted over its lifetime — surfaced in
// /v1/stats so operators can see when retries are old enough to
// re-charge.
func (c *replayCache) stats(tenant string) (size int, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if tr, ok := c.tenants[tenant]; ok {
		return len(tr.fifo), tr.evictions
	}
	return 0, 0
}

func (c *replayCache) has(tenant string, k replayKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	tr, ok := c.tenants[tenant]
	if !ok {
		return false
	}
	_, hit := tr.seen[k]
	return hit
}
