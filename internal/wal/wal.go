// Package wal implements the append-only write-ahead log behind the
// release service's durable privacy accounting.
//
// A Store is a directory holding at most one generation of state: a
// snapshot file (the compacted prefix of history) plus a log file of
// records appended since that snapshot. Records are opaque byte
// payloads framed as
//
//	u32 length | u32 CRC32-C(payload) | payload
//
// after an 8-byte file magic. Append returns only after the record is
// flushed and fsynced, so a caller that has seen Append return may act
// on the record's durability (the write-ahead contract: no response
// bytes leave the process before the spend they account for is on
// disk). Concurrent appenders share fsyncs through group commit: the
// first goroutine to reach the sync step becomes the leader, flushes
// every record buffered so far, fsyncs once outside the lock, and
// wakes all waiters whose records that sync covered.
//
// Snapshot rotates generations: the new snapshot is written to a temp
// file, fsynced, renamed into place, and the directory fsynced before
// a fresh empty log is created and the previous generation deleted. A
// crash between any two of those steps leaves a state Open can
// resolve unambiguously — the highest-generation valid snapshot wins,
// and a lower-generation log's records are already folded into it.
//
// Open's recovery reader distinguishes two failure modes. A torn log
// tail — the crash window of a half-flushed append — is expected and
// repaired: parsing stops at the first record whose frame or checksum
// is damaged, the file is truncated back to the last intact record,
// and appending resumes from there. A damaged snapshot is not a crash
// artifact (snapshots are fsynced before the rename that publishes
// them), so it is reported as an error instead of silently dropping
// accounted spend: for privacy accounting, under-recovery is the
// failure mode that must never be guessed around.
//
// The store also exposes a streaming surface for replication.
// ReadFrom(gen, offset) and Tail return the durable records of the
// live log from a byte cursor — only bytes covered by a completed
// fsync are ever served, so a shipped record is by construction one
// the primary itself would recover. When the log a cursor points at
// has been compacted away by Snapshot, the cursor calls return
// ErrCompacted and the follower re-seeds from ExportSnapshot (the
// current generation's compacted prefix) before resuming from the
// head of the new log. Stage and Commit split Append's two halves —
// ordering a record into the buffer versus waiting for its group
// fsync — so a caller that must keep its own state in step with log
// order (the release service's durable accounting state) can do so
// without serializing fsyncs.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	logMagic  = "EREEWAL1"
	snapMagic = "EREESNP1"

	// maxRecordLen bounds a single record's payload. The cap exists so
	// a corrupt length field cannot make recovery attempt a giant
	// allocation; accounting records are tens of bytes and snapshots
	// are stored outside the record framing.
	maxRecordLen = 16 << 20
)

// ErrClosed is returned by operations on a closed Store.
var ErrClosed = errors.New("wal: store closed")

// ErrCompacted is returned by ReadFrom and Tail when the requested
// generation is no longer the live log — a Snapshot has folded its
// records into the current generation's snapshot. The caller re-seeds
// from ExportSnapshot and resumes streaming from the new log's head.
var ErrCompacted = errors.New("wal: generation compacted")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configure a Store. The hooks exist for fault injection —
// crash-point testing and the chaos harness — and run on the group
// commit leader: BeforeSync with the store lock held, after the
// pending records entered the user-space buffer but before any of
// them reached the OS (a crash here loses them); AfterSync after the
// fsync returned but before any waiting appender has been released (a
// crash here leaves the records durable with no response sent).
// FailSync, when set, runs on the leader after the buffered records
// were flushed to the file but before the fsync; a non-nil return is
// treated as the fsync failing, so every append in the group — and
// the store, whose first failure is sticky — observes the error.
type Options struct {
	BeforeSync func()
	AfterSync  func()
	FailSync   func() error
}

// Recovered is what Open found on disk: the newest snapshot payload
// (nil on first boot), every intact record appended after it, and how
// many torn tail bytes were truncated from the log.
type Recovered struct {
	Snapshot       []byte
	Records        [][]byte
	Gen            uint64
	TruncatedBytes int64
}

// Store is an open write-ahead log. Methods are safe for concurrent
// use.
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	cond     *sync.Cond
	f        *os.File
	buf      *bufio.Writer
	gen      uint64
	appended uint64 // records in this generation's log, including buffered
	durable  uint64 // records in this generation covered by a completed fsync
	stagedB  int64  // log byte length including buffered records
	durableB int64  // log byte length covered by a completed fsync
	syncing  bool
	closed   bool
	err      error // sticky first write/sync failure

	syncs atomic.Int64
}

func logName(gen uint64) string  { return fmt.Sprintf("wal-%016x.log", gen) }
func snapName(gen uint64) string { return fmt.Sprintf("snap-%016x.snap", gen) }

// parseGen extracts the generation from a state file name, reporting
// whether the name matches prefix-%016x.suffix.
func parseGen(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hexpart := name[len(prefix) : len(name)-len(suffix)]
	if len(hexpart) != 16 {
		return 0, false
	}
	g, err := strconv.ParseUint(hexpart, 16, 64)
	if err != nil {
		return 0, false
	}
	return g, true
}

// Open opens (creating if necessary) the store in dir and recovers
// its state. Leftover temp files from an interrupted snapshot are
// removed, the newest valid snapshot is selected, the matching log's
// intact records are returned, and any torn tail is truncated so
// appending can resume. Stale previous-generation files are deleted.
func Open(dir string, opts Options) (*Store, *Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}
	var snapGens, logGens []uint64
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// An interrupted snapshot write; never published, safe to drop.
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return nil, nil, fmt.Errorf("wal: open: %w", err)
			}
		default:
			if g, ok := parseGen(name, "snap-", ".snap"); ok {
				snapGens = append(snapGens, g)
			} else if g, ok := parseGen(name, "wal-", ".log"); ok {
				logGens = append(logGens, g)
			}
		}
	}
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] < snapGens[j] })
	sort.Slice(logGens, func(i, j int) bool { return logGens[i] < logGens[j] })

	rec := &Recovered{}
	if n := len(snapGens); n > 0 {
		rec.Gen = snapGens[n-1]
		snap, err := readSnapshotFile(filepath.Join(dir, snapName(rec.Gen)))
		if err != nil {
			// Snapshots are fsynced before being renamed into place, so
			// damage here is not a torn write; refusing to open beats
			// recovering less spend than was accounted.
			return nil, nil, fmt.Errorf("wal: snapshot generation %d: %w", rec.Gen, err)
		}
		rec.Snapshot = snap
	}
	if n := len(logGens); n > 0 && logGens[n-1] > rec.Gen {
		if rec.Snapshot == nil && logGens[n-1] == 0 {
			// First boot's log, no snapshot yet.
		} else {
			return nil, nil, fmt.Errorf("wal: log generation %d has no valid snapshot", logGens[n-1])
		}
	}

	logPath := filepath.Join(dir, logName(rec.Gen))
	f, err := os.OpenFile(logPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open log: %w", err)
	}
	data, err := readAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: read log: %w", err)
	}
	records, validLen := parseLog(data)
	rec.Records = records
	rec.TruncatedBytes = int64(len(data)) - validLen
	if validLen < int64(len(data)) {
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	created := validLen < int64(len(logMagic))
	if created {
		// New (or unrecoverably short) log: start it with a fresh magic.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: init log: %w", err)
		}
		if _, err := f.WriteAt([]byte(logMagic), 0); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: init log: %w", err)
		}
		validLen = int64(len(logMagic))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: open log: %w", err)
	}
	if _, err := f.Seek(validLen, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: open log: %w", err)
	}

	// Delete stale generations now that the chosen one is readable.
	for _, g := range snapGens {
		if g != rec.Gen {
			os.Remove(filepath.Join(dir, snapName(g)))
		}
	}
	for _, g := range logGens {
		if g != rec.Gen {
			os.Remove(filepath.Join(dir, logName(g)))
		}
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}

	s := &Store{
		dir:      dir,
		opts:     opts,
		f:        f,
		buf:      bufio.NewWriter(f),
		gen:      rec.Gen,
		appended: uint64(len(rec.Records)),
		durable:  uint64(len(rec.Records)),
		stagedB:  validLen,
		durableB: validLen,
	}
	s.cond = sync.NewCond(&s.mu)
	return s, rec, nil
}

func readAll(f *os.File) ([]byte, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, st.Size())
	if _, err := f.ReadAt(data, 0); err != nil && st.Size() > 0 {
		return nil, err
	}
	return data, nil
}

// parseLog walks the framed records in data, returning every intact
// payload and the byte offset of the last intact frame boundary.
// Parsing stops at the first damage — short header, oversized or zero
// length, frame running past EOF, or checksum mismatch — which is the
// torn-tail truncation point.
func parseLog(data []byte) ([][]byte, int64) {
	if len(data) < len(logMagic) || string(data[:len(logMagic)]) != logMagic {
		return nil, 0
	}
	var records [][]byte
	off := len(logMagic)
	for {
		if len(data)-off < 8 {
			break
		}
		length := binary.BigEndian.Uint32(data[off : off+4])
		sum := binary.BigEndian.Uint32(data[off+4 : off+8])
		if length == 0 || length > maxRecordLen || len(data)-off-8 < int(length) {
			break
		}
		payload := data[off+8 : off+8+int(length)]
		if crc32.Checksum(payload, castagnoli) != sum {
			break
		}
		records = append(records, append([]byte(nil), payload...))
		off += 8 + int(length)
	}
	return records, int64(off)
}

func readSnapshotFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(snapMagic)+12 || string(data[:len(snapMagic)]) != snapMagic {
		return nil, errors.New("bad header")
	}
	off := len(snapMagic)
	length := binary.BigEndian.Uint64(data[off : off+8])
	sum := binary.BigEndian.Uint32(data[off+8 : off+12])
	body := data[off+12:]
	if uint64(len(body)) != length {
		return nil, errors.New("length mismatch")
	}
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, errors.New("checksum mismatch")
	}
	return body, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	// Some filesystems reject fsync on directories; treat that as
	// best-effort rather than failing the store.
	if errors.Is(err, fs.ErrInvalid) {
		return nil
	}
	return err
}

// Append writes one record and returns once it is durable (flushed
// and fsynced). Concurrent callers share fsyncs via group commit.
func (s *Store) Append(payload []byte) error {
	seq, err := s.Stage(payload)
	if err != nil {
		return err
	}
	return s.Commit(seq)
}

// AppendBatch stages every payload in order and returns once the last
// — and therefore all — of them is durable. The batch shares a single
// group commit where the fsync allows, which is the follower's bulk
// apply path.
func (s *Store) AppendBatch(payloads [][]byte) error {
	var last uint64
	for _, p := range payloads {
		seq, err := s.Stage(p)
		if err != nil {
			return err
		}
		last = seq
	}
	if last == 0 {
		return nil
	}
	return s.Commit(last)
}

// Stage orders one record into the log buffer and returns its
// sequence within the current generation. The record is NOT durable
// until Commit(seq) returns; a caller that stages must commit (or
// observe the store's sticky error). The two-step form exists so a
// caller can update state that must mirror log order under its own
// lock between Stage and Commit without holding that lock across the
// fsync.
func (s *Store) Stage(payload []byte) (uint64, error) {
	if len(payload) == 0 || len(payload) > maxRecordLen {
		return 0, fmt.Errorf("wal: append: payload length %d out of range", len(payload))
	}
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if s.err != nil {
		return 0, s.err
	}
	s.buf.Write(hdr[:])
	s.buf.Write(payload) // bufio errors are sticky; surfaced at Flush
	s.appended++
	s.stagedB += 8 + int64(len(payload))
	return s.appended, nil
}

// Commit blocks until the record Stage returned seq for is covered by
// a completed fsync. Concurrent committers share fsyncs: the first to
// arrive becomes the group leader, flushes everything staged so far,
// fsyncs once outside the lock, and wakes every waiter that sync
// covered. A sync failure fails every waiter in the batch — the store
// never acknowledges half a group.
func (s *Store) Commit(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.durable < seq && s.err == nil {
		if s.syncing {
			s.cond.Wait()
			continue
		}
		// Become the group commit leader for everything buffered so far.
		s.syncing = true
		target := s.appended
		targetB := s.stagedB
		if hook := s.opts.BeforeSync; hook != nil {
			hook()
		}
		err := s.buf.Flush()
		f := s.f
		s.mu.Unlock()
		if err == nil {
			if hook := s.opts.FailSync; hook != nil {
				err = hook()
			}
		}
		if err == nil {
			err = f.Sync()
			s.syncs.Add(1)
		}
		if hook := s.opts.AfterSync; hook != nil {
			hook()
		}
		s.mu.Lock()
		s.syncing = false
		if err != nil {
			if s.err == nil {
				s.err = fmt.Errorf("wal: append: %w", err)
			}
		} else if target > s.durable {
			s.durable = target
			s.durableB = targetB
		}
		s.cond.Broadcast()
	}
	return s.err
}

// Snapshot atomically replaces the store's history with state: the
// snapshot is written and fsynced under a temp name, renamed into the
// next generation, and only then is a fresh empty log created and the
// previous generation deleted. On return the old log's records are
// compacted away; a crash at any interior step leaves a directory
// Open resolves to either the old or the new generation, never a mix.
func (s *Store) Snapshot(state []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.syncing {
		s.cond.Wait()
	}
	if s.closed {
		return ErrClosed
	}
	if s.err != nil {
		return s.err
	}
	if s.appended != s.durable {
		// A staged record whose Commit has not completed would be
		// flushed into the old log and then compacted away without ever
		// being acknowledged or captured by state. Snapshot is a
		// quiescent-point operation (boot, drain, promote); calling it
		// mid-append is a caller bug worth failing loudly on.
		return fmt.Errorf("wal: snapshot: %d staged records not yet committed", s.appended-s.durable)
	}
	if err := s.buf.Flush(); err != nil {
		s.err = fmt.Errorf("wal: snapshot: %w", err)
		return s.err
	}

	newGen := s.gen + 1
	if err := writeSnapshotFile(s.dir, newGen, state); err != nil {
		s.err = err
		return s.err
	}
	newLogPath := filepath.Join(s.dir, logName(newGen))
	nf, err := os.OpenFile(newLogPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		_, err = nf.Write([]byte(logMagic))
		if err == nil {
			err = nf.Sync()
		}
	}
	if err != nil {
		if nf != nil {
			nf.Close()
		}
		s.err = fmt.Errorf("wal: snapshot: %w", err)
		return s.err
	}
	if err := syncDir(s.dir); err != nil {
		nf.Close()
		s.err = fmt.Errorf("wal: snapshot: %w", err)
		return s.err
	}

	oldGen := s.gen
	s.f.Close()
	s.f = nf
	s.buf = bufio.NewWriter(nf)
	s.gen = newGen
	s.appended = 0
	s.durable = 0
	s.stagedB = int64(len(logMagic))
	s.durableB = int64(len(logMagic))
	os.Remove(filepath.Join(s.dir, logName(oldGen)))
	os.Remove(filepath.Join(s.dir, snapName(oldGen)))
	// Wake any Tail blocked on the old generation so it can observe
	// ErrCompacted and re-seed.
	s.cond.Broadcast()
	if err := syncDir(s.dir); err != nil {
		s.err = fmt.Errorf("wal: snapshot: %w", err)
		return s.err
	}
	return nil
}

// writeSnapshotFile publishes state as generation gen's snapshot via
// the temp-write / fsync / rename / dir-fsync dance.
func writeSnapshotFile(dir string, gen uint64, state []byte) error {
	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	tmpName := tmp.Name()
	var hdr [12]byte
	binary.BigEndian.PutUint64(hdr[0:8], uint64(len(state)))
	binary.BigEndian.PutUint32(hdr[8:12], crc32.Checksum(state, castagnoli))
	_, err = tmp.Write([]byte(snapMagic))
	if err == nil {
		_, err = tmp.Write(hdr[:])
	}
	if err == nil {
		_, err = tmp.Write(state)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpName, filepath.Join(dir, snapName(gen)))
	}
	if err == nil {
		err = syncDir(dir)
	}
	if err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	return nil
}

// Close flushes and fsyncs any buffered records, then closes the log.
// Further operations return ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.syncing {
		s.cond.Wait()
	}
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.err == nil {
		err = s.buf.Flush()
		if err == nil {
			err = s.f.Sync()
		}
		if err == nil {
			s.durable = s.appended
		}
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.cond.Broadcast()
	if err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}

// Syncs reports how many fsyncs the store has issued for appends —
// under concurrent load this is well below the append count, which is
// the group commit working.
func (s *Store) Syncs() int64 { return s.syncs.Load() }

// Appends reports how many records have been accepted.
func (s *Store) Appends() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appended
}

// Durable reports the live log's durable frontier: the current
// generation, the byte offset covered by a completed fsync, and the
// number of records in the generation up to that offset (recovered
// records included). A streaming cursor at offset `bytes` has seen
// exactly `records` records.
func (s *Store) Durable() (gen uint64, bytes int64, records uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen, s.durableB, s.durable
}

// StreamStart is the byte offset of the first record in any log — the
// cursor a follower starts from after seeding on ExportSnapshot.
func StreamStart() int64 { return int64(len(logMagic)) }

// ReadFrom returns the durable records of generation gen starting at
// byte offset `offset`, and the offset to resume from. Only bytes
// covered by a completed fsync are served. If maxBytes > 0 the batch
// stops at the last whole frame within that many bytes (the resume
// offset then points mid-log and the caller loops). ErrCompacted
// reports that gen is no longer the live log; any other parse failure
// means the cursor does not sit on a frame boundary or the durable
// prefix is damaged, both of which are loud errors rather than data.
func (s *Store) ReadFrom(gen uint64, offset int64, maxBytes int) ([][]byte, int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readFromLocked(gen, offset, maxBytes)
}

func (s *Store) readFromLocked(gen uint64, offset int64, maxBytes int) ([][]byte, int64, error) {
	if s.closed {
		return nil, 0, ErrClosed
	}
	if s.err != nil {
		return nil, 0, s.err
	}
	if gen != s.gen {
		return nil, 0, ErrCompacted
	}
	if offset < int64(len(logMagic)) || offset > s.durableB {
		return nil, 0, fmt.Errorf("wal: read from: offset %d outside durable log [%d, %d]", offset, len(logMagic), s.durableB)
	}
	end := s.durableB
	if maxBytes > 0 && offset+int64(maxBytes) < end {
		end = offset + int64(maxBytes)
	}
	var records [][]byte
	next := offset
	for next < end {
		if s.durableB-next < 8 {
			return nil, 0, fmt.Errorf("wal: read from: truncated frame header at offset %d", next)
		}
		var hdr [8]byte
		if _, err := s.f.ReadAt(hdr[:], next); err != nil {
			return nil, 0, fmt.Errorf("wal: read from: %w", err)
		}
		length := binary.BigEndian.Uint32(hdr[0:4])
		sum := binary.BigEndian.Uint32(hdr[4:8])
		if length == 0 || length > maxRecordLen || s.durableB-next-8 < int64(length) {
			return nil, 0, fmt.Errorf("wal: read from: bad frame at offset %d", next)
		}
		if maxBytes > 0 && next+8+int64(length) > end && next > offset {
			break // frame would exceed the batch cap; resume here
		}
		payload := make([]byte, length)
		if _, err := s.f.ReadAt(payload, next+8); err != nil {
			return nil, 0, fmt.Errorf("wal: read from: %w", err)
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			return nil, 0, fmt.Errorf("wal: read from: checksum mismatch at offset %d", next)
		}
		records = append(records, payload)
		next += 8 + int64(length)
	}
	return records, next, nil
}

// Tail is ReadFrom that waits: if the cursor is at the durable
// frontier it blocks until new records become durable, the generation
// rotates (ErrCompacted), the store closes, or maxWait elapses —
// returning an empty batch in the last case. This is the long-poll
// primitive behind the replication stream endpoint.
func (s *Store) Tail(gen uint64, offset int64, maxWait time.Duration, maxBytes int) ([][]byte, int64, error) {
	deadline := time.Now().Add(maxWait)
	for {
		s.mu.Lock()
		records, next, err := s.readFromLocked(gen, offset, maxBytes)
		s.mu.Unlock()
		if err != nil || len(records) > 0 {
			return records, next, err
		}
		if !time.Now().Before(deadline) {
			return nil, offset, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ExportSnapshot returns the current generation and its snapshot
// payload — the compacted prefix of history a follower seeds from
// before streaming the live log from StreamStart(). The payload is
// nil when the generation has no snapshot (a first-boot store that
// has never compacted).
func (s *Store) ExportSnapshot() (uint64, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, nil, ErrClosed
	}
	if s.err != nil {
		return 0, nil, s.err
	}
	if s.gen == 0 {
		if _, err := os.Stat(filepath.Join(s.dir, snapName(0))); err != nil {
			return 0, nil, nil
		}
	}
	snap, err := readSnapshotFile(filepath.Join(s.dir, snapName(s.gen)))
	if err != nil {
		return 0, nil, fmt.Errorf("wal: export snapshot generation %d: %w", s.gen, err)
	}
	return s.gen, snap, nil
}
