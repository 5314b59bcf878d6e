package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/lodes"
	"repro/internal/privacy"
	"repro/internal/wal"
)

// BenchmarkServeMarginal measures the full single-goroutine handler
// path for a warm-cache workload-1 release: decode, auth, budget
// admission, cached truth lookup, per-cell noise, JSON render. No
// socket — the network is not the subsystem under test. CI gates its
// allocs/op (BENCH.json).
func BenchmarkServeMarginal(b *testing.B) {
	cfg := lodes.TestConfig()
	cfg.NumEstablishments = 500
	data := lodes.MustGenerate(cfg, dist.NewStreamFromSeed(1))
	acct, err := privacy.NewAccountant(privacy.WeakEREE, 0.1, 1e18, 0.999999)
	if err != nil {
		b.Fatal(err)
	}
	reg := privacy.NewRegistry()
	if _, err := reg.Register("bench", "bench-key", acct); err != nil {
		b.Fatal(err)
	}
	h := New(core.NewPublisher(data), reg, Options{NoiseSeed: 7}).Handler()

	// Warm the truth cache so steady-state serving is what's measured.
	warm := httptest.NewRequest("POST", "/v1/release", strings.NewReader(
		`{"attrs":["place","industry","ownership"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5,"seq":0}`))
	warm.Header.Set(apiKeyHeader, "bench-key")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, warm)
	if rec.Code != http.StatusOK {
		b.Fatalf("warmup = %d: %s", rec.Code, rec.Body.Bytes())
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(
			`{"attrs":["place","industry","ownership"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5,"seq":%d}`,
			i%maxSeq)
		req := httptest.NewRequest("POST", "/v1/release", strings.NewReader(body))
		req.Header.Set(apiKeyHeader, "bench-key")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("release = %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
}

// BenchmarkServeMarginalDurable is BenchmarkServeMarginal with the
// write-ahead accounting store on: every release fsyncs its spend
// record before responding. The gap between the two benchmarks is the
// durability tax — group commit amortizes it under concurrency, but
// this single-goroutine run pays one fsync per release, the honest
// worst case. CI gates its allocs/op (BENCH.json).
func BenchmarkServeMarginalDurable(b *testing.B) {
	cfg := lodes.TestConfig()
	cfg.NumEstablishments = 500
	data := lodes.MustGenerate(cfg, dist.NewStreamFromSeed(1))
	acct, err := privacy.NewAccountant(privacy.WeakEREE, 0.1, 1e18, 0.999999)
	if err != nil {
		b.Fatal(err)
	}
	reg := privacy.NewRegistry()
	if _, err := reg.Register("bench", "bench-key", acct); err != nil {
		b.Fatal(err)
	}
	srv, err := Open(core.NewPublisher(data), reg, Options{NoiseSeed: 7, StateDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.closePersistent()
	h := srv.Handler()

	warm := httptest.NewRequest("POST", "/v1/release", strings.NewReader(
		`{"attrs":["place","industry","ownership"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5,"seq":0}`))
	warm.Header.Set(apiKeyHeader, "bench-key")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, warm)
	if rec.Code != http.StatusOK {
		b.Fatalf("warmup = %d: %s", rec.Code, rec.Body.Bytes())
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(
			`{"attrs":["place","industry","ownership"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5,"seq":%d}`,
			1+i%(maxSeq-1))
		req := httptest.NewRequest("POST", "/v1/release", strings.NewReader(body))
		req.Header.Set(apiKeyHeader, "bench-key")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("release = %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
}

// BenchmarkFollowerApply measures the follower's catch-up path per
// shipped record: stream-sized batches through Persistence.mirror, the
// production path — appended to the local WAL (durable before
// observed), then applied to the node's state through applyRecord, the
// identical code recovery runs, digest verification included. The
// record stream is real: spend records a durable primary journaled
// serving the workload-1 marginal. The replication block of BENCH.json's
// serve trajectory entry records the result.
func BenchmarkFollowerApply(b *testing.B) {
	cfg := lodes.TestConfig()
	cfg.NumEstablishments = 500
	data := lodes.MustGenerate(cfg, dist.NewStreamFromSeed(1))
	acct, err := privacy.NewAccountant(privacy.WeakEREE, 0.1, 1e18, 0.999999)
	if err != nil {
		b.Fatal(err)
	}
	reg := privacy.NewRegistry()
	if _, err := reg.Register("bench", "bench-key", acct); err != nil {
		b.Fatal(err)
	}
	srv, err := Open(core.NewPublisher(data), reg, Options{NoiseSeed: 7, StateDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.closePersistent()
	gen, snap, err := srv.persist.store.ExportSnapshot()
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	for i := 0; i < 512; i++ {
		body := fmt.Sprintf(
			`{"attrs":["place","industry","ownership"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5,"seq":%d}`,
			1+i%(maxSeq-1))
		req := httptest.NewRequest("POST", "/v1/release", strings.NewReader(body))
		req.Header.Set(apiKeyHeader, "bench-key")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("release = %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	recs, _, err := srv.persist.store.ReadFrom(gen, wal.StreamStart(), 64<<20)
	if err != nil {
		b.Fatal(err)
	}
	if len(recs) < 512 {
		b.Fatalf("primary journaled %d records, want >= 512", len(recs))
	}

	// The mirror: a Persistence over its own state dir (one fsync per
	// stream batch), its state reset per pass to the decoded snapshot the
	// stream starts from, so every digest record verifies at the position
	// it was emitted.
	mirror, err := openState(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer mirror.store.Close()
	const batch = 64

	b.ReportAllocs()
	b.ResetTimer()
	for applied := 0; applied < b.N; {
		st, err := decodeSnapshot(snap)
		if err != nil {
			b.Fatal(err)
		}
		mirror.state = st
		for off := 0; off < len(recs) && applied < b.N; off += batch {
			end := min(off+batch, len(recs))
			if err := mirror.mirror(recs[off:end]); err != nil {
				b.Fatal(err)
			}
			applied += end - off
		}
	}
}

// benchJournalRecord measures the journal's state work per record, with
// no store and no fsync: apply one tagged spend to the state, which
// moves its divergence digest, plus the digest record's share at the
// cadence. Tenants take turns, and every tenant's replay ring starts
// full, so each spend evicts. The per-record cost must not grow with
// the tenant count or the ring fill: CI gates 256 tenants over 1 as a
// time ratio (BENCH.json).
func benchJournalRecord(b *testing.B, tenants int) {
	st := newPersistentState()
	digest := strings.Repeat("0123456789abcdef", 4)
	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("tenant-%03d", i)
		if err := st.applyRecord(registerRecord(privacy.RegisterRecord{
			Tenant: names[i], Def: privacy.WeakEREE, Alpha: 0.1, BudgetEps: 1e18, BudgetDelta: 0.5,
		})); err != nil {
			b.Fatal(err)
		}
		ring := make([]replayKey, replayWindow)
		for k := range ring {
			ring[k] = replayKey{Seq: int64(k), Digest: digest}
		}
		st.Tenants[names[i]].Recent = ring
	}
	st.sum = sumOf(st)
	recs := make([][]byte, 64*tenants)
	for i := range recs {
		recs[i] = spendRecord(privacy.SpendRecord{Tenant: names[i%tenants], Eps: 0.5, Releases: 1,
			Tag: &privacy.SpendTag{Seq: int64(replayWindow + i), Digest: digest}})
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.applyRecord(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
		if (i+1)%digestEveryDefault == 0 {
			sink = st.sumRecord()
		}
	}
}

var sink []byte

func BenchmarkJournalRecordTenants1(b *testing.B)   { benchJournalRecord(b, 1) }
func BenchmarkJournalRecordTenants16(b *testing.B)  { benchJournalRecord(b, 16) }
func BenchmarkJournalRecordTenants256(b *testing.B) { benchJournalRecord(b, 256) }
