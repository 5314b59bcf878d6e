package server

// Tests for the durability layer below the chaos harness (which kills
// real processes; see cmd/ereeserve/chaos_test.go): recovery is
// bit-identical, duplicate requests after recovery are served without a
// second charge, a dead accounting store degrades to 503 rather than
// serving uncharged bytes, compaction bounds the state directory, and
// a crash and a drain over the same history write the same snapshot.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/privacy"
)

func testRegistry(tb testing.TB, tenants []tenantSpec) *privacy.Registry {
	tb.Helper()
	if len(tenants) == 0 {
		tenants = []tenantSpec{{name: "alpha", key: keyAlpha, eps: 1e6, delta: 0.5}}
	}
	reg := privacy.NewRegistry()
	for _, spec := range tenants {
		acct, err := privacy.NewAccountant(privacy.WeakEREE, 0.1, spec.eps, spec.delta)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := reg.Register(spec.name, spec.key, acct); err != nil {
			tb.Fatal(err)
		}
	}
	return reg
}

// openDurable boots a durable server over dir. Abandoning the returned
// server without closing it models a crash: every charge is already on
// disk, only buffered OS state (which a kill loses anyway) is in play.
func openDurable(tb testing.TB, dir string, dataSeed int64, opts Options, tenants []tenantSpec) (*Server, *httptest.Server) {
	tb.Helper()
	opts.StateDir = dir
	srv, err := Open(core.NewPublisher(testDataset(tb, dataSeed)), testRegistry(tb, tenants), opts)
	if err != nil {
		tb.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	tb.Cleanup(hs.Close)
	return srv, hs
}

func tenantOf(tb testing.TB, srv *Server, name string) *privacy.Tenant {
	tb.Helper()
	t, ok := srv.reg.Tenant(name)
	if !ok {
		tb.Fatalf("tenant %q not registered", name)
	}
	return t
}

// TestRecoveryBitIdentical drives a durable server through releases, a
// batch, a cell and an epoch advance, abandons it mid-life (no
// shutdown, no compaction — the log is the only truth), re-opens the
// state directory, and demands the recovered accounting be
// bit-identical: spent floats, per-epoch ledger, release counts, epoch.
func TestRecoveryBitIdentical(t *testing.T) {
	dir := t.TempDir()
	opts := Options{NoiseSeed: 7, AdminKey: keyAdmin, DeltaSeed: 100}
	srv1, hs1 := openDurable(t, dir, 1, opts, nil)

	script := []scriptReq{
		{"/v1/release", `{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5,"seq":0}`},
		{"/v1/batch", `{"seq":1,"requests":[{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5},{"attrs":["ownership"],"mechanism":"smooth-laplace","alpha":0.1,"eps":4,"delta":1e-9}]}`},
		{"/v1/cell", `{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5,"values":["44-Retail"],"seq":2}`},
	}
	for _, rq := range script {
		if status, body := do(t, hs1, "POST", rq.path, keyAlpha, rq.body); status != http.StatusOK {
			t.Fatalf("POST %s = %d: %s", rq.path, status, body)
		}
	}
	if status, body := do(t, hs1, "POST", "/v1/admin/advance", keyAdmin, `{"quarters":1}`); status != http.StatusOK {
		t.Fatalf("advance = %d: %s", status, body)
	}
	// Spend in the new epoch too, so the recovered ledger tail is
	// non-trivial.
	if status, body := do(t, hs1, "POST", "/v1/release", keyAlpha, `{"attrs":["ownership"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.75,"seq":3}`); status != http.StatusOK {
		t.Fatalf("post-advance release = %d: %s", status, body)
	}
	acct1 := tenantOf(t, srv1, "alpha").Acct
	wantSpent := acct1.Spent()
	wantLedger := acct1.SpendByEpoch()
	wantReleases := acct1.Releases()
	wantEpoch := srv1.pub.Epoch()
	hs1.Close() // stop traffic; deliberately no Shutdown/Compact

	srv2, _ := openDurable(t, dir, 1, opts, nil)
	acct2 := tenantOf(t, srv2, "alpha").Acct
	if got := acct2.Spent(); got != wantSpent {
		t.Fatalf("recovered Spent = %+v, want bit-identical %+v", got, wantSpent)
	}
	if got := acct2.Releases(); got != wantReleases {
		t.Fatalf("recovered Releases = %d, want %d", got, wantReleases)
	}
	if got := srv2.pub.Epoch(); got != wantEpoch {
		t.Fatalf("recovered publisher epoch = %d, want %d", got, wantEpoch)
	}
	gotLedger := acct2.SpendByEpoch()
	if len(gotLedger) != len(wantLedger) {
		t.Fatalf("recovered ledger has %d epochs, want %d", len(gotLedger), len(wantLedger))
	}
	for i := range wantLedger {
		if gotLedger[i] != wantLedger[i] {
			t.Fatalf("ledger epoch %d: recovered %+v, want %+v", i, gotLedger[i], wantLedger[i])
		}
	}
	if got := acct2.Epoch(); got != wantEpoch {
		t.Fatalf("recovered accountant epoch = %d, want %d", got, wantEpoch)
	}
}

// TestRecoveryReplaysDuplicateWithoutCharging: a charged request
// re-sent after recovery (same tenant, seq, body) is answered with the
// exact bytes of the original response and spends nothing — the
// write-ahead record plus wire determinism make the response
// recomputable for free.
func TestRecoveryReplaysDuplicateWithoutCharging(t *testing.T) {
	dir := t.TempDir()
	opts := Options{NoiseSeed: 7}
	_, hs1 := openDurable(t, dir, 1, opts, nil)
	body := `{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5,"seq":9}`
	status, orig := do(t, hs1, "POST", "/v1/release", keyAlpha, body)
	if status != http.StatusOK {
		t.Fatalf("release = %d: %s", status, orig)
	}
	hs1.Close()

	srv2, hs2 := openDurable(t, dir, 1, opts, nil)
	acct := tenantOf(t, srv2, "alpha").Acct
	spentAfterRecovery := acct.Spent()
	if spentAfterRecovery.Eps == 0 {
		t.Fatal("recovery lost the charge")
	}
	status, replay := do(t, hs2, "POST", "/v1/release", keyAlpha, body)
	if status != http.StatusOK {
		t.Fatalf("replayed release = %d: %s", status, replay)
	}
	if string(replay) != string(orig) {
		t.Fatalf("replayed response differs from original:\n  orig:   %s\n  replay: %s", orig, replay)
	}
	if got := acct.Spent(); got != spentAfterRecovery {
		t.Fatalf("replay charged the tenant again: %+v -> %+v", spentAfterRecovery, got)
	}
	// A genuinely new request still charges.
	if status, _ := do(t, hs2, "POST", "/v1/release", keyAlpha,
		`{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5,"seq":10}`); status != http.StatusOK {
		t.Fatalf("fresh release = %d", status)
	}
	if got := acct.Spent(); got == spentAfterRecovery {
		t.Fatal("fresh request did not charge")
	}
}

// TestLiveDuplicateSeqServedOnce: the dedup path also covers a live
// client retrying a request whose response it lost (no crash needed).
func TestLiveDuplicateSeqServedOnce(t *testing.T) {
	srv, hs := openDurable(t, t.TempDir(), 1, Options{NoiseSeed: 7}, nil)
	acct := tenantOf(t, srv, "alpha").Acct
	body := `{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5,"seq":4}`
	_, first := do(t, hs, "POST", "/v1/release", keyAlpha, body)
	spent := acct.Spent()
	_, second := do(t, hs, "POST", "/v1/release", keyAlpha, body)
	if string(first) != string(second) {
		t.Fatalf("retry differs:\n  %s\n  %s", first, second)
	}
	if acct.Spent() != spent {
		t.Fatal("retry double-charged")
	}
}

// TestReplayAcrossAdvanceCharged: a resend of a charged identity that
// looks the identity up at epoch 0 while an advance to epoch 1 lands is
// charged, on every release endpoint. The charge was journaled at epoch
// 0, so serving the epoch-1 recompute free would be a release nobody
// paid for. The test holds the replay cache's lock until the resend is
// parked inside the lookup, then advances through the admin handler.
func TestReplayAcrossAdvanceCharged(t *testing.T) {
	for _, r := range []struct{ path, body string }{
		{"/v1/release", `{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5,"seq":3}`},
		{"/v1/batch", `{"requests":[{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5}],"seq":3}`},
		{"/v1/cell", `{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5,"values":["44-Retail"],"seq":3}`},
	} {
		t.Run(strings.TrimPrefix(r.path, "/v1/"), func(t *testing.T) {
			srv, hs := openDurable(t, t.TempDir(), 1, Options{NoiseSeed: 7, AdminKey: keyAdmin}, nil)
			acct := tenantOf(t, srv, "alpha").Acct
			if status, raw := do(t, hs, "POST", r.path, keyAlpha, r.body); status != http.StatusOK {
				t.Fatalf("first send = %d: %s", status, raw)
			}
			if acct.Spent().Eps != 0.5 || acct.Releases() != 1 {
				t.Fatalf("first send spent %g over %d releases, want 0.5 over 1", acct.Spent().Eps, acct.Releases())
			}

			srv.replay.mu.Lock()
			type result struct {
				status int
				raw    []byte
			}
			resent := make(chan result, 1)
			go func() {
				status, raw := do(t, hs, "POST", r.path, keyAlpha, r.body)
				resent <- result{status, raw}
			}()
			waitFor(t, "the resend to block in the replay lookup", func() bool {
				buf := make([]byte, 1<<20)
				return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("(*replayCache).has"))
			})
			status, raw := do(t, hs, "POST", "/v1/admin/advance", keyAdmin, `{"quarters":1}`)
			srv.replay.mu.Unlock()
			if status != http.StatusOK {
				t.Fatalf("advance = %d: %s", status, raw)
			}

			res := <-resent
			if res.status != http.StatusOK || !bytes.Contains(res.raw, []byte(`"epoch":1`)) {
				t.Fatalf("resend = %d, want 200 at epoch 1: %s", res.status, res.raw)
			}
			if acct.Spent().Eps != 1 || acct.Releases() != 2 {
				t.Fatalf("resend across the advance spent %g over %d releases, want 1 over 2",
					acct.Spent().Eps, acct.Releases())
			}
		})
	}
}

// TestDeadStoreShedsInsteadOfServing: once the accounting store cannot
// write, releases must fail closed — 503 with Retry-After, nothing
// spent, no noisy bytes — because a response without a durable charge
// record would be an unaccounted release after the next crash.
func TestDeadStoreShedsInsteadOfServing(t *testing.T) {
	srv, hs := openDurable(t, t.TempDir(), 1, Options{NoiseSeed: 7}, nil)
	acct := tenantOf(t, srv, "alpha").Acct
	if err := srv.persist.store.Close(); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", hs.URL+"/v1/release",
		strings.NewReader(`{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(apiKeyHeader, keyAlpha)
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("release on dead store = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if got := acct.Spent(); got.Eps != 0 {
		t.Fatalf("dead store still spent %+v", got)
	}
}

// TestCompactionBoundsStateDir: every boot folds the log into a fresh
// snapshot, so the directory never accumulates old generations — at
// any quiet moment it is exactly one snapshot plus one log.
func TestCompactionBoundsStateDir(t *testing.T) {
	dir := t.TempDir()
	for boot := 0; boot < 3; boot++ {
		srv, hs := openDurable(t, dir, 1, Options{NoiseSeed: 7}, nil)
		for i := 0; i < 4; i++ {
			body := `{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5}`
			if status, _ := do(t, hs, "POST", "/v1/release", keyAlpha, body); status != http.StatusOK {
				t.Fatalf("boot %d release %d failed", boot, i)
			}
		}
		hs.Close()
		if err := srv.closePersistent(); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 2 {
			names := make([]string, len(entries))
			for i, e := range entries {
				names[i] = e.Name()
			}
			t.Fatalf("boot %d: state dir holds %v, want exactly one snapshot + one log", boot, names)
		}
	}
}

// TestRecoveryRefusesChangedDefinition: spend history recorded under
// one privacy definition must not be reinterpreted under another — a
// changed tenant definition or α is a boot error, not a silent reset.
func TestRecoveryRefusesChangedDefinition(t *testing.T) {
	dir := t.TempDir()
	_, hs := openDurable(t, dir, 1, Options{NoiseSeed: 7}, nil)
	if status, _ := do(t, hs, "POST", "/v1/release", keyAlpha,
		`{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5}`); status != http.StatusOK {
		t.Fatal("seed release failed")
	}
	hs.Close()

	reg := privacy.NewRegistry()
	acct, err := privacy.NewAccountant(privacy.StrongEREE, 2, 1e6, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("alpha", keyAlpha, acct); err != nil {
		t.Fatal(err)
	}
	_, err = Open(core.NewPublisher(testDataset(t, 1)), reg, Options{NoiseSeed: 7, StateDir: dir})
	if err == nil {
		t.Fatal("Open accepted a tenant whose privacy definition changed under recorded history")
	}
}

// TestRecoveryHonorsShrunkBudget: an operator may cut a budget below
// the recorded spend; recovery keeps the history and the tenant is
// simply exhausted, never reset.
func TestRecoveryHonorsShrunkBudget(t *testing.T) {
	dir := t.TempDir()
	big := []tenantSpec{{name: "alpha", key: keyAlpha, eps: 10, delta: 0.5}}
	_, hs := openDurable(t, dir, 1, Options{NoiseSeed: 7}, big)
	if status, _ := do(t, hs, "POST", "/v1/release", keyAlpha,
		`{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":5}`); status != http.StatusOK {
		t.Fatal("seed release failed")
	}
	hs.Close()

	small := []tenantSpec{{name: "alpha", key: keyAlpha, eps: 1, delta: 0.5}}
	srv2, hs2 := openDurable(t, dir, 1, Options{NoiseSeed: 7}, small)
	if got := tenantOf(t, srv2, "alpha").Acct.Spent().Eps; got != 5 {
		t.Fatalf("recovered spend = %g, want 5", got)
	}
	status, body := do(t, hs2, "POST", "/v1/release", keyAlpha,
		`{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("charge over shrunk budget = %d (%s), want 429", status, body)
	}
}

// TestStatsSurviveRecovery: the wire-visible budget position is
// unchanged by a crash/recover cycle.
func TestStatsSurviveRecovery(t *testing.T) {
	dir := t.TempDir()
	_, hs1 := openDurable(t, dir, 1, Options{NoiseSeed: 7}, nil)
	for i := 0; i < 3; i++ {
		body := `{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5}`
		if status, _ := do(t, hs1, "POST", "/v1/release", keyAlpha, body); status != http.StatusOK {
			t.Fatal("release failed")
		}
	}
	_, stats1 := do(t, hs1, "GET", "/v1/stats", keyAlpha, "")
	hs1.Close()

	_, hs2 := openDurable(t, dir, 1, Options{NoiseSeed: 7}, nil)
	_, stats2 := do(t, hs2, "GET", "/v1/stats", keyAlpha, "")
	var s1, s2 statsJSON
	if err := json.Unmarshal(stats1, &s1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(stats2, &s2); err != nil {
		t.Fatal(err)
	}
	// Cache counters legitimately reset (they are not privacy state);
	// everything budget-shaped must match exactly.
	s1.Cache, s2.Cache = nil, nil
	if s1.SpentEps != s2.SpentEps || s1.SpentDelta != s2.SpentDelta ||
		s1.RemainingEps != s2.RemainingEps || s1.RemainingDelta != s2.RemainingDelta ||
		s1.Releases != s2.Releases || len(s1.SpendByEpoch) != len(s2.SpendByEpoch) {
		t.Fatalf("stats diverge across recovery:\n  before: %+v\n  after:  %+v", s1, s2)
	}
}

// replStatus reads the node's /v1/replication/status.
func replStatus(t *testing.T, hs *httptest.Server) replStatusJSON {
	t.Helper()
	status, body := do(t, hs, "GET", "/v1/replication/status", keyAdmin, "")
	if status != http.StatusOK {
		t.Fatalf("replication status = %d: %s", status, body)
	}
	var st replStatusJSON
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.StateDigest == "" {
		t.Fatal("replication status carries no state digest")
	}
	return st
}

// ledgerEpochs lists a /v1/stats ledger's epochs, oldest first.
func ledgerEpochs(t *testing.T, hs *httptest.Server, key string) []int {
	t.Helper()
	status, body := do(t, hs, "GET", "/v1/stats", key, "")
	if status != http.StatusOK {
		t.Fatalf("stats = %d: %s", status, body)
	}
	var st statsJSON
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	epochs := make([]int, len(st.SpendByEpoch))
	for i, e := range st.SpendByEpoch {
		epochs[i] = e.Epoch
	}
	return epochs
}

// TestOneHistoryOneSnapshot: a snapshot is what replaying the log
// gives, however the node stopped. The same script — client-named
// seqs, one server-assigned seq, an admin advance — runs into two state
// dirs. One node is abandoned (a crash: the log is the only truth), the
// other drained (its state is compacted into a snapshot). Reopened, the
// two nodes write byte-identical snapshots, each reports the state
// digest it reported before it stopped, and both assign the next seq
// from the log: one past the highest charged seq.
func TestOneHistoryOneSnapshot(t *testing.T) {
	opts := Options{NoiseSeed: 7, AdminKey: keyAdmin, DeltaSeed: 100}
	script := []scriptReq{
		{"/v1/release", `{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5,"seq":0}`},
		{"/v1/release", `{"attrs":["ownership"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5,"seq":1}`},
		{"/v1/release", `{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.75}`},
	}
	const next = `{"attrs":["ownership"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.75}`
	var snaps [2][]byte
	for i, drain := range []bool{false, true} {
		dir := t.TempDir()
		srv, hs := openDurable(t, dir, 1, opts, nil)
		for _, rq := range script {
			if status, body := do(t, hs, "POST", rq.path, keyAlpha, rq.body); status != http.StatusOK {
				t.Fatalf("POST %s = %d: %s", rq.path, status, body)
			}
		}
		if status, body := do(t, hs, "POST", "/v1/admin/advance", keyAdmin, `{"quarters":1}`); status != http.StatusOK {
			t.Fatalf("advance = %d: %s", status, body)
		}
		before := replStatus(t, hs).StateDigest
		hs.Close()
		if drain {
			if err := srv.closePersistent(); err != nil {
				t.Fatal(err)
			}
		}

		srv2, hs2 := openDurable(t, dir, 1, opts, nil)
		if after := replStatus(t, hs2).StateDigest; after != before {
			t.Fatalf("drain=%v: state digest %s after reopen, %s before", drain, after, before)
		}
		_, snap, err := srv2.persist.store.ExportSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		snaps[i] = snap
		status, body := do(t, hs2, "POST", "/v1/release", keyAlpha, next)
		if status != http.StatusOK {
			t.Fatalf("drain=%v: post-reopen release = %d: %s", drain, status, body)
		}
		var rel releaseJSON
		if err := json.Unmarshal(body, &rel); err != nil {
			t.Fatal(err)
		}
		if rel.Seq != 3 {
			t.Fatalf("drain=%v: post-reopen server-assigned seq = %d, want 3 (one past the highest charged seq)", drain, rel.Seq)
		}
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatalf("crash and drain over one history wrote different snapshots:\n  crash: %x\n  drain: %x", snaps[0], snaps[1])
	}
}

// TestTenantConfiguredAtLaterEpoch: a tenant added to the configuration
// after the dataset advanced joins at the publisher's epoch through
// the journal — boot's ledger reconcile is journaled like any other
// advance — so its ledger lists every epoch from 0, and a further
// crash and reopen change neither that ledger nor the state digest.
func TestTenantConfiguredAtLaterEpoch(t *testing.T) {
	dir := t.TempDir()
	opts := Options{NoiseSeed: 7, AdminKey: keyAdmin, DeltaSeed: 100}
	_, hs := openDurable(t, dir, 1, opts, nil)
	if status, body := do(t, hs, "POST", "/v1/release", keyAlpha,
		`{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5,"seq":0}`); status != http.StatusOK {
		t.Fatalf("release = %d: %s", status, body)
	}
	if status, body := do(t, hs, "POST", "/v1/admin/advance", keyAdmin, `{"quarters":2}`); status != http.StatusOK {
		t.Fatalf("advance = %d: %s", status, body)
	}
	hs.Close() // crash at epoch 2

	both := []tenantSpec{
		{name: "alpha", key: keyAlpha, eps: 1e6, delta: 0.5},
		{name: "beta", key: keyBeta, eps: 1e6, delta: 0.5},
	}
	want := []int{0, 1, 2}
	srv2, hs2 := openDurable(t, dir, 1, opts, both)
	acctLedger := tenantOf(t, srv2, "beta").Acct.SpendByEpoch()
	acctEpochs := make([]int, len(acctLedger))
	for i, e := range acctLedger {
		acctEpochs[i] = e.Epoch
	}
	if !slices.Equal(acctEpochs, want) {
		t.Fatalf("new tenant's accountant ledger = %+v, want epochs %v", acctLedger, want)
	}
	if got := ledgerEpochs(t, hs2, keyBeta); !slices.Equal(got, want) {
		t.Fatalf("new tenant's /v1/stats ledger epochs = %v, want %v", got, want)
	}
	digest := replStatus(t, hs2).StateDigest
	hs2.Close() // crash again

	srv3, hs3 := openDurable(t, dir, 1, opts, both)
	if got := tenantOf(t, srv3, "beta").Acct.SpendByEpoch(); !slices.Equal(got, acctLedger) {
		t.Fatalf("new tenant's ledger moved across a crash: %+v -> %+v", acctLedger, got)
	}
	if got := ledgerEpochs(t, hs3, keyBeta); !slices.Equal(got, want) {
		t.Fatalf("new tenant's /v1/stats ledger epochs after a crash = %v, want %v", got, want)
	}
	if got := replStatus(t, hs3).StateDigest; got != digest {
		t.Fatalf("state digest moved across a crash: %s -> %s", digest, got)
	}
}
