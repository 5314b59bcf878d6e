package server

// End-to-end tests over real HTTP (httptest) proving the three serving
// properties the package documents:
//
//  1. Wire determinism — the same seed and request sequence produce
//     bit-identical response bytes, across server instances and under
//     concurrent clients (run with -race in CI).
//  2. Tenant budget isolation — one tenant exhausting its budget never
//     changes another tenant's releases, byte for byte, and a rejected
//     request spends nothing.
//  3. Snapshot pinning through the network layer — a fleet of clients
//     served during admin epoch advances only ever sees responses that
//     are exact recomputations of some single epoch; no response mixes
//     epochs, and every byte is reproducible offline.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/lodes"
	"repro/internal/privacy"
)

const (
	keyAlpha = "key-tenant-alpha"
	keyBeta  = "key-tenant-beta"
	keyAdmin = "key-admin"
)

// tenantSpec configures one test tenant (weak-ER-EE, α=0.1 budgets, the
// permissive serving default).
type tenantSpec struct {
	name, key  string
	eps, delta float64
}

func testDataset(tb testing.TB, seed int64) *lodes.Dataset {
	tb.Helper()
	cfg := lodes.TestConfig()
	cfg.NumEstablishments = 500
	return lodes.MustGenerate(cfg, dist.NewStreamFromSeed(seed))
}

// newTestServer builds a server over a freshly generated dataset and
// starts it on a real socket. With no tenants given, one ample-budget
// tenant "alpha" (keyAlpha) is registered.
func newTestServer(tb testing.TB, dataSeed int64, opts Options, tenants []tenantSpec) (*Server, *httptest.Server) {
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
	srv := New(core.NewPublisher(testDataset(tb, dataSeed)), reg, opts)
	hs := httptest.NewServer(srv.Handler())
	tb.Cleanup(hs.Close)
	return srv, hs
}

// do issues one request and returns (status, body). Transport failures
// are reported with Error (goroutine-safe) and surface as status 0.
func do(tb testing.TB, hs *httptest.Server, method, path, key, body string) (int, []byte) {
	tb.Helper()
	req, err := http.NewRequest(method, hs.URL+path, bytes.NewReader([]byte(body)))
	if err != nil {
		tb.Errorf("%s %s: %v", method, path, err)
		return 0, nil
	}
	if key != "" {
		req.Header.Set(apiKeyHeader, key)
	}
	resp, err := hs.Client().Do(req)
	if err != nil {
		tb.Errorf("%s %s: %v", method, path, err)
		return 0, nil
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Errorf("%s %s: read body: %v", method, path, err)
		return 0, nil
	}
	return resp.StatusCode, raw
}

type scriptReq struct{ path, body string }

// determinismScript is a mixed request sequence — marginal releases,
// atomic batches and single cells — with explicit sequence numbers, so
// its responses are a pure function of the server's configuration.
func determinismScript() []scriptReq {
	var script []scriptReq
	for i := 0; i < 6; i++ {
		script = append(script,
			scriptReq{"/v1/release", fmt.Sprintf(
				`{"attrs":["place","industry","ownership"],"mechanism":"smooth-gamma","alpha":0.1,"eps":2,"seq":%d}`, i)},
			scriptReq{"/v1/release", fmt.Sprintf(
				`{"attrs":["sex"],"mechanism":"log-laplace","alpha":0.1,"eps":1,"seq":%d}`, 100+i)},
			scriptReq{"/v1/batch", fmt.Sprintf(
				`{"requests":[{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":1},`+
					`{"attrs":["ownership"],"mechanism":"smooth-laplace","alpha":0.1,"eps":2,"delta":0.05}],"seq":%d}`, 200+i)},
			scriptReq{"/v1/cell", fmt.Sprintf(
				`{"attrs":["place","industry","ownership"],"mechanism":"smooth-gamma","alpha":0.1,"eps":1,`+
					`"values":["%s","44-Retail","Private"],"seq":%d}`, lodes.PlaceName(0), 300+i)},
		)
	}
	return script
}

// TestWireDeterminism: the same seed and request sequence yield
// bit-identical JSON — across independent server instances, and when
// the same sequence is replayed by eight concurrent clients.
func TestWireDeterminism(t *testing.T) {
	opts := Options{NoiseSeed: 7, AdminKey: keyAdmin, DeltaSeed: 100}
	script := determinismScript()
	sequential := func(hs *httptest.Server) [][]byte {
		out := make([][]byte, len(script))
		for i, sr := range script {
			status, body := do(t, hs, "POST", sr.path, keyAlpha, sr.body)
			if status != http.StatusOK {
				t.Fatalf("request %d (%s) = %d: %s", i, sr.path, status, body)
			}
			out[i] = body
		}
		return out
	}

	_, hs1 := newTestServer(t, 1, opts, nil)
	_, hs2 := newTestServer(t, 1, opts, nil)
	got1, got2 := sequential(hs1), sequential(hs2)
	for i := range got1 {
		if !bytes.Equal(got1[i], got2[i]) {
			t.Fatalf("request %d: servers diverge:\n  a: %s\n  b: %s", i, got1[i], got2[i])
		}
	}

	// Same sequence, eight concurrent clients against a third identical
	// server: interleaving must never show in the bytes.
	_, hs3 := newTestServer(t, 1, opts, nil)
	got3 := make([][]byte, len(script))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(script); i += 8 {
				status, body := do(t, hs3, "POST", script[i].path, keyAlpha, script[i].body)
				if status != http.StatusOK {
					t.Errorf("concurrent request %d = %d: %s", i, status, body)
					return
				}
				got3[i] = body
			}
		}(w)
	}
	wg.Wait()
	for i := range got1 {
		if !bytes.Equal(got1[i], got3[i]) {
			t.Fatalf("request %d: concurrent bytes diverge from sequential:\n  seq: %s\n  conc: %s",
				i, got1[i], got3[i])
		}
	}
}

// TestAssignedSeqSkipsNamedSeqs: a server-assigned seq never reuses one
// already charged under a client-named seq. Charges under named seqs 0
// and 1 raise the tenant's counter, so the next unnamed request answers
// seq 2, on an in-memory server and a durable one alike.
func TestAssignedSeqSkipsNamedSeqs(t *testing.T) {
	opts := Options{NoiseSeed: 7}
	_, mem := newTestServer(t, 1, opts, nil)
	_, durable := openDurable(t, t.TempDir(), 1, opts, nil)
	for _, hs := range []*httptest.Server{mem, durable} {
		for seq := 0; seq < 2; seq++ {
			body := fmt.Sprintf(`{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5,"seq":%d}`, seq)
			if status, raw := do(t, hs, "POST", "/v1/release", keyAlpha, body); status != http.StatusOK {
				t.Fatalf("named seq %d = %d: %s", seq, status, raw)
			}
		}
		status, raw := do(t, hs, "POST", "/v1/release", keyAlpha,
			`{"attrs":["ownership"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5}`)
		if status != http.StatusOK {
			t.Fatalf("unnamed release = %d: %s", status, raw)
		}
		var rel releaseJSON
		if err := json.Unmarshal(raw, &rel); err != nil {
			t.Fatal(err)
		}
		if rel.Seq != 2 {
			t.Errorf("server-assigned seq = %d after named seqs 0 and 1, want 2", rel.Seq)
		}
	}
}

// TestRequestNoiseSeparation pins the digest half of the derivation:
// two *different* requests issued under the same (tenant, seq) must
// draw independent noise. Without the content digest, both would share
// base noise, and a tenant could difference the two responses (e.g. the
// same marginal at two ε) to cancel the noise and recover true counts
// while being charged for two independent releases.
func TestRequestNoiseSeparation(t *testing.T) {
	opts := Options{NoiseSeed: 7}
	srv, hs := newTestServer(t, 1, opts, nil)
	attrs := []string{"industry"}
	bodyFor := func(eps float64) string {
		return fmt.Sprintf(`{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":%g,"seq":0}`, eps)
	}
	status, bodyA := do(t, hs, "POST", "/v1/release", keyAlpha, bodyFor(1))
	if status != http.StatusOK {
		t.Fatalf("release A = %d: %s", status, bodyA)
	}
	status, bodyB := do(t, hs, "POST", "/v1/release", keyAlpha, bodyFor(2))
	if status != http.StatusOK {
		t.Fatalf("release B = %d: %s", status, bodyB)
	}

	reqA := core.Request{Attrs: attrs, Mechanism: core.MechSmoothGamma, Alpha: 0.1, Eps: 1}
	reqB := reqA
	reqB.Eps = 2
	root := dist.NewStreamFromSeed(opts.NoiseSeed)
	streamFor := func(digest string) *dist.Stream {
		return root.Split("tenant:alpha").SplitIndex("req", 0).Split("body:" + digest)
	}
	render := func(rel *core.Release) []byte {
		raw, err := json.Marshal(releaseToJSON(rel, 0, attrs))
		if err != nil {
			t.Fatal(err)
		}
		return append(raw, '\n')
	}

	// True replay: B recomputed offline on its own digest reproduces the
	// wire bytes exactly.
	relB, err := srv.pub.ReleaseMarginal(nil, reqB, streamFor(requestDigest(digestRelease, []core.Request{reqB}, nil)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bodyB, render(relB)) {
		t.Fatalf("offline recomputation diverges from the wire:\n  got:  %s\n  want: %s", render(relB), bodyB)
	}
	// The differencing attack's precondition: B drawn from A's stream —
	// what a digest-less (tenant, seq)-only derivation would produce —
	// must NOT be what the server actually sent.
	relShared, err := srv.pub.ReleaseMarginal(nil, reqB, streamFor(requestDigest(digestRelease, []core.Request{reqA}, nil)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(bodyB, render(relShared)) {
		t.Fatal("two different requests under one (tenant, seq) drew the same base noise")
	}
}

// TestAdvanceSeedContinuity: with an explicit seed override, the delta
// sequence depends only on the absolute quarter index — any split of N
// quarters into calls (including a retry after a partial failure)
// absorbs the exact lineage one N-quarter call would have.
func TestAdvanceSeedContinuity(t *testing.T) {
	opts := Options{NoiseSeed: 7, AdminKey: keyAdmin, DeltaSeed: 100}
	_, split := newTestServer(t, 1, opts, nil)
	_, whole := newTestServer(t, 1, opts, nil)
	advance := func(hs *httptest.Server, body string) advanceJSON {
		status, raw := do(t, hs, "POST", "/v1/admin/advance", keyAdmin, body)
		if status != http.StatusOK {
			t.Fatalf("advance = %d: %s", status, raw)
		}
		var out advanceJSON
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a1 := advance(split, `{"quarters":1,"seed":777}`)
	a2 := advance(split, `{"quarters":1,"seed":777}`)
	b := advance(whole, `{"quarters":2,"seed":777}`)
	got := append(append([]advanceQuarter(nil), a1.Quarters...), a2.Quarters...)
	if !reflect.DeepEqual(got, b.Quarters) {
		t.Fatalf("split advances diverge from one call:\n  split: %+v\n  whole: %+v", got, b.Quarters)
	}
	// The resulting datasets are the same dataset: identical releases,
	// byte for byte.
	rel := `{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":1,"seq":0}`
	_, ra := do(t, split, "POST", "/v1/release", keyAlpha, rel)
	_, rb := do(t, whole, "POST", "/v1/release", keyAlpha, rel)
	if !bytes.Equal(ra, rb) {
		t.Fatalf("post-advance releases diverge:\n  split: %s\n  whole: %s", ra, rb)
	}
}

// TestAdvanceWarmCacheTelemetry: a server advanced while its marginal
// cache is warm reports the maintenance outcome — truths patched in
// place, none evicted — in both the /v1/admin/advance structured
// response and the per-epoch cache section of /v1/stats, and the warm
// truth keeps serving as a hit in the new epoch.
func TestAdvanceWarmCacheTelemetry(t *testing.T) {
	opts := Options{NoiseSeed: 7, AdminKey: keyAdmin, DeltaSeed: 100}
	_, hs := newTestServer(t, 1, opts, nil)

	// Warm two truths: one workplace marginal, one worker marginal.
	for i, body := range []string{
		`{"attrs":["place","industry","ownership"],"mechanism":"smooth-gamma","alpha":0.1,"eps":1,"seq":0}`,
		`{"attrs":["industry","education"],"mechanism":"smooth-gamma","alpha":0.1,"eps":1,"seq":1}`,
	} {
		if status, raw := do(t, hs, "POST", "/v1/release", keyAlpha, body); status != http.StatusOK {
			t.Fatalf("warming release %d = %d: %s", i, status, raw)
		}
	}

	status, raw := do(t, hs, "POST", "/v1/admin/advance", keyAdmin, `{"quarters":1}`)
	if status != http.StatusOK {
		t.Fatalf("advance = %d: %s", status, raw)
	}
	var adv advanceJSON
	if err := json.Unmarshal(raw, &adv); err != nil {
		t.Fatal(err)
	}
	if len(adv.Quarters) != 1 {
		t.Fatalf("quarters = %+v, want exactly one", adv.Quarters)
	}
	q := adv.Quarters[0]
	if q.CachePatches != 2 || q.CacheEvictions != 0 {
		t.Errorf("advance reported %d patches / %d evictions, want 2 / 0: %s",
			q.CachePatches, q.CacheEvictions, raw)
	}

	// The patched truth serves the new epoch from cache: re-releasing one
	// warmed attribute set must not add a miss.
	if status, raw := do(t, hs, "POST", "/v1/release", keyAlpha,
		`{"attrs":["industry","education"],"mechanism":"smooth-gamma","alpha":0.1,"eps":1,"seq":2}`); status != http.StatusOK {
		t.Fatalf("post-advance release = %d: %s", status, raw)
	}
	status, raw = do(t, hs, "GET", "/v1/stats", keyAlpha, "")
	if status != http.StatusOK {
		t.Fatalf("stats = %d: %s", status, raw)
	}
	var stats struct {
		Cache []cacheStatsJSON `json:"cache"`
	}
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Cache) != 2 {
		t.Fatalf("cache history = %+v, want two epochs: %s", stats.Cache, raw)
	}
	if e0 := stats.Cache[0]; e0.Patches != 0 {
		t.Errorf("epoch 0 reports %d patches, want 0: %s", e0.Patches, raw)
	}
	e1 := stats.Cache[1]
	if e1.Epoch != 1 || e1.Patches != 2 || e1.Evictions != 0 {
		t.Errorf("epoch 1 cache = %+v, want epoch 1 with 2 patches / 0 evictions: %s", e1, raw)
	}
	if e1.Misses != 0 || e1.Hits != 1 {
		t.Errorf("epoch 1 served %d hits / %d misses, want 1 / 0 (patched truth stays warm): %s",
			e1.Hits, e1.Misses, raw)
	}
}

// TestAdvanceErrorReportsProgress: a failing advance reports how far it
// got — quarters absorbed in this call, the epoch actually reached, and
// the per-quarter summaries — so an admin can resume instead of
// guessing what applied.
func TestAdvanceErrorReportsProgress(t *testing.T) {
	bad := lodes.DefaultDeltaConfig()
	bad.GrowthSigma = -1 // rejected by DeltaConfig.Validate at generation time
	opts := Options{NoiseSeed: 7, AdminKey: keyAdmin, DeltaSeed: 100, DeltaConfig: &bad}
	_, hs := newTestServer(t, 1, opts, nil)
	status, raw := do(t, hs, "POST", "/v1/admin/advance", keyAdmin, `{"quarters":2}`)
	// A misconfigured generator is a server fault, not client input.
	if status != http.StatusInternalServerError {
		t.Fatalf("advance with broken config = %d, want 500: %s", status, raw)
	}
	var out struct {
		Error            string           `json:"error"`
		QuartersAbsorbed *int             `json:"quarters_absorbed"`
		Epoch            *int             `json:"epoch"`
		Quarters         []advanceQuarter `json:"quarters"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Error == "" {
		t.Fatalf("error body carries no message: %s", raw)
	}
	if out.QuartersAbsorbed == nil || *out.QuartersAbsorbed != 0 {
		t.Fatalf("quarters_absorbed = %v, want 0: %s", out.QuartersAbsorbed, raw)
	}
	if out.Epoch == nil || *out.Epoch != 0 {
		t.Fatalf("epoch = %v, want 0: %s", out.Epoch, raw)
	}
	if len(out.Quarters) != 0 {
		t.Fatalf("quarters = %+v, want none absorbed: %s", out.Quarters, raw)
	}
	// The failed advance left the dataset untouched.
	status, raw = do(t, hs, "GET", "/healthz", "", "")
	if status != http.StatusOK || !bytes.Contains(raw, []byte(`"epoch":0`)) {
		t.Fatalf("healthz after failed advance = %d: %s", status, raw)
	}
}

// TestTenantBudgetIsolation: tenant alpha exhausting its budget — by
// single releases and by batch admission — never changes tenant beta's
// bytes, and every rejection spends nothing.
func TestTenantBudgetIsolation(t *testing.T) {
	opts := Options{NoiseSeed: 7}
	tenants := []tenantSpec{
		{name: "alpha", key: keyAlpha, eps: 4.5, delta: 0.5},
		{name: "beta", key: keyBeta, eps: 1e6, delta: 0.5},
	}
	betaScript := []scriptReq{
		{"/v1/release", `{"attrs":["place","industry","ownership"],"mechanism":"smooth-gamma","alpha":0.1,"eps":2,"seq":0}`},
		{"/v1/release", `{"attrs":["sex"],"mechanism":"log-laplace","alpha":0.1,"eps":1,"seq":1}`},
		{"/v1/batch", `{"requests":[{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":1}],"seq":2}`},
	}
	collect := func(hs *httptest.Server) [][]byte {
		out := make([][]byte, len(betaScript))
		for i, sr := range betaScript {
			status, body := do(t, hs, "POST", sr.path, keyBeta, sr.body)
			if status != http.StatusOK {
				t.Fatalf("beta request %d = %d: %s", i, status, body)
			}
			out[i] = body
		}
		return out
	}

	// Baseline: beta alone on an identically configured server.
	_, quiet := newTestServer(t, 1, opts, tenants)
	baseline := collect(quiet)

	// Busy server: alpha spends, overdraws, and is finally exhausted.
	srv, busy := newTestServer(t, 1, opts, tenants)
	alphaAcct := func() *privacy.Accountant {
		tn, ok := srv.reg.Tenant("alpha")
		if !ok {
			t.Fatal("tenant alpha not registered")
		}
		return tn.Acct
	}
	release := func(eps float64, seq int) (int, []byte) {
		return do(t, busy, "POST", "/v1/release", keyAlpha, fmt.Sprintf(
			`{"attrs":["place","industry","ownership"],"mechanism":"smooth-gamma","alpha":0.1,"eps":%g,"seq":%d}`, eps, seq))
	}
	if status, body := release(2, 0); status != http.StatusOK {
		t.Fatalf("alpha release = %d: %s", status, body)
	}
	remEps, _ := alphaAcct().Remaining()
	if remEps != 2.5 {
		t.Fatalf("alpha remaining eps = %g, want 2.5", remEps)
	}
	// Over-budget single release: 429 carrying the remaining budget.
	status, body := release(4, 1)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-budget release = %d: %s", status, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.RemainingEps == nil || *eb.RemainingEps != 2.5 {
		t.Fatalf("429 body reports remaining eps %v, want 2.5: %s", eb.RemainingEps, body)
	}
	// Over-budget batch: fail-fast admission control, nothing spent.
	status, body = do(t, busy, "POST", "/v1/batch", keyAlpha,
		`{"requests":[{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":1},`+
			`{"attrs":["ownership"],"mechanism":"smooth-gamma","alpha":0.1,"eps":1},`+
			`{"attrs":["sex"],"mechanism":"log-laplace","alpha":0.1,"eps":1}],"seq":2}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-budget batch = %d: %s", status, body)
	}
	if got, _ := alphaAcct().Remaining(); got != 2.5 {
		t.Fatalf("rejected requests spent budget: remaining eps %g, want 2.5", got)
	}
	// The rejections cost nothing, so this still fits.
	if status, body := release(2, 3); status != http.StatusOK {
		t.Fatalf("affordable release after rejections = %d: %s", status, body)
	}
	if status, _ := release(2, 4); status != http.StatusTooManyRequests {
		t.Fatalf("exhausted alpha release = %d, want 429", status)
	}

	// Beta's bytes are identical to the quiet baseline.
	for i, got := range collect(busy) {
		if !bytes.Equal(got, baseline[i]) {
			t.Fatalf("beta request %d diverges when alpha is busy:\n  quiet: %s\n  busy: %s",
				i, baseline[i], got)
		}
	}
}

// TestServeDuringAdvanceFleet extends TestAdvanceSnapshotPinning through
// the network layer: six clients hammer /v1/release while the admin
// endpoint absorbs three quarterly deltas. Every observed response must
// be a bit-exact offline recomputation against the single epoch it
// reports — an in-flight request that read epoch-N+1 rows while
// reporting epoch N would fail the comparison.
func TestServeDuringAdvanceFleet(t *testing.T) {
	const quarters = 3
	const dataSeed = 56
	opts := Options{NoiseSeed: 11, AdminKey: keyAdmin, DeltaSeed: 400}

	// The expected epoch lineage, applied independently of the server:
	// quarter q draws from DeltaSeed+q with the default delta config.
	datasets := make([]*lodes.Dataset, quarters+1)
	datasets[0] = testDataset(t, dataSeed)
	for q := 0; q < quarters; q++ {
		dl, err := lodes.GenerateDelta(datasets[q], lodes.DefaultDeltaConfig(), dist.NewStreamFromSeed(opts.DeltaSeed+int64(q)))
		if err != nil {
			t.Fatal(err)
		}
		if datasets[q+1], err = datasets[q].ApplyDelta(dl); err != nil {
			t.Fatal(err)
		}
	}

	_, hs := newTestServer(t, dataSeed, opts, nil)
	attrs := []string{lodes.AttrPlace, lodes.AttrIndustry, lodes.AttrOwnership}
	bodyFor := func(seq int64) string {
		return fmt.Sprintf(
			`{"attrs":["place","industry","ownership"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5,"seq":%d}`, seq)
	}

	type obs struct {
		seq  int64
		body []byte
	}
	stop := make(chan struct{})
	var mu sync.Mutex
	var observed []obs
	var served atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				seq := int64(g)*100000 + int64(i)
				status, body := do(t, hs, "POST", "/v1/release", keyAlpha, bodyFor(seq))
				if status != http.StatusOK {
					t.Errorf("fleet release seq %d = %d: %s", seq, status, body)
					return
				}
				mu.Lock()
				observed = append(observed, obs{seq, body})
				mu.Unlock()
				served.Add(1)
			}
		}(g)
	}

	// Require serving progress before and after every advance, so
	// releases demonstrably overlap the update path.
	waitFor := func(target int64) {
		deadline := time.Now().Add(10 * time.Second)
		for served.Load() < target && time.Now().Before(deadline) {
			runtime.Gosched()
		}
	}
	var floor int64
	for q := 0; q < quarters; q++ {
		waitFor(floor + 5)
		status, body := do(t, hs, "POST", "/v1/admin/advance", keyAdmin, `{"quarters":1}`)
		if status != http.StatusOK {
			t.Fatalf("advance %d = %d: %s", q, status, body)
		}
		var adv struct {
			Epoch int `json:"epoch"`
		}
		if err := json.Unmarshal(body, &adv); err != nil {
			t.Fatal(err)
		}
		if adv.Epoch != q+1 {
			t.Fatalf("advance %d landed on epoch %d, want %d", q, adv.Epoch, q+1)
		}
		floor = served.Load()
	}
	waitFor(floor + 5)
	close(stop)
	wg.Wait()

	// Offline recomputation: one publisher per epoch of the independent
	// lineage, the server's exact noise derivation — tenant split, seq
	// split, request-content digest split (the publisher folds in the
	// epoch itself) — and the handler's exact rendering. Every observed
	// byte must match.
	pubs := make([]*core.Publisher, quarters+1)
	for e := range pubs {
		pubs[e] = core.NewPublisher(datasets[e])
	}
	root := dist.NewStreamFromSeed(opts.NoiseSeed)
	req := core.Request{Attrs: attrs, Mechanism: core.MechSmoothGamma, Alpha: 0.1, Eps: 0.5}
	digest := requestDigest(digestRelease, []core.Request{req}, nil)
	epochsSeen := make(map[int]int)
	for _, o := range observed {
		var got releaseJSON
		if err := json.Unmarshal(o.body, &got); err != nil {
			t.Fatalf("seq %d: %v", o.seq, err)
		}
		if got.Epoch < 0 || got.Epoch > quarters {
			t.Fatalf("seq %d reports epoch %d, outside [0,%d]", o.seq, got.Epoch, quarters)
		}
		epochsSeen[got.Epoch]++
		stream := root.Split("tenant:alpha").SplitIndex("req", int(o.seq)).Split("body:" + digest)
		rel, err := pubs[got.Epoch].ReleaseMarginal(nil, req, stream, nil)
		if err != nil {
			t.Fatalf("seq %d: offline recomputation: %v", o.seq, err)
		}
		want, err := json.Marshal(releaseToJSON(rel, o.seq, attrs))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		if !bytes.Equal(o.body, want) {
			t.Fatalf("seq %d: response is not a bit-exact epoch-%d recomputation:\n  got:  %s\n  want: %s",
				o.seq, got.Epoch, o.body, want)
		}
	}
	if epochsSeen[0] == 0 || epochsSeen[quarters] == 0 {
		t.Errorf("fleet did not span the advance: epochs seen %v", epochsSeen)
	}

	// The world after the dust settles: final epoch everywhere, and the
	// tenant's ledger attributes spend to the epochs it happened in.
	status, body := do(t, hs, "GET", "/healthz", "", "")
	if status != http.StatusOK {
		t.Fatalf("healthz = %d", status)
	}
	var health struct {
		OK    bool `json:"ok"`
		Epoch int  `json:"epoch"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if !health.OK || health.Epoch != quarters {
		t.Fatalf("healthz reports %+v, want ok at epoch %d", health, quarters)
	}
	status, body = do(t, hs, "GET", "/v1/stats", keyAlpha, "")
	if status != http.StatusOK {
		t.Fatalf("stats = %d: %s", status, body)
	}
	var stats statsJSON
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	var ledgerReleases int
	for _, e := range stats.SpendByEpoch {
		ledgerReleases += e.Releases
	}
	if ledgerReleases != len(observed) || stats.Releases != len(observed) {
		t.Errorf("ledger attributes %d releases (total %d), fleet made %d",
			ledgerReleases, stats.Releases, len(observed))
	}
	if got := stats.SpentEps; got != 0.5*float64(len(observed)) {
		t.Errorf("spent eps = %g, want %g", got, 0.5*float64(len(observed)))
	}
}
