package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/privacy"
)

// TestStatusMapping drives every rejection path through real HTTP and
// pins the sentinel-to-status contract: transport/shape failures and
// invalid mechanism parameters are 400, unknown schema objects are 404,
// credentials are 401, method mismatches 405 — and none of them spends
// a microcent of budget.
func TestStatusMapping(t *testing.T) {
	srv, hs := newTestServer(t, 1, Options{NoiseSeed: 7, AdminKey: keyAdmin}, nil)
	tn, ok := srv.reg.Tenant("alpha")
	if !ok {
		t.Fatal("tenant alpha not registered")
	}

	valid := `{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":1}`
	cases := []struct {
		name   string
		method string
		path   string
		key    string
		body   string
		want   int
	}{
		{"malformed JSON", "POST", "/v1/release", keyAlpha, `{"attrs":`, 400},
		{"unknown field", "POST", "/v1/release", keyAlpha, `{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":1,"bogus":1}`, 400},
		{"trailing data", "POST", "/v1/release", keyAlpha, valid + `{"again":true}`, 400},
		{"empty attrs", "POST", "/v1/release", keyAlpha, `{"attrs":[],"mechanism":"smooth-gamma","alpha":0.1,"eps":1}`, 400},
		{"too many attrs", "POST", "/v1/release", keyAlpha, `{"attrs":["a","b","c","d","e","f","g","h","i"],"mechanism":"smooth-gamma","alpha":0.1,"eps":1}`, 400},
		{"empty attr name", "POST", "/v1/release", keyAlpha, `{"attrs":[""],"mechanism":"smooth-gamma","alpha":0.1,"eps":1}`, 400},
		{"values on /v1/release", "POST", "/v1/release", keyAlpha, `{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":1,"values":["44-Retail"]}`, 400},
		{"unknown mechanism", "POST", "/v1/release", keyAlpha, `{"attrs":["industry"],"mechanism":"magic","alpha":0.1,"eps":1}`, 400},
		{"negative eps", "POST", "/v1/release", keyAlpha, `{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":-1}`, 400},
		{"zero alpha", "POST", "/v1/release", keyAlpha, `{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0,"eps":1}`, 400},
		{"smooth-laplace without delta", "POST", "/v1/release", keyAlpha, `{"attrs":["industry"],"mechanism":"smooth-laplace","alpha":0.1,"eps":1}`, 400},
		{"negative seq", "POST", "/v1/release", keyAlpha, `{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":1,"seq":-1}`, 400},
		{"huge seq", "POST", "/v1/release", keyAlpha, `{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":1,"seq":2147483648}`, 400},
		{"unknown attribute", "POST", "/v1/release", keyAlpha, `{"attrs":["favorite_color"],"mechanism":"smooth-gamma","alpha":0.1,"eps":1}`, 404},
		{"duplicate attribute", "POST", "/v1/release", keyAlpha, `{"attrs":["industry","industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":1}`, 404},
		{"empty batch", "POST", "/v1/batch", keyAlpha, `{"requests":[]}`, 400},
		{"oversized batch", "POST", "/v1/batch", keyAlpha, `{"requests":[` + strings.Repeat(valid+",", 64) + valid + `]}`, 400},
		{"batch with bad member", "POST", "/v1/batch", keyAlpha, `{"requests":[` + valid + `,{"attrs":["industry"],"mechanism":"magic","alpha":0.1,"eps":1}]}`, 400},
		{"cell with unknown value", "POST", "/v1/cell", keyAlpha, `{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":1,"values":["99-Nonsense"]}`, 404},
		{"cell with wrong arity", "POST", "/v1/cell", keyAlpha, `{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":1,"values":["44-Retail","Private"]}`, 404},
		{"cell under truncated-laplace", "POST", "/v1/cell", keyAlpha, `{"attrs":["industry"],"mechanism":"truncated-laplace","alpha":0.1,"eps":1,"theta":10,"values":["44-Retail"]}`, 400},
		{"oversized body", "POST", "/v1/release", keyAlpha, `{"attrs":["` + strings.Repeat("x", maxBodyBytes) + `"]}`, 413},
		{"oversized batch body", "POST", "/v1/batch", keyAlpha, `{"requests":[{"attrs":["` + strings.Repeat("y", maxBodyBytes) + `"]}]}`, 413},
		{"missing API key", "POST", "/v1/release", "", valid, 401},
		{"unknown API key", "POST", "/v1/release", "key-of-nobody", valid, 401},
		{"tenant key on admin endpoint", "POST", "/v1/admin/advance", keyAlpha, `{"quarters":1}`, 401},
		{"advance zero quarters", "POST", "/v1/admin/advance", keyAdmin, `{"quarters":0}`, 400},
		{"advance too many quarters", "POST", "/v1/admin/advance", keyAdmin, `{"quarters":17}`, 400},
		{"GET on POST endpoint", "GET", "/v1/release", keyAlpha, "", 405},
		{"unknown path", "POST", "/v1/nope", keyAlpha, valid, 404},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := do(t, hs, tc.method, tc.path, tc.key, tc.body)
			if status != tc.want {
				t.Fatalf("%s %s = %d, want %d: %s", tc.method, tc.path, status, tc.want, body)
			}
			if spent := tn.Acct.Spent(); spent.Eps != 0 || spent.Delta != 0 {
				t.Fatalf("rejected request spent budget: %+v", spent)
			}
		})
	}
}

// TestBudgetStatusAndStats exhausts a small budget over the wire and
// checks the 429 shape and the stats endpoint's view of the spend.
func TestBudgetStatusAndStats(t *testing.T) {
	tenants := []tenantSpec{{name: "alpha", key: keyAlpha, eps: 2.5, delta: 0.5}}
	_, hs := newTestServer(t, 1, Options{NoiseSeed: 7}, tenants)

	body := `{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":2,"seq":0}`
	if status, raw := do(t, hs, "POST", "/v1/release", keyAlpha, body); status != http.StatusOK {
		t.Fatalf("first release = %d: %s", status, raw)
	}
	status, raw := do(t, hs, "POST", "/v1/release", keyAlpha, body)
	if status != http.StatusTooManyRequests {
		t.Fatalf("exhausted release = %d, want 429: %s", status, raw)
	}
	var eb errorBody
	if err := json.Unmarshal(raw, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.RemainingEps == nil || *eb.RemainingEps != 0.5 {
		t.Fatalf("429 remaining eps = %v, want 0.5", eb.RemainingEps)
	}

	status, raw = do(t, hs, "GET", "/v1/stats", keyAlpha, "")
	if status != http.StatusOK {
		t.Fatalf("stats = %d: %s", status, raw)
	}
	var stats statsJSON
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Tenant != "alpha" || stats.Definition != "weak-er-ee" {
		t.Errorf("stats identity = %s/%s, want alpha/weak-er-ee", stats.Tenant, stats.Definition)
	}
	if stats.SpentEps != 2 || stats.RemainingEps != 0.5 || stats.Releases != 1 {
		t.Errorf("stats budget view = spent %g / remaining %g / %d releases, want 2 / 0.5 / 1",
			stats.SpentEps, stats.RemainingEps, stats.Releases)
	}
	if len(stats.SpendByEpoch) != 1 || stats.SpendByEpoch[0].Epoch != 0 || stats.SpendByEpoch[0].Eps != 2 {
		t.Errorf("stats ledger = %+v, want one epoch-0 entry with eps 2", stats.SpendByEpoch)
	}
	if len(stats.Cache) == 0 {
		t.Error("stats carries no cache counters")
	}
}

// TestStatsConsistentUnderCharges: /v1/stats renders a tenant's
// position from one read, so a body read while two goroutines charge
// the tenant still adds up: remaining = budget − spent, and the
// per-epoch releases sum to the release count.
func TestStatsConsistentUnderCharges(t *testing.T) {
	const budgetEps, budgetDelta = 1e9, 0.5
	tenants := []tenantSpec{{name: "alpha", key: keyAlpha, eps: budgetEps, delta: budgetDelta}}
	srv, hs := newTestServer(t, 1, Options{NoiseSeed: 7}, tenants)
	acct := tenantOf(t, srv, "alpha").Acct
	charge := privacy.Loss{Def: privacy.WeakEREE, Alpha: 0.1, Eps: 0.25, Delta: 1e-12}
	if err := acct.Spend(charge); err != nil {
		t.Fatal(err)
	}
	acct.AdvanceEpoch()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := acct.Spend(charge); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()

	bad := 0
	for i := 0; i < 2000; i++ {
		status, raw := do(t, hs, "GET", "/v1/stats", keyAlpha, "")
		if status != http.StatusOK {
			t.Fatalf("stats = %d: %s", status, raw)
		}
		var stats statsJSON
		if err := json.Unmarshal(raw, &stats); err != nil {
			t.Fatal(err)
		}
		sum := 0
		for _, e := range stats.SpendByEpoch {
			sum += e.Releases
		}
		if stats.RemainingEps != budgetEps-stats.SpentEps || stats.RemainingDelta != budgetDelta-stats.SpentDelta ||
			sum != stats.Releases {
			if bad++; bad <= 3 {
				t.Errorf("inconsistent stats body: %s", raw)
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of 2000 stats bodies were inconsistent", bad)
	}
}

// TestLogLaplaceOverflowRefusedBeforeCharge: a Log-Laplace (α, ε) whose
// largest draw could overflow float64 for some count is refused as a
// bad request before admission, on every release endpoint. It answers
// 400 and charges nothing, where it used to charge the tenant and then
// fail to encode an infinite cell with a 500. Just above the bound the
// same requests release.
func TestLogLaplaceOverflowRefusedBeforeCharge(t *testing.T) {
	srv, hs := newTestServer(t, 1, Options{NoiseSeed: 7}, nil)
	acct := tenantOf(t, srv, "alpha").Acct
	const w1 = `"attrs":["place","industry","ownership"],"mechanism":"log-laplace","alpha":0.1`
	requests := func(eps string) []struct{ path, body string } {
		return []struct{ path, body string }{
			{"/v1/release", `{` + w1 + `,"eps":` + eps + `}`},
			{"/v1/batch", `{"requests":[{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":1},{` + w1 + `,"eps":` + eps + `}]}`},
			{"/v1/cell", `{"attrs":["industry"],"mechanism":"log-laplace","alpha":0.1,"eps":` + eps + `,"values":["44-Retail"]}`},
		}
	}
	for _, eps := range []string{"1e-320", "0.001", "0.002", "0.01"} {
		for _, r := range requests(eps) {
			spent, releases := acct.Spent(), acct.Releases()
			status, body := do(t, hs, "POST", r.path, keyAlpha, r.body)
			if status != http.StatusBadRequest {
				t.Errorf("%s %s = %d, want 400: %s", r.path, r.body, status, body)
			}
			if got := acct.Spent(); got != spent || acct.Releases() != releases {
				t.Errorf("%s %s: spend moved from %+v (%d releases) to %+v (%d releases)",
					r.path, r.body, spent, releases, got, acct.Releases())
			}
		}
	}
	for _, r := range requests("0.011") {
		if status, body := do(t, hs, "POST", r.path, keyAlpha, r.body); status != http.StatusOK {
			t.Errorf("%s %s = %d, want 200: %s", r.path, r.body, status, body)
		}
	}
}

// TestSmoothOverflowRefusedBeforeCharge: for a tenant configured with
// an α under which a smooth mechanism's largest draw could overflow
// float64, a smooth-gamma or smooth-laplace request is refused as a bad
// request before admission, on every release endpoint. It answers 400
// and charges nothing, where it used to charge the tenant and then fail
// to encode an infinite cell with a 500.
func TestSmoothOverflowRefusedBeforeCharge(t *testing.T) {
	reg := privacy.NewRegistry()
	acct, err := privacy.NewAccountant(privacy.WeakEREE, 1e307, 1e9, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("alpha", keyAlpha, acct); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(New(core.NewPublisher(testDataset(t, 1)), reg, Options{NoiseSeed: 7}).Handler())
	defer hs.Close()
	for _, m := range []string{
		`"mechanism":"smooth-gamma","alpha":1e307,"eps":1e4`,
		`"mechanism":"smooth-laplace","alpha":1e307,"eps":1e4,"delta":0.5`,
	} {
		for _, r := range []struct{ path, body string }{
			{"/v1/release", `{"attrs":["place","industry","ownership"],` + m + `}`},
			{"/v1/batch", `{"requests":[{"attrs":["industry"],` + m + `}]}`},
			{"/v1/cell", `{"attrs":["industry"],` + m + `,"values":["44-Retail"]}`},
		} {
			spent, releases := acct.Spent(), acct.Releases()
			if status, body := do(t, hs, "POST", r.path, keyAlpha, r.body); status != http.StatusBadRequest {
				t.Errorf("%s %s = %d, want 400: %s", r.path, r.body, status, body)
			}
			if got := acct.Spent(); got != spent || acct.Releases() != releases {
				t.Errorf("%s %s: spend moved from %+v (%d releases) to %+v (%d releases)",
					r.path, r.body, spent, releases, got, acct.Releases())
			}
		}
	}
}
