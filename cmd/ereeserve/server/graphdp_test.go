package server

// Wire tests for the paper's two graph-DP baselines, which a weak-ER-EE
// tenant cannot request: truncated-laplace (node-DP) and edge-laplace
// (edge-DP).

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/privacy"
)

const (
	keyNode = "key-tenant-node"
	keyEdge = "key-tenant-edge"
)

// newGraphDPServer starts an in-memory server over the test dataset
// with two ample-budget tenants: "node" (node-DP, keyNode) and "edge"
// (edge-DP, keyEdge).
func newGraphDPServer(tb testing.TB, opts Options) (*Server, *httptest.Server) {
	tb.Helper()
	reg := privacy.NewRegistry()
	for _, tn := range []struct {
		name, key string
		def       privacy.Definition
	}{{"node", keyNode, privacy.NodeDP}, {"edge", keyEdge, privacy.EdgeDP}} {
		acct, err := privacy.NewAccountant(tn.def, 0, 1e6, 0.5)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := reg.Register(tn.name, tn.key, acct); err != nil {
			tb.Fatal(err)
		}
	}
	srv := New(core.NewPublisher(testDataset(tb, 1)), reg, opts)
	hs := httptest.NewServer(srv.Handler())
	tb.Cleanup(hs.Close)
	return srv, hs
}

// TestTruncatedReleaseBytesPinned pins the exact response bytes of
// truncated-laplace releases: two θ, the Workload 1 attributes in schema
// (canonical) and in another order, one inside a batch, and one after an
// admin advance. Any change to how the truncated counts are computed or
// how their noise is drawn shows up here as a changed digest.
func TestTruncatedReleaseBytesPinned(t *testing.T) {
	_, hs := newGraphDPServer(t, Options{NoiseSeed: 7, AdminKey: keyAdmin, DeltaSeed: 100})
	steps := []struct {
		path, key, body, want string
	}{
		{"/v1/release", keyNode,
			`{"attrs":["place","industry","ownership"],"mechanism":"truncated-laplace","eps":1,"theta":100,"seq":0}`,
			"652fddb1dc0e39871618e2518a2ab583b718ed854e6d78c6884f8a1d2c8e9cbd"},
		{"/v1/release", keyNode,
			`{"attrs":["ownership","place","industry"],"mechanism":"truncated-laplace","eps":1,"theta":100,"seq":1}`,
			"7df4148fdff814c1f7e733133f41d9eff628ec9eeb799c618465b8afd479dc9b"},
		{"/v1/release", keyNode,
			`{"attrs":["place","industry","ownership"],"mechanism":"truncated-laplace","eps":2,"theta":10,"seq":2}`,
			"c1a60f267e054136d4a0c4def754e62f7c4b7a8fd1bf926ef48f18778525619d"},
		{"/v1/release", keyNode,
			`{"attrs":["industry","place","ownership"],"mechanism":"truncated-laplace","eps":2,"theta":10,"seq":3}`,
			"16b95a0ea2da5c5151e08aa303d9211b0bbe9402eef8de0b173d29953b33c3fd"},
		{"/v1/batch", keyNode,
			`{"requests":[{"attrs":["place","industry","ownership"],"mechanism":"truncated-laplace","eps":1,"theta":10},` +
				`{"attrs":["ownership","industry"],"mechanism":"truncated-laplace","eps":0.5,"theta":100}],"seq":4}`,
			"a1a372f5a25983f6c2c024c31d172e403106b04833cc20362847927ebecd45b7"},
		{"/v1/admin/advance", keyAdmin, `{"quarters":1}`, ""},
		{"/v1/release", keyNode,
			`{"attrs":["place","industry","ownership"],"mechanism":"truncated-laplace","eps":1,"theta":100,"seq":5}`,
			"611c9713e5e5c4e52efeee51cafec8e70290598ff0075e81bd6fe4ff941e8a0e"},
	}
	for i, st := range steps {
		status, body := do(t, hs, "POST", st.path, st.key, st.body)
		if status != http.StatusOK {
			t.Fatalf("step %d (%s) = %d: %s", i, st.path, status, body)
		}
		if st.path == "/v1/admin/advance" {
			continue
		}
		sum := sha256.Sum256(body)
		got := hex.EncodeToString(sum[:])
		if got != st.want {
			t.Errorf("step %d (%s): body SHA-256 %s, want %s\n  body: %.200s", i, st.path, got, st.want, body)
		}
	}
}

// TestHugeLaplaceScaleRefusedBeforeCharge: a Laplace scale so large
// that one draw can overflow float64 — ε = 1e-320, or θ/ε past the
// largest float — is refused as a bad request before admission. It
// answers 400 and charges nothing, where it used to charge the tenant
// and then fail to encode an infinite count.
func TestHugeLaplaceScaleRefusedBeforeCharge(t *testing.T) {
	srv, hs := newGraphDPServer(t, Options{NoiseSeed: 7})
	cases := []struct{ tenant, key, path, body string }{
		{"node", keyNode, "/v1/release", `{"attrs":["industry"],"mechanism":"truncated-laplace","eps":1e-320,"theta":10}`},
		{"node", keyNode, "/v1/release", `{"attrs":["industry"],"mechanism":"truncated-laplace","eps":1e-300,"theta":1000000000}`},
		{"node", keyNode, "/v1/batch", `{"requests":[{"attrs":["industry"],"mechanism":"truncated-laplace","eps":1,"theta":10},` +
			`{"attrs":["ownership"],"mechanism":"truncated-laplace","eps":1e-320,"theta":10}]}`},
		{"edge", keyEdge, "/v1/release", `{"attrs":["industry"],"mechanism":"edge-laplace","eps":1e-320}`},
		{"edge", keyEdge, "/v1/batch", `{"requests":[{"attrs":["industry"],"mechanism":"edge-laplace","eps":1e-320}]}`},
		{"edge", keyEdge, "/v1/cell", `{"attrs":["industry"],"mechanism":"edge-laplace","eps":1e-320,"values":["44-Retail"]}`},
	}
	for _, c := range cases {
		acct := tenantOf(t, srv, c.tenant).Acct
		spent, releases := acct.Spent(), acct.Releases()
		status, body := do(t, hs, "POST", c.path, c.key, c.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s %s = %d, want 400: %s", c.path, c.body, status, body)
		}
		if got := acct.Spent(); got != spent || acct.Releases() != releases {
			t.Errorf("%s %s: spend moved from %+v (%d releases) to %+v (%d releases)",
				c.path, c.body, spent, releases, got, acct.Releases())
		}
	}
	// The same mechanisms at ordinary parameters still release.
	for _, c := range []struct{ key, body string }{
		{keyNode, `{"attrs":["industry"],"mechanism":"truncated-laplace","eps":1,"theta":10}`},
		{keyEdge, `{"attrs":["industry"],"mechanism":"edge-laplace","eps":1}`},
	} {
		if status, body := do(t, hs, "POST", "/v1/release", c.key, c.body); status != http.StatusOK {
			t.Errorf("%s = %d: %s", c.body, status, body)
		}
	}
}
