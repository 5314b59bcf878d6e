package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// startFollower boots an in-process follower of hs over its own state
// directory and dataset seed, serves it on httptest, and stops its
// replication loop and store at cleanup, in Service.Shutdown's order.
func startFollower(t *testing.T, hs *httptest.Server, dataSeed int64, tenants []tenantSpec) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := Open(core.NewPublisher(testDataset(t, dataSeed)), testRegistry(t, tenants), Options{
		NoiseSeed:     7,
		AdminKey:      keyAdmin,
		StateDir:      t.TempDir(),
		ReplicateFrom: hs.URL,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		fs.Close()
		srv.repl.stopLoop()
		if err := srv.closePersistent(); err != nil {
			t.Error(err)
		}
	})
	return srv, fs
}

// waitMirrored waits until the follower has applied everything the
// primary has made durable and both report the same state digest.
func waitMirrored(t *testing.T, primary, follower *httptest.Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		p, f := replStatus(t, primary), replStatus(t, follower)
		if f.Gen == p.Gen && f.AppliedRecords == p.DurableRecords && f.StateDigest == p.StateDigest {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: primary %+v, follower %+v", p, f)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFollowerStatsMatchPrimary: a follower's /v1/stats reports the
// tenant's position exactly as the primary does, including a tenant
// whose budget was cut below what it had already spent (the primary
// reports a negative remaining budget, and so must the follower).
func TestFollowerStatsMatchPrimary(t *testing.T) {
	dir := t.TempDir()
	big := []tenantSpec{{name: "alpha", key: keyAlpha, eps: 10, delta: 0.5}}
	_, hs := openDurable(t, dir, 1, Options{NoiseSeed: 7, AdminKey: keyAdmin}, big)
	if status, body := do(t, hs, "POST", "/v1/release", keyAlpha,
		`{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":5}`); status != http.StatusOK {
		t.Fatalf("seed release = %d: %s", status, body)
	}
	hs.Close()

	small := []tenantSpec{{name: "alpha", key: keyAlpha, eps: 1, delta: 0.5}}
	_, primary := openDurable(t, dir, 1, Options{NoiseSeed: 7, AdminKey: keyAdmin}, small)
	_, follower := startFollower(t, primary, 1, small)
	waitMirrored(t, primary, follower)

	stats := func(hs *httptest.Server) statsJSON {
		t.Helper()
		status, body := do(t, hs, "GET", "/v1/stats", keyAlpha, "")
		if status != http.StatusOK {
			t.Fatalf("stats = %d: %s", status, body)
		}
		var st statsJSON
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	p, f := stats(primary), stats(follower)
	if p.SpentEps != 5 || p.RemainingEps != -4 {
		t.Fatalf("primary spent %g, remaining %g; want 5 and -4", p.SpentEps, p.RemainingEps)
	}
	if f.SpentEps != p.SpentEps || f.SpentDelta != p.SpentDelta ||
		f.RemainingEps != p.RemainingEps || f.RemainingDelta != p.RemainingDelta ||
		f.Releases != p.Releases || !reflect.DeepEqual(f.SpendByEpoch, p.SpendByEpoch) {
		t.Fatalf("follower stats differ from the primary's:\n  primary:  %+v\n  follower: %+v", p, f)
	}
}

// rewritingProxy serves a proxy of primary that passes every 200
// response body of a replication endpoint through edit, the fake
// primary the follower tests stream from.
func rewritingProxy(t *testing.T, primary *httptest.Server, edit func(path string, body []byte) ([]byte, error)) *httptest.Server {
	t.Helper()
	upstream, err := url.Parse(primary.URL)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(upstream)
	proxy.ModifyResponse = func(resp *http.Response) error {
		path := resp.Request.URL.Path
		if !strings.HasPrefix(path, "/v1/replication/") || resp.StatusCode != http.StatusOK {
			return nil
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if raw, err = edit(path, raw); err != nil {
			return err
		}
		resp.Body = io.NopCloser(bytes.NewReader(raw))
		resp.ContentLength = int64(len(raw))
		resp.Header.Set("Content-Length", strconv.Itoa(len(raw)))
		return nil
	}
	hs := httptest.NewServer(proxy)
	t.Cleanup(hs.Close)
	return hs
}

// TestFollowerHaltsOnAlteredBatch: a follower whose shipped batch
// differs from the records the primary's digest was computed over — a
// proxy raises the ε of the first spend in every stream batch — halts
// at the digest record: /readyz reports diverged, and promotion is
// refused.
func TestFollowerHaltsOnAlteredBatch(t *testing.T) {
	_, primary := openDurable(t, t.TempDir(), 1, Options{NoiseSeed: 7, AdminKey: keyAdmin}, nil)
	for seq := 0; seq < digestEveryDefault; seq++ {
		body := fmt.Sprintf(`{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5,"seq":%d}`, seq)
		if status, raw := do(t, primary, "POST", "/v1/release", keyAlpha, body); status != http.StatusOK {
			t.Fatalf("release %d = %d: %s", seq, status, raw)
		}
	}
	tampering := rewritingProxy(t, primary, func(path string, raw []byte) ([]byte, error) {
		if path != "/v1/replication/stream" {
			return raw, nil
		}
		var batch replStreamJSON
		if err := json.Unmarshal(raw, &batch); err != nil {
			return nil, err
		}
		for i, rec := range batch.Records {
			if rec[0] == recSpend {
				batch.Records[i] = raiseSpendEps(rec)
				break
			}
		}
		return json.Marshal(batch)
	})

	_, follower := startFollower(t, tampering, 1, nil)
	waitFor(t, "the follower to halt as diverged", func() bool {
		_, body := do(t, follower, "GET", "/readyz", "", "")
		return bytes.Contains(body, []byte(`"state":"diverged"`))
	})
	if st := replStatus(t, follower); !strings.Contains(st.Diverged, "state digest mismatch") {
		t.Fatalf("follower diverged with %q, want a state digest mismatch", st.Diverged)
	}
	if status, body := do(t, follower, "POST", "/v1/admin/promote", keyAdmin, ""); status != http.StatusConflict {
		t.Fatalf("promoting the diverged follower = %d: %s, want 409", status, body)
	}
}

// TestFollowerRefusesOtherArch: a follower checks the architecture its
// primary reports in the snapshot and stream responses. A primary that
// reports none (a version before the field) is mirrored as usual; one
// that reports another GOARCH halts the follower before it installs
// anything: /readyz reports diverged, naming both architectures, and
// promotion is refused.
func TestFollowerRefusesOtherArch(t *testing.T) {
	other := "arm64"
	if runtime.GOARCH == other {
		other = "amd64"
	}
	setArch := func(arch string) func(string, []byte) ([]byte, error) {
		return func(_ string, raw []byte) ([]byte, error) {
			var body map[string]json.RawMessage
			if err := json.Unmarshal(raw, &body); err != nil {
				return nil, err
			}
			if _, ok := body["arch"]; !ok {
				return nil, fmt.Errorf("replication response carries no arch: %s", raw)
			}
			delete(body, "arch")
			if arch != "" {
				body["arch"] = json.RawMessage(strconv.Quote(arch))
			}
			return json.Marshal(body)
		}
	}
	release := func(hs *httptest.Server) {
		t.Helper()
		if status, body := do(t, hs, "POST", "/v1/release", keyAlpha,
			`{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5,"seq":0}`); status != http.StatusOK {
			t.Fatalf("release = %d: %s", status, body)
		}
	}

	t.Run("omitted", func(t *testing.T) {
		_, primary := openDurable(t, t.TempDir(), 1, Options{NoiseSeed: 7, AdminKey: keyAdmin}, nil)
		release(primary)
		_, follower := startFollower(t, rewritingProxy(t, primary, setArch("")), 1, nil)
		waitMirrored(t, primary, follower)
	})

	t.Run("other", func(t *testing.T) {
		_, primary := openDurable(t, t.TempDir(), 1, Options{NoiseSeed: 7, AdminKey: keyAdmin}, nil)
		release(primary)
		_, follower := startFollower(t, rewritingProxy(t, primary, setArch(other)), 1, nil)
		waitFor(t, "the follower to halt as diverged", func() bool {
			_, body := do(t, follower, "GET", "/readyz", "", "")
			return bytes.Contains(body, []byte(`"state":"diverged"`))
		})
		st := replStatus(t, follower)
		if !strings.Contains(st.Diverged, other) || !strings.Contains(st.Diverged, runtime.GOARCH) {
			t.Fatalf("follower diverged with %q, want both %s and %s named", st.Diverged, other, runtime.GOARCH)
		}
		if st.Gen != 0 || st.AppliedRecords != 0 {
			t.Fatalf("follower installed the primary's state before refusing it: %+v", st)
		}
		if status, body := do(t, follower, "POST", "/v1/admin/promote", keyAdmin, ""); status != http.StatusConflict {
			t.Fatalf("promoting the diverged follower = %d: %s, want 409", status, body)
		}
	})
}
