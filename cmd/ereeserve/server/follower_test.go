package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
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
