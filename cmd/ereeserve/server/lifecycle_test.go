package server

// Graceful-degradation tests: drain semantics (in-flight requests
// complete, new ones are refused), admin-advance/shutdown atomicity,
// load shedding, and the readiness probe's state machine.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// startService boots a durable server on a real socket.
func startService(t *testing.T, dir string, opts Options, ro RunOptions) (*Server, *Service) {
	t.Helper()
	opts.StateDir = dir
	srv, err := Open(core.NewPublisher(testDataset(t, 1)), testRegistry(t, nil), opts)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := srv.Start("127.0.0.1:0", ro)
	if err != nil {
		t.Fatal(err)
	}
	return srv, svc
}

// sendPartial opens a raw connection and sends a request's headers plus
// the first part of its body, leaving the handler blocked mid-read.
func sendPartial(t *testing.T, addr, path, key, body string, holdBack int) (net.Conn, string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: x\r\n%s: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		path, apiKeyHeader, key, len(body))
	sent := body[:len(body)-holdBack]
	if _, err := io.WriteString(conn, head+sent); err != nil {
		t.Fatal(err)
	}
	return conn, body[len(body)-holdBack:]
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestGracefulDrain: a request already being read when shutdown begins
// completes — full status line and full body — while a connection
// attempted after the drain starts is refused. The drain must also
// outlive the request: Shutdown returns only after the response is
// written and then closes the accounting store, so no charge can race
// the close.
func TestGracefulDrain(t *testing.T) {
	srv, svc := startService(t, t.TempDir(), Options{NoiseSeed: 7}, RunOptions{})
	body := `{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5,"seq":1}`
	conn, rest := sendPartial(t, svc.Addr(), "/v1/release", keyAlpha, body, 8)
	defer conn.Close()
	waitFor(t, "handler to go in-flight", func() bool { return srv.inflight.Load() >= 1 })

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		shutdownDone <- svc.Shutdown(ctx)
	}()
	waitFor(t, "drain to begin", func() bool { return srv.state.Load() == stateDraining })

	// New connections are refused once the listener is down. The
	// listener closes inside http.Server.Shutdown, a hair after the
	// state flip, so allow the handful of instants in between.
	waitFor(t, "listener teardown", func() bool {
		c, err := net.DialTimeout("tcp", svc.Addr(), time.Second)
		if err != nil {
			return true
		}
		c.Close()
		return false
	})

	// The held request now completes and gets its full response.
	if _, err := io.WriteString(conn, rest); err != nil {
		t.Fatalf("completing in-flight body: %v", err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("reading in-flight response during drain: %v", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading drained response body: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request during drain = %d: %s", resp.StatusCode, raw)
	}
	if len(raw) == 0 || raw[len(raw)-1] != '\n' {
		t.Fatalf("drained response body truncated: %q", raw)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-svc.Done(); err != nil {
		t.Fatalf("serve loop: %v", err)
	}
}

// TestAdvanceShutdownAtomicity: an admin advance in flight when the
// drain starts runs to completion — and is durably logged — before the
// store closes; recovery then sees the whole advance, never a half.
func TestAdvanceShutdownAtomicity(t *testing.T) {
	dir := t.TempDir()
	opts := Options{NoiseSeed: 7, AdminKey: keyAdmin, DeltaSeed: 100}
	srv, svc := startService(t, dir, opts, RunOptions{})
	conn, rest := sendPartial(t, svc.Addr(), "/v1/admin/advance", keyAdmin, `{"quarters":1}`, 2)
	defer conn.Close()
	waitFor(t, "advance to go in-flight", func() bool { return srv.inflight.Load() >= 1 })

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- svc.Shutdown(ctx)
	}()
	waitFor(t, "drain to begin", func() bool { return srv.state.Load() == stateDraining })

	if _, err := io.WriteString(conn, rest); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("reading advance response during drain: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight advance during drain = %d: %s", resp.StatusCode, raw)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Recovery sees the completed advance: publisher and every tenant
	// ledger at epoch 1.
	srv2, err := Open(core.NewPublisher(testDataset(t, 1)), testRegistry(t, nil), Options{
		NoiseSeed: 7, AdminKey: keyAdmin, DeltaSeed: 100, StateDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.closePersistent()
	if got := srv2.pub.Epoch(); got != 1 {
		t.Fatalf("recovered epoch = %d, want 1 (advance completed before shutdown)", got)
	}
	if got := tenantOf(t, srv2, "alpha").Acct.Epoch(); got != 1 {
		t.Fatalf("recovered tenant ledger epoch = %d, want 1", got)
	}
}

// TestDrainRefusesNewAdvance: an advance that arrives after the drain
// begins is refused with 503 — it can never interleave with the
// store's compaction and close.
func TestDrainRefusesNewAdvance(t *testing.T) {
	srv, hs := newTestServer(t, 1, Options{NoiseSeed: 7, AdminKey: keyAdmin}, nil)
	srv.beginDrain()
	status, body := do(t, hs, "POST", "/v1/admin/advance", keyAdmin, `{"quarters":1}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("advance during drain = %d (%s), want 503", status, body)
	}
	if !strings.Contains(string(body), "draining") {
		t.Fatalf("drain refusal body = %s", body)
	}
}

// TestLoadShedding: with one in-flight slot, a request held in its
// handler causes the next one to be shed with 503 + Retry-After instead
// of queueing behind it; the slot frees once the first completes.
func TestLoadShedding(t *testing.T) {
	srv := New(core.NewPublisher(testDataset(t, 1)), testRegistry(t, nil), Options{NoiseSeed: 7})
	srv.maxInFlight = 1
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	// Hold a request in-flight: stream its body through a pipe the
	// handler blocks reading.
	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", hs.URL+"/v1/release", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(apiKeyHeader, keyAlpha)
	type result struct {
		status int
		err    error
	}
	first := make(chan result, 1)
	go func() {
		resp, err := hs.Client().Do(req)
		if err != nil {
			first <- result{0, err}
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		first <- result{resp.StatusCode, nil}
	}()
	waitFor(t, "first request to hold its slot", func() bool { return srv.inflight.Load() >= 1 })

	shedReq, err := http.NewRequest("POST", hs.URL+"/v1/release",
		strings.NewReader(`{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	shedReq.Header.Set(apiKeyHeader, keyAlpha)
	resp, err := hs.Client().Do(shedReq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity request = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}

	// Release the held request; its slot frees and serving resumes.
	io.WriteString(pw, `{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5}`)
	pw.Close()
	r := <-first
	if r.err != nil || r.status != http.StatusOK {
		t.Fatalf("held request = (%d, %v), want 200", r.status, r.err)
	}
	status, _ := do(t, hs, "POST", "/v1/release", keyAlpha,
		`{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5}`)
	if status != http.StatusOK {
		t.Fatalf("request after slot freed = %d, want 200", status)
	}
}

// TestReadyzStateMachine: /readyz tracks the lifecycle — 503 while
// starting, 200 when ready, 503 once draining — while /healthz stays
// 200 throughout (liveness is not readiness).
func TestReadyzStateMachine(t *testing.T) {
	srv, hs := newTestServer(t, 1, Options{NoiseSeed: 7}, nil)

	probe := func(path string) (int, string) {
		status, body := do(t, hs, "GET", path, "", "")
		return status, string(body)
	}
	if status, body := probe("/readyz"); status != http.StatusOK || !strings.Contains(body, `"ready":true`) {
		t.Fatalf("ready server /readyz = %d %s", status, body)
	}

	srv.state.Store(stateStarting)
	if status, body := probe("/readyz"); status != http.StatusServiceUnavailable || !strings.Contains(body, "starting") {
		t.Fatalf("starting server /readyz = %d %s", status, body)
	}
	if status, _ := probe("/healthz"); status != http.StatusOK {
		t.Fatalf("starting server /healthz = %d, want 200 (alive)", status)
	}
	// Release traffic is refused while starting.
	if status, _ := do(t, hs, "POST", "/v1/release", keyAlpha,
		`{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5}`); status != http.StatusServiceUnavailable {
		t.Fatalf("release while starting = %d, want 503", status)
	}

	srv.state.Store(stateReady)
	srv.beginDrain()
	if status, body := probe("/readyz"); status != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining server /readyz = %d %s", status, body)
	}
	if status, _ := probe("/healthz"); status != http.StatusOK {
		t.Fatalf("draining server /healthz = %d, want 200 (alive)", status)
	}
}

// TestRequestDeadline: the withTimeout wrapper cuts off a handler that
// exceeds RequestTimeout with 503 — one slow request cannot pin its
// in-flight slot past the deadline.
func TestRequestDeadline(t *testing.T) {
	srv := New(core.NewPublisher(testDataset(t, 1)), testRegistry(t, nil), Options{NoiseSeed: 7})
	srv.reqTimeout = 20 * time.Millisecond
	release := make(chan struct{})
	slow := srv.withTimeout(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer close(release)
	rec := httptest.NewRecorder()
	slow.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/release", strings.NewReader("{}")))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("over-deadline handler = %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "deadline") {
		t.Fatalf("deadline body = %q", rec.Body.String())
	}
}

// TestReadTimeoutReclaimsStalledBody: a client that sends headers and
// then stalls its body is cut loose by the socket's ReadTimeout — the
// server closes the connection instead of holding it (and, with
// shedding, its slot) forever.
func TestReadTimeoutReclaimsStalledBody(t *testing.T) {
	srv, svc := startService(t, t.TempDir(), Options{NoiseSeed: 7}, RunOptions{ReadTimeout: 100 * time.Millisecond})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	}()
	body := `{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5}`
	conn, _ := sendPartial(t, svc.Addr(), "/v1/release", keyAlpha, body, 8)
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	// The server must terminate the exchange (close or error response)
	// well before our 10s guard; a hung read here means no timeout fired.
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("waiting for server to reclaim stalled connection: %v", err)
	}
	waitFor(t, "stalled request's slot to free", func() bool { return srv.inflight.Load() == 0 })
}
