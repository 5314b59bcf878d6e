package main

// Kill-9 chaos harness. The test re-executes this test binary as a
// real ereeserve process (TestMain intercepts via EREE_CHAOS_SERVER),
// arms a crash point via EREE_CRASH (internal/crashpoint), drives a
// fixed request script over real HTTP until the process SIGKILLs
// itself, restarts it over the same state directory, and then acts as
// a well-behaved client: it retries exactly the requests whose
// responses it never fully observed.
//
// Three invariants, checked on every crash schedule:
//
//  1. No lost charges: the recovered spend covers every response the
//     client fully observed before the crash (the write-ahead
//     contract; the safe failure direction is over-charge, never
//     under-charge).
//  2. Budget safety: total recorded spend never exceeds the tenant's
//     budget, across any crash/restart/retry schedule. The script is
//     sized to land exactly on the budget, so any double charge
//     surfaces as a 429 on a later step.
//  3. Determinism through crashes: every response — observed before
//     the crash, replayed after recovery, or charged fresh on retry —
//     is byte-identical to the same step of an uninterrupted run.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the ereeserve process itself:
// with EREE_CHAOS_SERVER=1 it runs main's run() with the args from
// EREE_CHAOS_ARGS instead of any tests. The child therefore carries
// the exact production serving, recovery, and crash-point code paths.
func TestMain(m *testing.M) {
	if os.Getenv("EREE_CHAOS_SERVER") == "1" {
		var args []string
		if err := json.Unmarshal([]byte(os.Getenv("EREE_CHAOS_ARGS")), &args); err != nil {
			fmt.Fprintln(os.Stderr, "chaos server args:", err)
			os.Exit(2)
		}
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		if err := run(args, os.Stdout, sig); err != nil {
			fmt.Fprintln(os.Stderr, "ereeserve:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const (
	chaosTenantKey = "chaos-tenant-key"
	chaosAdminKey  = "chaos-admin-key"
	// chaosBudgetEps is exactly the script's summed loss: 13 charges of
	// eps 0.5. Any step double-charged by a crash bug pushes a later
	// step over budget and fails the run with a 429.
	chaosBudgetEps = 6.5
)

type chaosStep struct {
	name    string
	path    string
	body    string
	eps     float64
	advance bool
}

// chaosScript is the fixed workload: five releases in epoch 0, an
// admin advance, then five releases, an atomic batch and a cell in
// epoch 1. Every request carries an explicit seq so a retry is
// wire-identical to the original.
func chaosScript() []chaosStep {
	steps := make([]chaosStep, 0, 13)
	for i := 0; i < 5; i++ {
		steps = append(steps, chaosStep{
			name: fmt.Sprintf("epoch0-release-%d", i),
			path: "/v1/release",
			body: fmt.Sprintf(`{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5,"seq":%d}`, i),
			eps:  0.5,
		})
	}
	steps = append(steps, chaosStep{
		name:    "advance",
		path:    "/v1/admin/advance",
		body:    `{"quarters":1}`,
		advance: true,
	})
	for i := 0; i < 5; i++ {
		steps = append(steps, chaosStep{
			name: fmt.Sprintf("epoch1-release-%d", i),
			path: "/v1/release",
			body: fmt.Sprintf(`{"attrs":["ownership"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5,"seq":%d}`, 5+i),
			eps:  0.5,
		})
	}
	steps = append(steps, chaosStep{
		name: "batch",
		path: "/v1/batch",
		body: `{"seq":10,"requests":[{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5},{"attrs":["ownership"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5}]}`,
		eps:  1.0,
	})
	steps = append(steps, chaosStep{
		name: "cell",
		path: "/v1/cell",
		body: `{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5,"values":["44-Retail"],"seq":11}`,
		eps:  0.5,
	})
	return steps
}

func writeChaosConfig(t *testing.T, dir string) string {
	t.Helper()
	cfg := fmt.Sprintf(`{
		"addr": "127.0.0.1:0",
		"admin_key": %q,
		"noise_seed": 7,
		"data_seed": 1,
		"delta_seed": 100,
		"tenants": [
			{"name": "chaos", "key": %q, "definition": "weak-er-ee", "alpha": 0.1, "budget_eps": %g, "budget_delta": 0.5}
		]
	}`, chaosAdminKey, chaosTenantKey, chaosBudgetEps)
	path := filepath.Join(dir, "chaos.json")
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// chaosProc is one child ereeserve process.
type chaosProc struct {
	cmd  *exec.Cmd
	out  *syncBuf
	addr string
}

// startChaos boots the re-exec'd server; crash, when non-empty, arms a
// kill point ("name:N" SIGKILLs the process on the Nth hit). extra args
// are appended verbatim (e.g. -replicate-from for a follower).
func startChaos(t *testing.T, cfgPath, stateDir, crash string, extra ...string) *chaosProc {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"-config", cfgPath, "-addr", "127.0.0.1:0", "-state-dir", stateDir}
	args = append(args, extra...)
	raw, _ := json.Marshal(args)
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		"EREE_CHAOS_SERVER=1",
		"EREE_CHAOS_ARGS="+string(raw),
		"EREE_CRASH="+crash,
	)
	out := &syncBuf{}
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &chaosProc{cmd: cmd, out: out}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		if m := listeningRE.FindStringSubmatch(out.String()); m != nil {
			p.addr = m[1]
			break
		}
		if cmd.ProcessState != nil || time.Now().After(deadline) {
			t.Fatalf("chaos server never listened; output:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Serve only after /readyz: recovery must be complete.
	for {
		resp, err := http.Get("http://" + p.addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("chaos server never became ready; output:\n%s", p.out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitKilled waits for the armed crash to fire and asserts the process
// died by SIGKILL (it killed itself at the crash point).
func (p *chaosProc) waitKilled(t *testing.T) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatalf("chaos server exited cleanly, want SIGKILL; output:\n%s", p.out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("chaos server did not die at its crash point; output:\n%s", p.out.String())
	}
}

// stop shuts the child down gracefully and requires a clean exit.
func (p *chaosProc) stop(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown failed: %v; output:\n%s", err, p.out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("graceful shutdown hung; output:\n%s", p.out.String())
	}
}

var chaosClient = &http.Client{Timeout: 10 * time.Second}

// send drives one step. A step counts as observed only if the full
// response body arrived with status 200 — a torn body (mid-response
// kill) or transport error is unobserved and must be retried.
func send(addr string, step chaosStep) (observed bool, body []byte) {
	key := chaosTenantKey
	if step.advance {
		key = chaosAdminKey
	}
	req, err := http.NewRequest("POST", "http://"+addr+step.path, strings.NewReader(step.body))
	if err != nil {
		return false, nil
	}
	req.Header.Set("X-API-Key", key)
	resp, err := chaosClient.Do(req)
	if err != nil {
		return false, nil
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return false, raw
	}
	return true, raw
}

type chaosStats struct {
	SpentEps     float64 `json:"spent_eps"`
	SpentDelta   float64 `json:"spent_delta"`
	RemainingEps float64 `json:"remaining_eps"`
	Releases     int     `json:"releases"`
	Epoch        int     `json:"epoch"`
	SpendByEpoch []struct {
		Epoch    int     `json:"epoch"`
		Eps      float64 `json:"eps"`
		Delta    float64 `json:"delta"`
		Releases int     `json:"releases"`
	} `json:"spend_by_epoch"`
}

func readStats(t *testing.T, addr string) chaosStats {
	t.Helper()
	req, _ := http.NewRequest("GET", "http://"+addr+"/v1/stats", nil)
	req.Header.Set("X-API-Key", chaosTenantKey)
	resp, err := chaosClient.Do(req)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	var st chaosStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	return st
}

func readEpoch(t *testing.T, addr string) int {
	t.Helper()
	resp, err := chaosClient.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer resp.Body.Close()
	var h struct {
		Epoch int `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	return h.Epoch
}

// TestChaosKillRecovery is the crash matrix. Each leg arms one crash
// point, drives the script into the kill, restarts over the same state
// directory, retries the unobserved steps, and checks the three
// invariants against a baseline uninterrupted run.
func TestChaosKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness boots real processes; skipped in -short")
	}
	steps := chaosScript()

	// Baseline: the same script against an uninterrupted server.
	base := t.TempDir()
	cfgPath := writeChaosConfig(t, base)
	baseline := make([][]byte, len(steps))
	var baseStats chaosStats
	{
		proc := startChaos(t, cfgPath, filepath.Join(base, "state"), "")
		for i, step := range steps {
			ok, body := send(proc.addr, step)
			if !ok {
				t.Fatalf("baseline step %s failed: %s", step.name, body)
			}
			baseline[i] = body
		}
		baseStats = readStats(t, proc.addr)
		proc.stop(t)
	}
	if baseStats.SpentEps != chaosBudgetEps {
		t.Fatalf("baseline spent %g, want the exact budget %g", baseStats.SpentEps, chaosBudgetEps)
	}

	// Crash legs. Sync counts are deterministic under this serial
	// client: boot journals the tenant registration (sync 1) and the
	// node's fencing term (sync 2), each charge is one sync, the
	// advance's dataset record is sync 8 (periodic digest records ride
	// in their trigger's group commit, so they add no syncs).
	legs := []struct {
		name  string
		crash string
	}{
		// Charge fsynced, killed before any response byte.
		{"before-response", "serve-before-response:3"},
		// Killed halfway through the response body (torn response).
		{"mid-response", "serve-mid-response:2"},
		// Killed before the spend record's fsync: charge lost with the
		// process, client saw nothing — retry must charge fresh.
		{"before-sync", "wal-before-sync:4"},
		// Killed right after the fsync: charge durable, response lost.
		{"after-sync", "wal-after-sync:5"},
		// Killed after the dataset-advance record was durable but before
		// tenant ledgers advanced: recovery must complete the epoch.
		{"advance-after-record", "advance-after-record:1"},
		// Killed before the dataset-advance record's fsync: the advance
		// must be absent after recovery, and the retry must continue the
		// exact seed lineage.
		{"advance-lost", "wal-before-sync:8"},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			dir := t.TempDir()
			stateDir := filepath.Join(dir, "state")
			proc := startChaos(t, writeChaosConfig(t, dir), stateDir, leg.crash)

			observed := make([]bool, len(steps))
			crashBodies := make([][]byte, len(steps))
			var observedEps float64
			for i, step := range steps {
				observed[i], crashBodies[i] = send(proc.addr, step)
				if observed[i] {
					observedEps += step.eps
				}
			}
			proc.waitKilled(t)

			// Invariant 3 (first half): everything fully observed before
			// the crash matches the uninterrupted run byte for byte.
			for i := range steps {
				if observed[i] && !steps[i].advance && string(crashBodies[i]) != string(baseline[i]) {
					t.Fatalf("step %s observed before crash differs from baseline:\n  crash:    %s\n  baseline: %s",
						steps[i].name, crashBodies[i], baseline[i])
				}
			}

			// Restart over the same state directory.
			proc2 := startChaos(t, writeChaosConfig(t, dir), stateDir, "")
			recovered := readStats(t, proc2.addr)

			// Invariant 1: no observed response without a recovered charge.
			if recovered.SpentEps+1e-9 < observedEps {
				t.Fatalf("recovered spend %g < observed charges %g: a response escaped without a durable record",
					recovered.SpentEps, observedEps)
			}
			// Invariant 2: never over budget.
			if recovered.SpentEps > chaosBudgetEps+1e-9 {
				t.Fatalf("recovered spend %g exceeds budget %g", recovered.SpentEps, chaosBudgetEps)
			}

			// Retry every step whose response was lost. The advance is
			// retried only if its epoch is genuinely absent — a client can
			// see that from /healthz, and re-advancing a recovered epoch
			// would be a new advance, not a retry.
			for i, step := range steps {
				if observed[i] {
					continue
				}
				if step.advance && readEpoch(t, proc2.addr) >= 1 {
					continue
				}
				ok, body := send(proc2.addr, step)
				if !ok {
					t.Fatalf("retry of %s failed after recovery: %s", step.name, body)
				}
				if !step.advance && string(body) != string(baseline[i]) {
					t.Fatalf("retry of %s differs from baseline:\n  retry:    %s\n  baseline: %s",
						step.name, body, baseline[i])
				}
			}

			// Invariant 2 again after the retries, then full convergence:
			// the crashed-and-recovered world ends bit-identical to the
			// uninterrupted one.
			final := readStats(t, proc2.addr)
			if final.SpentEps > chaosBudgetEps+1e-9 {
				t.Fatalf("final spend %g exceeds budget %g", final.SpentEps, chaosBudgetEps)
			}
			if !reflect.DeepEqual(final, baseStats) {
				t.Fatalf("final stats diverge from baseline:\n  final:    %+v\n  baseline: %+v", final, baseStats)
			}
			proc2.stop(t)
		})
	}
}

// --- Two-node failover chaos ---------------------------------------

// chaosReplStatus mirrors the /v1/replication/status body.
type chaosReplStatus struct {
	Role           string `json:"role"`
	Term           uint64 `json:"term"`
	Fenced         bool   `json:"fenced"`
	DurableRecords uint64 `json:"durable_records"`
	AppliedRecords uint64 `json:"applied_records"`
	LagRecords     int64  `json:"replication_lag_records"`
	StateDigest    string `json:"state_digest"`
	Diverged       string `json:"diverged"`
}

func readReplStatus(t *testing.T, addr string) chaosReplStatus {
	t.Helper()
	req, _ := http.NewRequest("GET", "http://"+addr+"/v1/replication/status", nil)
	req.Header.Set("X-API-Key", chaosAdminKey)
	resp, err := chaosClient.Do(req)
	if err != nil {
		t.Fatalf("replication status: %v", err)
	}
	defer resp.Body.Close()
	var st chaosReplStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("replication status decode: %v", err)
	}
	return st
}

// chaosReady mirrors the /readyz body.
type chaosReady struct {
	Ready bool   `json:"ready"`
	State string `json:"state"`
	Role  string `json:"role"`
	Term  uint64 `json:"term"`
	Lag   int64  `json:"replication_lag_records"`
}

func readReady(t *testing.T, addr string) chaosReady {
	t.Helper()
	resp, err := chaosClient.Get("http://" + addr + "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	defer resp.Body.Close()
	var rd chaosReady
	if err := json.NewDecoder(resp.Body).Decode(&rd); err != nil {
		t.Fatalf("readyz decode: %v", err)
	}
	return rd
}

// sendCode is send for steps whose refusal is the point: it returns
// the HTTP status (0 on transport error) and the raw body.
func sendCode(addr string, step chaosStep) (int, []byte) {
	key := chaosTenantKey
	if step.advance {
		key = chaosAdminKey
	}
	req, err := http.NewRequest("POST", "http://"+addr+step.path, strings.NewReader(step.body))
	if err != nil {
		return 0, nil
	}
	req.Header.Set("X-API-Key", key)
	resp, err := chaosClient.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

// waitCaughtUp holds the script until the follower has applied every
// record the primary has made durable — the precondition that every
// observed response is already replicated, so a promotion after the
// next kill cannot lose a charge the client saw.
func waitCaughtUp(t *testing.T, primary, follower string) {
	t.Helper()
	want := readReplStatus(t, primary).DurableRecords
	deadline := time.Now().Add(20 * time.Second)
	for {
		st := readReplStatus(t, follower)
		if st.Diverged != "" {
			t.Fatalf("follower diverged: %s", st.Diverged)
		}
		if st.AppliedRecords >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: applied %d, want %d", st.AppliedRecords, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// promote drives POST /v1/admin/promote and decodes the result.
func promote(t *testing.T, addr string) (role string, term uint64) {
	t.Helper()
	req, _ := http.NewRequest("POST", "http://"+addr+"/v1/admin/promote", nil)
	req.Header.Set("X-API-Key", chaosAdminKey)
	resp, err := chaosClient.Do(req)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: %s: %s", resp.Status, raw)
	}
	var pr struct {
		Role string `json:"role"`
		Term uint64 `json:"term"`
	}
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatalf("promote decode: %v", err)
	}
	return pr.Role, pr.Term
}

// fenceProbe shows a node a foreign fencing term via the replication
// stream endpoint and returns the response.
func fenceProbe(addr string, term uint64) (int, []byte) {
	req, err := http.NewRequest("GET", "http://"+addr+"/v1/replication/stream?gen=1&offset=0", nil)
	if err != nil {
		return 0, nil
	}
	req.Header.Set("X-API-Key", chaosAdminKey)
	req.Header.Set("X-Eree-Term", fmt.Sprintf("%d", term))
	resp, err := chaosClient.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

// killNow SIGKILLs the child and reaps it — a machine failure with no
// chance to flush anything not already durable.
func (p *chaosProc) killNow(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	p.cmd.Wait()
}

// TestChaosFailover is the two-node crash matrix: a follower mirrors
// the primary while the script runs, the primary SIGKILLs itself at an
// armed crash point, the follower is promoted, and the client retries
// exactly the steps it never observed — against the promoted node. On
// top of the single-node invariants it checks the replication
// contract itself:
//
//   - observed ⊆ replicated: the client moves past a step only after
//     the follower has applied everything the primary made durable, so
//     promotion can never lose a response the client saw;
//   - the promoted world converges: final stats AND the state digest
//     (hex SHA-256 over the canonical accounting state) are
//     byte-for-byte the uninterrupted single-node baseline's;
//   - the deposed primary, restarted and shown the promoted term,
//     fences and refuses writes without spending a thing.
func TestChaosFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness boots real processes; skipped in -short")
	}
	steps := chaosScript()

	// Baseline: the same script against an uninterrupted single node.
	base := t.TempDir()
	baseline := make([][]byte, len(steps))
	var baseStats chaosStats
	var baseDigest string
	{
		proc := startChaos(t, writeChaosConfig(t, base), filepath.Join(base, "state"), "")
		for i, step := range steps {
			ok, body := send(proc.addr, step)
			if !ok {
				t.Fatalf("baseline step %s failed: %s", step.name, body)
			}
			baseline[i] = body
		}
		baseStats = readStats(t, proc.addr)
		baseDigest = readReplStatus(t, proc.addr).StateDigest
		proc.stop(t)
	}
	if baseDigest == "" {
		t.Fatal("baseline reported no state digest")
	}

	// The same crash points as the single-node matrix, now with a live
	// follower to fail over to.
	legs := []struct {
		name  string
		crash string
	}{
		{"before-response", "serve-before-response:3"},
		{"mid-response", "serve-mid-response:2"},
		{"before-sync", "wal-before-sync:4"},
		{"after-sync", "wal-after-sync:5"},
		{"advance-after-record", "advance-after-record:1"},
		{"advance-lost", "wal-before-sync:8"},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := writeChaosConfig(t, dir)
			primary := startChaos(t, cfg, filepath.Join(dir, "primary"), leg.crash)
			follower := startChaos(t, cfg, filepath.Join(dir, "follower"), "",
				"-replicate-from", "http://"+primary.addr)

			// The follower advertises its role on /readyz and sheds spend
			// traffic with a hint to the primary.
			if rd := readReady(t, follower.addr); !rd.Ready || rd.Role != "follower" {
				t.Fatalf("follower readyz: %+v", rd)
			}
			if code, body := sendCode(follower.addr, steps[0]); code != http.StatusServiceUnavailable ||
				!strings.Contains(string(body), primary.addr) {
				t.Fatalf("follower write shed: got %d %s, want 503 with a primary hint", code, body)
			}

			observed := make([]bool, len(steps))
			crashBodies := make([][]byte, len(steps))
			var observedEps float64
			for i, step := range steps {
				observed[i], crashBodies[i] = send(primary.addr, step)
				if observed[i] {
					observedEps += step.eps
					waitCaughtUp(t, primary.addr, follower.addr)
				}
			}
			primary.waitKilled(t)

			// Observed-before-crash responses match the baseline.
			for i := range steps {
				if observed[i] && !steps[i].advance && string(crashBodies[i]) != string(baseline[i]) {
					t.Fatalf("step %s observed before crash differs from baseline:\n  crash:    %s\n  baseline: %s",
						steps[i].name, crashBodies[i], baseline[i])
				}
			}

			// Fail over: the follower becomes the primary at a higher term.
			role, term := promote(t, follower.addr)
			if role != "primary" || term < 2 {
				t.Fatalf("promotion: role %q term %d, want primary at term >= 2", role, term)
			}
			if rd := readReady(t, follower.addr); !rd.Ready || rd.Role != "primary" || rd.Term != term {
				t.Fatalf("promoted readyz: %+v", rd)
			}

			// Invariant 1: no observed response without a replicated charge.
			recovered := readStats(t, follower.addr)
			if recovered.SpentEps+1e-9 < observedEps {
				t.Fatalf("promoted spend %g < observed charges %g: a response the client saw was not replicated",
					recovered.SpentEps, observedEps)
			}
			// Invariant 2: never over budget.
			if recovered.SpentEps > chaosBudgetEps+1e-9 {
				t.Fatalf("promoted spend %g exceeds budget %g", recovered.SpentEps, chaosBudgetEps)
			}

			// Replay the unobserved steps against the promoted node.
			for i, step := range steps {
				if observed[i] {
					continue
				}
				if step.advance && readEpoch(t, follower.addr) >= 1 {
					continue
				}
				ok, body := send(follower.addr, step)
				if !ok {
					t.Fatalf("retry of %s on the promoted node failed: %s", step.name, body)
				}
				if !step.advance && string(body) != string(baseline[i]) {
					t.Fatalf("retry of %s differs from baseline:\n  retry:    %s\n  baseline: %s",
						step.name, body, baseline[i])
				}
			}

			// Full convergence: stats and the state digest are the
			// uninterrupted baseline's, byte for byte.
			final := readStats(t, follower.addr)
			if final.SpentEps > chaosBudgetEps+1e-9 {
				t.Fatalf("final spend %g exceeds budget %g", final.SpentEps, chaosBudgetEps)
			}
			if !reflect.DeepEqual(final, baseStats) {
				t.Fatalf("final stats diverge from baseline:\n  final:    %+v\n  baseline: %+v", final, baseStats)
			}
			if d := readReplStatus(t, follower.addr).StateDigest; d != baseDigest {
				t.Fatalf("promoted state digest %s != baseline %s: the failover world forked", d, baseDigest)
			}

			// The deposed primary comes back from its kill, is shown the
			// promoted term, and must fence: no write, no spend.
			exPrimary := startChaos(t, cfg, filepath.Join(dir, "primary"), "")
			before := readStats(t, exPrimary.addr)
			if code, body := fenceProbe(exPrimary.addr, term); code != http.StatusConflict {
				t.Fatalf("fence probe on the deposed primary: got %d %s, want 409", code, body)
			}
			if code, body := sendCode(exPrimary.addr, steps[0]); code != http.StatusServiceUnavailable ||
				!strings.Contains(string(body), "fenced") {
				t.Fatalf("deposed primary served a write: %d %s", code, body)
			}
			if after := readStats(t, exPrimary.addr); !reflect.DeepEqual(after, before) {
				t.Fatalf("fenced node's accounting moved:\n  before: %+v\n  after:  %+v", before, after)
			}
			exPrimary.stop(t)
			follower.stop(t)
		})
	}
}

// TestChaosFencing pins the fence's durability: a primary that
// observes a higher term journals the fence BEFORE the 409 refusal is
// visible, so not even kill -9 at that exact instant can bring it back
// as a writer. Only an operator promotion — a strictly higher term —
// reopens writes.
func TestChaosFencing(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness boots real processes; skipped in -short")
	}
	steps := chaosScript()
	dir := t.TempDir()
	cfg := writeChaosConfig(t, dir)
	stateDir := filepath.Join(dir, "state")
	proc := startChaos(t, cfg, stateDir, "")
	for _, step := range steps[:3] {
		if ok, body := send(proc.addr, step); !ok {
			t.Fatalf("setup step %s failed: %s", step.name, body)
		}
	}
	before := readStats(t, proc.addr)

	// A replication request carrying a higher term deposes this node.
	const foreignTerm = 7
	if code, body := fenceProbe(proc.addr, foreignTerm); code != http.StatusConflict {
		t.Fatalf("fence probe: got %d %s, want 409", code, body)
	}
	if code, body := sendCode(proc.addr, steps[3]); code != http.StatusServiceUnavailable ||
		!strings.Contains(string(body), "fenced") {
		t.Fatalf("fenced primary served a write: %d %s", code, body)
	}
	if after := readStats(t, proc.addr); !reflect.DeepEqual(after, before) {
		t.Fatalf("fenced node's accounting moved:\n  before: %+v\n  after:  %+v", before, after)
	}
	if st := readReplStatus(t, proc.addr); !st.Fenced || st.Term != foreignTerm {
		t.Fatalf("status after fencing: %+v, want fenced at term %d", st, foreignTerm)
	}

	// kill -9 immediately: the fence record was durable before the 409
	// left the process, so it must survive.
	proc.killNow(t)
	proc = startChaos(t, cfg, stateDir, "")
	if code, body := sendCode(proc.addr, steps[3]); code != http.StatusServiceUnavailable ||
		!strings.Contains(string(body), "fenced") {
		t.Fatalf("fence did not survive kill -9: %d %s", code, body)
	}

	// A graceful cycle too: the fence rides the compacted snapshot.
	proc.stop(t)
	proc = startChaos(t, cfg, stateDir, "")
	if code, body := sendCode(proc.addr, steps[3]); code != http.StatusServiceUnavailable ||
		!strings.Contains(string(body), "fenced") {
		t.Fatalf("fence did not survive a graceful restart: %d %s", code, body)
	}

	// Promotion is the only way back: a strictly higher term, then
	// writes resume and charge normally.
	role, term := promote(t, proc.addr)
	if role != "primary" || term != foreignTerm+1 {
		t.Fatalf("promotion of a fenced primary: role %q term %d, want primary at %d", role, term, foreignTerm+1)
	}
	if ok, body := send(proc.addr, steps[3]); !ok {
		t.Fatalf("writes did not resume after promotion: %s", body)
	}
	if st := readStats(t, proc.addr); st.SpentEps != 2.0 {
		t.Fatalf("spend after resuming: %g, want 2.0 (4 charges of 0.5)", st.SpentEps)
	}
	proc.stop(t)
}
