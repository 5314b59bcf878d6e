package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/lodes"
	"repro/internal/table"
)

// serveSpec is a serving workload: a durable server child at one data
// scale, a warm pass, and timed open-loop rounds, the last of which may
// carry admin advances.
type serveSpec struct {
	name     string
	scale    string
	rate     float64    // open-loop requests per second
	rounds   int        // timed rounds, each seconds/rounds long
	quarters int        // admin advances spread evenly over the last round
	warm     [][]string // the warm pass, in order
	choices  [][]string // what timed requests draw from
	zipf     float64    // popularity exponent over choices; 0 is uniform
}

// Open-loop rates, requests/s. At 1000/s serve-hot's one fsync per
// release saturated the disk of the recording host.
const (
	hotRate  = 500
	wideRate = 200
)

// runServeHot: test-scale data, Zipf(1.1) over ereeload's catalog. After
// the warm pass every truth is a cache hit, so time goes to HTTP, auth,
// noise, the accountant and the WAL.
func runServeHot(e *env) (*outcome, error) {
	return runServe(e, serveSpec{
		name: "serve-hot", scale: "test", rate: hotRate, rounds: e.prof.rounds,
		warm: catalog(), choices: catalog(), zipf: 1.1,
	})
}

// runAdvanceWide: default-scale data, requests uniform over every
// request-order spelling of every 1–3-attribute set, and calibrated
// quarterly advances under that load.
func runAdvanceWide(e *env) (*outcome, error) {
	all := spellings(lodes.NewSchema(dataConfig(e.prof.wideScale).NumPlaces))
	return runServe(e, serveSpec{
		name: "advance-wide", scale: e.prof.wideScale, rate: wideRate, rounds: 1,
		quarters: e.prof.quarters, warm: all, choices: all,
	})
}

// deltaSeed roots the admin-advance delta chain of a run: quarter q of a
// server's lifetime draws from deltaSeed(seed)+q.
func deltaSeed(seed int64) int64 { return 1000 * seed }

// roundPlan is round r's requests: seqs start at (r+1)·10⁶, so no timed
// request can be served from the replay cache of an earlier one.
func roundPlan(e *env, sp serveSpec, schema *table.Schema, r int) ([]request, error) {
	n := int(sp.rate * e.prof.seconds / float64(sp.rounds))
	return plan(schema, dist.NewStreamFromSeed(e.seed).SplitIndex(sp.name, r), sp.choices, sp.zipf,
		int64(r+1)*1_000_000, n)
}

// preroll is the untimed traffic between the warm pass and the timed
// rounds: requests drawn like the rounds', with seqs from 500 000.
func preroll(e *env, sp serveSpec, schema *table.Schema) ([]request, error) {
	return plan(schema, dist.NewStreamFromSeed(e.seed).Split(sp.name+"/preroll"), sp.choices, sp.zipf, 500_000, e.prof.preroll)
}

// advanceDue is when admin advance j (0-based) of a round is due,
// relative to the round's start: evenly spaced, none at either end.
func advanceDue(sp serveSpec, round time.Duration, j int) time.Duration {
	return round * time.Duration(j+1) / time.Duration(sp.quarters+1)
}

func runServe(e *env, sp serveSpec) (*outcome, error) {
	o := newOutcome()
	schema := lodes.NewSchema(dataConfig(sp.scale).NumPlaces)
	warm, err := sequential(schema, sp.warm, 0)
	if err != nil {
		return nil, err
	}
	c := newClient()
	defer c.close()

	// Set up several times — exec to /readyz, then the warm pass — and
	// keep the last server.
	var setups []float64
	var srv *serverChild
	for k := 0; srv == nil; k++ {
		child, err := startServer(sp.scale, filepath.Join(e.rundir, fmt.Sprintf("state-%d", k)), deltaSeed(e.seed))
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		for _, r := range warm {
			o.count(c.release(child.base, r, false).ok)
		}
		setups = append(setups, (child.boot + time.Since(t0)).Seconds())
		if e.prof.enoughSetups(setups) {
			srv = child
		} else if err := child.stop(); err != nil {
			return nil, err
		}
	}
	defer srv.kill()
	heapWarm, err := srv.heapInuseMiB()
	if err != nil {
		return nil, err
	}

	clients := make([]*client, e.senders)
	for i := range clients {
		clients[i] = newClient()
		defer clients[i].close()
	}
	// Pre-roll, untimed: fill the per-tenant replay-dedup ring, whose
	// size sets the cost of the journal's periodic state digests, so the
	// timed rounds run in steady state.
	pre, err := preroll(e, sp, schema)
	if err != nil {
		return nil, err
	}
	o.batch(len(pre), closedLoop(len(pre), e.senders, func(w, i int) bool {
		return clients[w].release(srv.base, pre[i], false).ok
	}))

	admin := newClient()
	defer admin.close()
	var lats, lates, advances []float64
	var genCPU, srvCPU time.Duration
	var done int
	var patches, evictions int64
	for r := 0; r < sp.rounds; r++ {
		reqs, err := roundPlan(e, sp, schema, r)
		if err != nil {
			return nil, err
		}
		before, err := c.stats(srv.base)
		if err != nil {
			return nil, err
		}
		answers := make([]answer, len(reqs))
		cpu0, err := cpuTime(srv.pid())
		if err != nil {
			return nil, err
		}
		g0 := selfCPU()
		var wg sync.WaitGroup
		if r == sp.rounds-1 && sp.quarters > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				round := time.Duration(e.prof.seconds / float64(sp.rounds) * float64(time.Second))
				start := time.Now()
				for j := 0; j < sp.quarters; j++ {
					due := start.Add(advanceDue(sp, round, j))
					time.Sleep(time.Until(due))
					p, ev, err := admin.advance(srv.base)
					o.gate(err == nil, "advance %d: %v", j, err)
					advances = append(advances, ms(time.Since(due)))
					patches += p
					evictions += ev
				}
			}()
		}
		lat, late := openLoop(len(reqs), sp.rate, e.senders, func(s, i int) {
			answers[i] = clients[s].release(srv.base, reqs[i], false)
		})
		wg.Wait()
		genCPU += selfCPU() - g0
		cpu1, err := cpuTime(srv.pid())
		if err != nil {
			return nil, err
		}
		srvCPU += cpu1 - cpu0
		after, err := c.stats(srv.base)
		if err != nil {
			return nil, err
		}
		spendGate(o, fmt.Sprintf("%s round %d", sp.name, r), before, after, answers)
		for i, a := range answers {
			ok := a.ok && a.epoch <= after.Epoch
			o.count(ok)
			if !ok {
				// A failed request counts as missing every latency limit.
				lat[i] = time.Hour
			} else {
				done++
			}
			lats = append(lats, ms(lat[i]))
			lates = append(lates, ms(late[i]))
		}
	}
	if sp.quarters > 0 {
		o.gate(len(advances) == sp.quarters, "%d of %d advances ran", len(advances), sp.quarters)
	}
	// The replay gate needs answers from the final epoch: a fresh batch.
	gate, err := plan(schema, dist.NewStreamFromSeed(e.seed).Split(sp.name+"/replay"), sp.choices, sp.zipf, 900_000, e.prof.replays)
	if err != nil {
		return nil, err
	}
	first := make([]answer, len(gate))
	for i, r := range gate {
		first[i] = c.release(srv.base, r, true)
		o.count(first[i].ok)
	}
	if err := replayGate(o, c, srv.base, gate, first); err != nil {
		return nil, err
	}
	final, err := c.stats(srv.base)
	if err != nil {
		return nil, err
	}
	o.gate(final.Epoch == sp.quarters, "server ended at epoch %d, want %d", final.Epoch, sp.quarters)
	rss, err := peakRSSMiB(srv.pid())
	if err != nil {
		return nil, err
	}
	heapChain, err := srv.heapInuseMiB()
	if err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}

	o.e2e["setup_s"] = median(setups)
	o.e2e["latency_p50_ms"] = median(lats)
	// The tail is the 95th percentile: the 99th, with ~100 samples beyond
	// it, moved by more than the widest bound between runs.
	o.e2e["latency_tail_ms"] = quantile(lats, 0.95)
	o.e2e["cpu_ms_per_op"] = ms(srvCPU) / float64(max(done, 1))
	o.e2e["peak_rss_mib"] = rss
	o.note("%s", setupNote(setups))
	o.note("%d timed requests in %d round(s) at %g/s after a %d-request pre-roll; %d answered; p95 %.3f ms, p99 %.3f ms, p99.9 %.3f ms",
		len(lats), sp.rounds, sp.rate, len(pre), done, quantile(lats, 0.95), quantile(lats, 0.99), quantile(lats, 0.999))
	o.note("generator: late p99 %.3f ms, CPU %.1f us/request", quantile(lates, 0.99), us(genCPU)/float64(len(lats)))
	if sp.quarters > 0 {
		o.note("admin advances (ms from due): %s; median %.1f, max %.1f; cache patches %d, evictions %d",
			fmtList(advances, "%.0f"), median(advances), quantile(advances, 1), patches, evictions)
	}
	hits, misses, patched, evicted := cacheTotals(final)
	o.note("/v1/stats cache over all epochs: hits %.0f, misses %.0f, patches %.0f, evictions %.0f", hits, misses, patched, evicted)
	o.note("server heap in use: %.1f MiB after warm-up, %.1f MiB at the end", heapWarm, heapChain)

	if !e.trace {
		return o, nil
	}
	o.layer["net.client_p99_ms"] = quantile(lats, 0.99)
	o.layer["gen.late_p99_ms"] = quantile(lates, 0.99)
	o.layer["gen.cpu_us_per_req"] = us(genCPU) / float64(len(lats))
	o.layer["stats.cache_hits"] = hits
	o.layer["stats.cache_misses"] = misses
	o.layer["stats.cache_patches"] = patched
	o.layer["stats.cache_evictions"] = evicted
	o.layer["mem.heap_inuse_mib_warm"] = heapWarm
	o.layer["mem.heap_inuse_mib_chain"] = heapChain
	if err := traceServe(e, sp, o); err != nil {
		return nil, err
	}
	o.layer["net.residual_us"] = 1000*o.e2e["latency_p50_ms"] - o.layer["server.handle_us_p50"]
	return o, nil
}

// setupNote summarises a run's set-up times.
func setupNote(setups []float64) string {
	return fmt.Sprintf("setup_s over %d set-ups: min %.4f, median %.4f, max %.4f",
		len(setups), quantile(setups, 0), median(setups), quantile(setups, 1))
}

// fmtList formats values for a note.
func fmtList(xs []float64, verb string) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf(verb, x)
	}
	return s
}
