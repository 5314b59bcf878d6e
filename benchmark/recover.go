package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/lodes"
	"repro/internal/table"
	"repro/internal/wal"
)

// runRecover fills a durable default-scale server with spend records and
// calibrated quarters, kills it with SIGKILL, and times restarts over
// copies of its state directory: exec to /readyz 200, through WAL
// recovery and lineage replay. Set-up is a boot over an empty state
// directory.
func runRecover(e *env) (*outcome, error) {
	o := newOutcome()
	scale := e.prof.wideScale
	schema := lodes.NewSchema(dataConfig(scale).NumPlaces)

	var setups []float64
	var srv *serverChild
	var fillDir string
	for k := 0; srv == nil; k++ {
		dir := filepath.Join(e.rundir, fmt.Sprintf("fresh-%d", k))
		child, err := startServer(scale, dir, deltaSeed(e.seed))
		if err != nil {
			return nil, err
		}
		setups = append(setups, child.boot.Seconds())
		if e.prof.enoughSetups(setups) {
			srv, fillDir = child, dir
		} else if err := child.stop(); err != nil {
			return nil, err
		}
	}
	defer srv.kill()

	c := newClient()
	start, err := c.stats(srv.base)
	if err != nil {
		return nil, err
	}
	reqs, answers, all, err := fillChild(e, o, srv.base, schema)
	if err != nil {
		return nil, err
	}
	before, err := c.stats(srv.base)
	if err != nil {
		return nil, err
	}
	c.close()
	spendGate(o, "fill", start, before, all)
	o.gate(before.Epoch == e.prof.quarters, "filled server at epoch %d, want %d", before.Epoch, e.prof.quarters)
	heapChain, err := srv.heapInuseMiB()
	if err != nil {
		return nil, err
	}
	srv.kill()

	var boots, cpus, rss []float64
	for i := 0; i < e.prof.restarts; i++ {
		dir := filepath.Join(e.rundir, fmt.Sprintf("restart-%d", i))
		if err := copyDir(fillDir, dir); err != nil {
			return nil, err
		}
		child, err := startServer(scale, dir, deltaSeed(e.seed))
		o.count(err == nil)
		if err != nil {
			return nil, err
		}
		boots = append(boots, ms(child.boot))
		cpu, err := cpuTime(child.pid())
		if err != nil {
			return nil, err
		}
		cpus = append(cpus, ms(cpu))
		r, err := peakRSSMiB(child.pid())
		if err != nil {
			return nil, err
		}
		rss = append(rss, r)
		c := newClient()
		st, err := c.stats(child.base)
		if err != nil {
			return nil, err
		}
		o.gate(st.SpentEps == before.SpentEps && st.Releases == before.Releases && st.Epoch == before.Epoch,
			"restart %d recovered spend %v, %d releases at epoch %d; before the kill %v, %d at %d",
			i, st.SpentEps, st.Releases, st.Epoch, before.SpentEps, before.Releases, before.Epoch)
		if i == 0 {
			if err := replayGate(o, c, child.base, reqs, answers); err != nil {
				return nil, err
			}
		}
		c.close()
		child.kill()
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}

	o.e2e["setup_s"] = median(setups)
	o.e2e["latency_p50_ms"] = median(boots)
	// The tail is the highest percentile with ten restarts beyond it (the
	// median below 20 restarts).
	o.e2e["latency_tail_ms"] = quantile(boots, max(0.5, 1-10/float64(len(boots))))
	o.e2e["cpu_ms_per_op"] = median(cpus)
	o.e2e["peak_rss_mib"] = median(rss)
	o.note("%s", setupNote(setups))
	o.note("filled with %d spends over %d quarters (%.6g ε spent); restarts (ms): %s; CPU to ready (ms): %s",
		before.Releases, before.Epoch, before.SpentEps, fmtList(boots, "%.0f"), fmtList(cpus, "%.0f"))
	if !e.trace {
		return o, nil
	}
	hits, misses, patches, evictions := cacheTotals(before)
	o.layer["stats.cache_hits"] = hits
	o.layer["stats.cache_misses"] = misses
	o.layer["stats.cache_patches"] = patches
	o.layer["stats.cache_evictions"] = evictions
	o.layer["mem.heap_inuse_mib_chain"] = heapChain
	return o, traceRecover(e, o, schema)
}

// fillChild absorbs the profile's quarters one admin advance at a time,
// each followed by an equal share of the fill's releases from closed-loop
// senders. It returns the replay gate's sample — the last requests of the
// last quarter with their answers, bodies kept — and every answer.
func fillChild(e *env, o *outcome, base string, schema *table.Schema) ([]request, []answer, []answer, error) {
	admin := newClient()
	defer admin.close()
	clients := make([]*client, e.senders)
	for i := range clients {
		clients[i] = newClient()
		defer clients[i].close()
	}
	var reqs []request
	var kept, all []answer
	err := fill(e, schema, func() error {
		_, _, err := admin.advance(base)
		o.count(err == nil)
		return err
	}, func(batch []request, last bool) {
		answers := make([]answer, len(batch))
		keepFrom := len(batch) - e.prof.replays
		closedLoop(len(batch), e.senders, func(w, i int) bool {
			answers[i] = clients[w].release(base, batch[i], last && i >= keepFrom)
			return answers[i].ok
		})
		for _, a := range answers {
			o.count(a.ok)
		}
		all = append(all, answers...)
		if last {
			reqs, kept = batch[keepFrom:], answers[keepFrom:]
		}
	})
	return reqs, kept, all, err
}

// fill drives the recover workload's fill schedule: per quarter, one
// advance, then a batch of Zipf(1.1) catalog releases.
func fill(e *env, schema *table.Schema, advance func() error, send func(batch []request, last bool)) error {
	per := e.prof.fill / e.prof.quarters
	for q := 0; q < e.prof.quarters; q++ {
		if err := advance(); err != nil {
			return err
		}
		batch, err := plan(schema, dist.NewStreamFromSeed(e.seed).SplitIndex("recover", q), catalog(), 1.1,
			int64(1_000_000+q*per), per)
		if err != nil {
			return err
		}
		send(batch, q == e.prof.quarters-1)
	}
	return nil
}

// traceRecover is the recover workload's traced pass: fill an in-process
// server the same way, copy its state directory while idle (every record
// is fsynced, so the copy is what a kill -9 leaves), and time server.Open
// over copies, replaying its stages: wal.Open over another copy, and each
// quarter's GenerateDelta + Advance on a fresh publisher.
func traceRecover(e *env, o *outcome, schema *table.Schema) error {
	scale := e.prof.wideScale
	fillDir := filepath.Join(e.rundir, "trace-fill")
	data, err := generate(scale)
	if err != nil {
		return err
	}
	srv, err := openInProcess(data, fillDir, deltaSeed(e.seed))
	if err != nil {
		return err
	}
	h := srv.Handler()
	failed := 0
	err = fill(e, schema, func() error {
		w := serveInProcess(h, http.MethodPost, "/v1/admin/advance", adminKey, []byte(`{"quarters":1}`))
		_, _, err := parseAdvance(w.Code, w.Body.Bytes())
		return err
	}, func(batch []request, _ bool) {
		failed += closedLoop(len(batch), e.senders, func(_, i int) bool {
			return serveInProcess(h, http.MethodPost, "/v1/release", tenantKey, batch[i].body).Code == http.StatusOK
		})
	})
	if err == nil && failed > 0 {
		err = fmt.Errorf("traced fill: %d releases failed", failed)
	}
	if err != nil {
		return err
	}
	image := filepath.Join(e.rundir, "trace-image")
	if err := errors.Join(copyDir(fillDir, image), closeInProcess(srv)); err != nil {
		return err
	}

	rec := newRecorder()
	deltas := lodes.CalibratedDeltaConfig()
	for i := 0; i < e.prof.restarts; i++ {
		id := int64(i)
		dir, walDir := filepath.Join(e.rundir, "trace-open"), filepath.Join(e.rundir, "trace-wal")
		if err := errors.Join(copyDir(image, dir), copyDir(image, walDir)); err != nil {
			return err
		}
		g0 := rec.now()
		data, err := generate(scale)
		if err != nil {
			return err
		}
		rec.add("lodes.generate", -1, id, g0, rec.now(), data.NumJobs())
		o0 := rec.now()
		srv, err := openInProcess(data, dir, deltaSeed(e.seed))
		o1 := rec.now()
		if err != nil {
			return err
		}
		root := rec.add("server.open", -1, id, o0, o1, 0)

		w0 := rec.now()
		store, recovered, err := wal.Open(walDir, wal.Options{})
		w1 := rec.now()
		if err != nil {
			return err
		}
		if err := store.Close(); err != nil {
			return err
		}
		rec.add("wal.recover", root, id, w0, w1, len(recovered.Records))
		base, err := generate(scale)
		if err != nil {
			return err
		}
		pub := core.NewPublisher(base)
		for q := 0; q < e.prof.quarters; q++ {
			r0 := rec.now()
			dl, err := lodes.GenerateDelta(pub.Dataset(), deltas, dist.NewStreamFromSeed(deltaSeed(e.seed)+int64(q)))
			if err == nil {
				err = pub.Advance(dl)
			}
			if err != nil {
				return err
			}
			rec.add("lodes.replay_quarter", root, id, r0, rec.now(), 0)
		}
		if err := errors.Join(closeInProcess(srv), os.RemoveAll(dir), os.RemoveAll(walDir)); err != nil {
			return err
		}
	}

	ls := rec.layers()
	L := o.layer
	L["server.open_ms"] = durMedian(ls, "server.open", time.Millisecond)
	L["wal.recover_ms"] = durMedian(ls, "wal.recover", time.Millisecond)
	L["wal.records_replayed"] = median(unitsOf(rec, "wal.recover"))
	L["lodes.replay_quarter_ms"] = durMedian(ls, "lodes.replay_quarter", time.Millisecond)
	L["lodes.generate_ms"] = durMedian(ls, "lodes.generate", time.Millisecond)
	return finishTrace(e, o, rec, ls)
}

// unitsOf lists the work units of the named spans.
func unitsOf(rec *recorder, name string) []float64 {
	var out []float64
	for _, s := range rec.spans {
		if s.Name == name {
			out = append(out, float64(s.Units))
		}
	}
	return out
}

// copyDir copies the regular files of a flat directory into a new one.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
