package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/cmd/ereeserve/config"
	"repro/cmd/ereeserve/server"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/lodes"
	"repro/internal/mech"
	"repro/internal/privacy"
	"repro/internal/table"
	"repro/internal/wal"
)

// The traced pass records spans from the benchmark's own code, around
// calls into each layer. A root span wraps the real call (an in-process
// Handler().ServeHTTP, server.Open, a figure); its child spans are
// replays of the same inputs through the inner layers' public functions,
// run right after it on mirrored state. A span's self time is its
// duration minus the part of it that its children cover, so a root whose
// replays all run after it keeps its whole duration as self time.

// span is one timed call.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced pass began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	Req    int64  `json:"req"`    // id shared by one request's spans
	Units  int    `json:"units,omitempty"`
}

// recorder keeps spans in memory until the pass ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// now is the time since the pass began; a nil recorder records nothing.
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.t0))
}

// add records a finished span and returns its index for children.
func (r *recorder) add(name string, parent int, req, start, end int64, units int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Parent: parent, Req: req, Units: units})
	return len(r.spans) - 1
}

// layerStats is one span name's durations and self times, in ns. less is
// the duration minus every child's whole duration: for a root whose
// children are replays run after it, the time the replayed layers do not
// account for.
type layerStats struct {
	dur, self, less, perUnit []float64
}

// layers groups the spans by name. Children of one span never overlap
// each other, so their overlaps with it add up to the part they cover.
func (r *recorder) layers() map[string]*layerStats {
	self := make([]int64, len(r.spans))
	less := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.End - s.Start
		less[i] += s.End - s.Start
		if s.Parent >= 0 {
			p := r.spans[s.Parent]
			self[s.Parent] -= max(0, min(s.End, p.End)-max(s.Start, p.Start))
			less[s.Parent] -= s.End - s.Start
		}
	}
	out := make(map[string]*layerStats)
	for i, s := range r.spans {
		l := out[s.Name]
		if l == nil {
			l = &layerStats{}
			out[s.Name] = l
		}
		l.dur = append(l.dur, float64(s.End-s.Start))
		l.self = append(l.self, float64(self[i]))
		l.less = append(l.less, float64(less[i]))
		if s.Units > 0 {
			l.perUnit = append(l.perUnit, float64(s.End-s.Start)/float64(s.Units))
		}
	}
	return out
}

// durMedian is the median duration of the named spans in the given unit
// (0 when there are none).
func durMedian(ls map[string]*layerStats, name string, unit time.Duration) float64 {
	if l := ls[name]; l != nil {
		return median(l.dur) / float64(unit)
	}
	return 0
}

// finishTrace writes the spans file and adds the per-layer self-time
// table to the outcome's notes.
func finishTrace(e *env, o *outcome, rec *recorder, ls map[string]*layerStats) error {
	if err := os.MkdirAll(filepath.Dir(e.traceOut), 0o755); err != nil {
		return err
	}
	f, err := os.Create(e.traceOut)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans []span `json:"spans"`
	}{rec.spans}); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	names := make([]string, 0, len(ls))
	for n := range ls {
		names = append(names, n)
	}
	sort.Strings(names)
	o.note("traced pass: %d spans written to %s", len(rec.spans), e.traceOut)
	o.note("%-34s %8s %12s %12s %12s %12s", "span (self: not covered by children)", "n", "dur p50 us", "dur p99 us", "self p50 us", "self p99 us")
	for _, n := range names {
		l := ls[n]
		o.note("%-34s %8d %12.1f %12.1f %12.1f %12.1f", n, len(l.dur),
			median(l.dur)/1e3, quantile(l.dur, 0.99)/1e3, median(l.self)/1e3, quantile(l.self, 0.99)/1e3)
	}
	return nil
}

// spendRecordBytes is the size of the WAL payload of one tagged release
// charge for tenant "alpha" (cmd/ereeserve/server.Persistence.LogSpend):
// kind 1 + name 4+5 + ε 8 + δ 8 + releases 4 + tag flag 1 + seq 8 +
// digest 4+64 + epoch 8.
const spendRecordBytes = 115

// tracedServer is the in-process server of a traced serving pass, with
// the mirrored state its replays run on: a shadow publisher over an
// identically generated dataset that sees the same requests and
// advances, a separate accountant and a separate WAL store.
type tracedServer struct {
	rec       *recorder
	svc       *server.Service
	h         http.Handler
	stateDir  string
	shadow    *core.Publisher
	acct      *privacy.Accountant
	store     *wal.Store
	noise     *dist.Stream
	mech      mech.CellMechanism
	deltas    lodes.DeltaConfig
	deltaSeed int64
	payload   []byte
	viewed    map[string]bool // plan keys whose view build was recorded; advance's alone

	mu       sync.Mutex
	quarters int                     // advances absorbed so far
	spelled  map[string]bool         // request orders the shadow cache holds
	sets     map[string]*table.Query // canonical query per cached attribute set
	cells    map[*table.Marginal][]mech.CellInput
	patches  int64
	evicted  int64
}

// openTracedServer boots the in-process server the way the child does
// (generate, server.Open over a fresh state directory, Start) and builds
// the mirrored state.
func openTracedServer(rec *recorder, scale, dir string, seed int64) (*tracedServer, error) {
	g0 := rec.now()
	data, err := generate(scale)
	if err != nil {
		return nil, err
	}
	rec.add("lodes.generate", -1, 0, g0, rec.now(), data.NumJobs())
	t := &tracedServer{
		rec:       rec,
		stateDir:  filepath.Join(dir, "server"),
		noise:     dist.NewStreamFromSeed(config.Demo().NoiseSeed),
		deltas:    lodes.CalibratedDeltaConfig(),
		deltaSeed: deltaSeed(seed),
		payload:   bytes.Repeat([]byte{0x5a}, spendRecordBytes),
		viewed:    make(map[string]bool),
		spelled:   make(map[string]bool),
		sets:      make(map[string]*table.Query),
		cells:     make(map[*table.Marginal][]mech.CellInput),
	}
	shadowData, err := generate(scale)
	if err != nil {
		return nil, err
	}
	t.shadow = core.NewPublisher(shadowData)
	// The demo tenants' budget, so the replayed charges never run out.
	if t.acct, err = privacy.NewAccountant(privacy.WeakEREE, releaseAlpha, 1e9, 0.5); err != nil {
		return nil, err
	}
	if t.mech, err = mech.NewSmoothGamma(releaseAlpha, releaseEps); err != nil {
		return nil, err
	}
	if t.store, _, err = wal.Open(filepath.Join(dir, "replay-wal"), wal.Options{}); err != nil {
		return nil, err
	}
	srv, err := openInProcess(data, t.stateDir, t.deltaSeed)
	if err == nil {
		// Start before Handler: Start sets the per-request deadline that
		// the production handler chain carries.
		t.svc, err = srv.Start("127.0.0.1:0", server.RunOptions{})
	}
	if err != nil {
		t.store.Close()
		return nil, err
	}
	t.h = srv.Handler()
	return t, nil
}

func (t *tracedServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return errors.Join(t.store.Close(), t.svc.Shutdown(ctx))
}

// serveInProcess runs one request through an in-process handler.
func serveInProcess(h http.Handler, method, path, key string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("X-API-Key", key)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// classify names the truth span a request's replay will record — a hit,
// the first spelling of its attribute set (a canonical miss: scan), or a
// new spelling of a cached set (an alias miss: remap) — and returns the
// canonical query to replay the scan with on a canonical miss.
func (t *tracedServer) classify(attrs []string) (string, *table.Query, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := strings.Join(attrs, ",")
	if t.spelled[key] {
		return "core.truth_hit", nil, nil
	}
	t.spelled[key] = true
	schema := t.shadow.Dataset().Schema()
	idx, err := schema.Resolve(attrs)
	if err != nil {
		return "", nil, err
	}
	sort.Ints(idx)
	names := make([]string, len(idx))
	for i, a := range idx {
		names[i] = schema.Attr(a).Name
	}
	set := strings.Join(names, ",")
	if t.sets[set] != nil {
		return "core.truth_miss_alias", nil, nil
	}
	q, err := table.NewQuery(schema, names...)
	if err != nil {
		return "", nil, err
	}
	t.sets[set] = q
	return "core.truth_miss_canonical", q, nil
}

// cellInputs converts a cached truth once, as the publisher's cache entry
// does, so the noise replay times only ReleaseCells.
func (t *tracedServer) cellInputs(m *table.Marginal) []mech.CellInput {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.cells[m]
	if !ok {
		c = core.CellInputs(m)
		t.cells[m] = c
	}
	return c
}

// release serves one request in process (root span server.handle) and
// replays it: the truth through Publisher.Marginal, the noise through
// mech.ReleaseCells, the charge through Accountant.Spend (together
// core.release), and the journal write through wal.Store.Append.
func (t *tracedServer) release(id int64, r request) error {
	s0 := t.rec.now()
	w := serveInProcess(t.h, http.MethodPost, "/v1/release", tenantKey, r.body)
	s1 := t.rec.now()
	if w.Code != http.StatusOK {
		return fmt.Errorf("traced release seq %d: status %d: %s", r.seq, w.Code, w.Body.Bytes())
	}
	if _, _, err := checkRelease(r, w.Body.Bytes()); err != nil {
		return err
	}
	root := t.rec.add("server.handle", -1, id, s0, s1, 0)

	kind, canon, err := t.classify(r.attrs)
	if err != nil {
		return err
	}
	c0 := t.rec.now()
	m, err := t.shadow.Marginal(r.attrs)
	c1 := t.rec.now()
	if err != nil {
		return err
	}
	cells := t.cellInputs(m)
	n0 := t.rec.now()
	_, err = mech.ReleaseCells(t.mech, cells, t.noise.SplitIndex("req", int(r.seq)))
	n1 := t.rec.now()
	if err != nil {
		return err
	}
	err = t.acct.Spend(r.loss)
	p1 := t.rec.now()
	if err != nil {
		return err
	}
	rel := t.rec.add("core.release", root, id, c0, p1, 0)
	t.rec.add(kind, rel, id, c0, c1, 0)
	t.rec.add("mech.noise", rel, id, n0, n1, len(cells))
	t.rec.add("privacy.spend", rel, id, n1, p1, 0)

	w0 := t.rec.now()
	err = t.store.Append(t.payload)
	t.rec.add("wal.append", root, id, w0, t.rec.now(), 1)
	if err != nil {
		return err
	}
	if canon != nil {
		x0 := t.rec.now()
		t.shadow.Dataset().WorkerFull.Index().Compute(canon)
		t.rec.add("table.scan", -1, id, x0, t.rec.now(), 1)
	}
	return nil
}

// advance absorbs one quarter through the in-process admin endpoint (root
// span server.advance) and replays it on the shadow: GenerateDelta and
// Publisher.Advance as its children, and before the latter the stages of
// an advance — ApplyDelta, MergeIndex, NewPatchFrame, and NewMarginalView
// + ApplyFrame per cached attribute set — as root spans of the same
// request. They are not children of core.advance: the replay applies each
// frame to a freshly built view, which costs more than Advance's patch of
// a maintained one, so subtracting them would misstate its self time.
func (t *tracedServer) advance(id int64) error {
	s0 := t.rec.now()
	w := serveInProcess(t.h, http.MethodPost, "/v1/admin/advance", adminKey, []byte(`{"quarters":1}`))
	s1 := t.rec.now()
	patches, evictions, err := parseAdvance(w.Code, w.Body.Bytes())
	if err != nil {
		return err
	}
	root := t.rec.add("server.advance", -1, id, s0, s1, 0)

	t.mu.Lock()
	seed := t.deltaSeed + int64(t.quarters)
	t.quarters++
	t.patches += patches
	t.evicted += evictions
	qs := make([]*table.Query, 0, len(t.sets))
	for _, q := range t.sets {
		qs = append(qs, q)
	}
	t.mu.Unlock()
	sort.Slice(qs, func(i, j int) bool { return qs[i].PlanKey() < qs[j].PlanKey() })

	base := t.shadow.Dataset()
	g0 := t.rec.now()
	dl, err := lodes.GenerateDelta(base, t.deltas, dist.NewStreamFromSeed(seed))
	g1 := t.rec.now()
	if err != nil {
		return err
	}
	type stage struct {
		name       string
		start, end int64
		units      int
	}
	var stages []stage
	mark := func(name string, start int64, units int) int64 {
		end := t.rec.now()
		stages = append(stages, stage{name, start, end, units})
		return end
	}
	a0 := t.rec.now()
	next, err := base.ApplyDelta(dl)
	if err != nil {
		return err
	}
	a1 := mark("lodes.apply_delta", a0, 0)
	touched, rows, kept := dl.TouchedKept(base)
	baseIx := base.WorkerFull.Index()
	nextIx, err := table.MergeIndex(baseIx, next.WorkerFull, touched, rows)
	if err != nil {
		return err
	}
	a2 := mark("table.merge_index", a1, len(touched))
	frame, err := table.NewPatchFrame(baseIx, nextIx, touched, kept)
	if err != nil {
		return err
	}
	mark("table.patch_frame", a2, len(touched))
	for _, q := range qs {
		// Publisher.Advance builds a set's view once, on the first advance
		// that touches it, and keeps it. Keeping every replay view would
		// hold a third copy of that state, so the replay rebuilds it each
		// quarter and records the build only the first time.
		b0 := t.rec.now()
		v, err := table.NewMarginalView(baseIx, q)
		if err != nil {
			return err
		}
		b1 := t.rec.now()
		if !t.viewed[q.PlanKey()] {
			t.viewed[q.PlanKey()] = true
			stages = append(stages, stage{"table.new_view", b0, b1, q.NumCells()})
		}
		if _, _, err := v.ApplyFrame(frame); err != nil {
			return err
		}
		mark("table.apply_frame", b1, q.NumCells())
	}
	d0 := t.rec.now()
	err = t.shadow.Advance(dl)
	d1 := t.rec.now()
	if err != nil {
		return err
	}
	t.rec.add("lodes.generate_delta", root, id, g0, g1, 0)
	t.rec.add("core.advance", root, id, d0, d1, 0)
	for _, s := range stages {
		t.rec.add(s.name, -1, id, s.start, s.end, s.units)
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.cells)
	if evictions > 0 {
		// The server dropped some truths; which ones is not reported, so
		// the next request of every spelling is classified as a miss.
		clear(t.spelled)
		clear(t.sets)
	}
	return nil
}

// overheadPct measures the recorder's cost: the in-process handle time
// of reqs, each either recorded as a span or not by a coin drawn from s
// (a fixed alternation would alias with periodic disk behaviour), as a
// percentage of the unrecorded median.
func (t *tracedServer) overheadPct(reqs []request, s *dist.Stream) (float64, error) {
	var on, off []float64
	for i, r := range reqs {
		record := s.SplitIndex("coin", i).Float64() < 0.5
		t0 := time.Now()
		s0 := t.rec.now()
		w := serveInProcess(t.h, http.MethodPost, "/v1/release", tenantKey, r.body)
		if record {
			t.rec.add("calibration.handle", -1, r.seq, s0, t.rec.now(), 0)
		}
		d := float64(time.Since(t0))
		if w.Code != http.StatusOK {
			return 0, fmt.Errorf("calibration seq %d: status %d", r.seq, w.Code)
		}
		if record {
			on = append(on, d)
		} else {
			off = append(off, d)
		}
	}
	return 100 * (median(on) - median(off)) / median(off), nil
}

// traceServe is the traced pass of a serving workload: the same warm
// pass, rounds and advance schedule as the end-to-end run, in process.
func traceServe(e *env, sp serveSpec, o *outcome) error {
	rec := newRecorder()
	ts, err := openTracedServer(rec, sp.scale, filepath.Join(e.rundir, "trace"), e.seed)
	if err != nil {
		return err
	}
	defer ts.close()
	schema := ts.shadow.Dataset().Schema()
	warm, err := sequential(schema, sp.warm, 0)
	if err != nil {
		return err
	}
	for _, r := range warm {
		if err := ts.release(r.seq, r); err != nil {
			return err
		}
	}
	// The pre-roll only hits cached truths, so the shadow needs none of it.
	pre, err := preroll(e, sp, schema)
	if err != nil {
		return err
	}
	if failed := closedLoop(len(pre), e.senders, func(_, i int) bool {
		return serveInProcess(ts.h, http.MethodPost, "/v1/release", tenantKey, pre[i].body).Code == http.StatusOK
	}); failed > 0 {
		return fmt.Errorf("traced pre-roll: %d requests failed", failed)
	}
	var advErr error
	for round := 0; round < sp.rounds; round++ {
		reqs, err := roundPlan(e, sp, schema, round)
		if err != nil {
			return err
		}
		var wg sync.WaitGroup
		if round == sp.rounds-1 && sp.quarters > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dur := time.Duration(e.prof.seconds / float64(sp.rounds) * float64(time.Second))
				start := time.Now()
				for j := 0; j < sp.quarters && advErr == nil; j++ {
					time.Sleep(time.Until(start.Add(advanceDue(sp, dur, j))))
					advErr = ts.advance(int64(2_000_000_000 + j))
				}
			}()
		}
		var errMu sync.Mutex
		var relErr error
		openLoop(len(reqs), sp.rate, e.senders, func(_, i int) {
			if err := ts.release(reqs[i].seq, reqs[i]); err != nil {
				errMu.Lock()
				relErr = errors.Join(relErr, err)
				errMu.Unlock()
			}
		})
		wg.Wait()
		if err := errors.Join(relErr, advErr); err != nil {
			return err
		}
	}
	// Calibrate on one small cached marginal, so the two samples differ
	// only in whether the span was recorded.
	calib, err := plan(schema, dist.NewStreamFromSeed(e.seed), [][]string{{lodes.AttrIndustry}}, 0, 1_500_000_000, 2000)
	if err != nil {
		return err
	}
	overhead, err := ts.overheadPct(calib, dist.NewStreamFromSeed(e.seed).Split("calibration"))
	if err != nil {
		return err
	}
	_, walBytes, _ := ts.store.Durable()
	appends, syncs := ts.store.Appends(), ts.store.Syncs()
	serverLog, err := logBytes(ts.stateDir)
	if err != nil {
		return err
	}

	ls := rec.layers()
	handle := ls["server.handle"]
	L := o.layer
	L["server.handle_us_p50"] = median(handle.dur) / 1e3
	L["server.handle_us_p99"] = quantile(handle.dur, 0.99) / 1e3
	L["server.handle_less_replays_us"] = median(handle.less) / 1e3
	L["core.release_us"] = durMedian(ls, "core.release", time.Microsecond)
	var truths []float64
	for _, k := range []string{"core.truth_hit", "core.truth_miss_canonical", "core.truth_miss_alias"} {
		L[k+"_us"] = durMedian(ls, k, time.Microsecond)
		if l := ls[k]; l != nil {
			truths = append(truths, l.self...)
		}
	}
	if l := ls["core.truth_hit"]; l != nil {
		L["core.truth_hit_ratio"] = float64(len(l.dur)) / float64(len(truths))
	}
	L["table.scan_us"] = durMedian(ls, "table.scan", time.Microsecond)
	L["mech.noise_us"] = durMedian(ls, "mech.noise", time.Microsecond)
	L["mech.noise_ns_per_cell"] = median(ls["mech.noise"].perUnit)
	L["privacy.spend_us"] = durMedian(ls, "privacy.spend", time.Microsecond)
	L["wal.append_us_p50"] = durMedian(ls, "wal.append", time.Microsecond)
	L["wal.append_us_p99"] = quantile(ls["wal.append"].dur, 0.99) / 1e3
	L["wal.appends_per_sync"] = float64(appends) / math.Max(float64(syncs), 1)
	// The server's log holds every release since its boot compaction.
	L["wal.bytes_per_release"] = float64(serverLog) / float64(len(handle.dur)+len(pre)+len(calib))
	L["lodes.generate_ms"] = durMedian(ls, "lodes.generate", time.Millisecond)
	if sp.quarters > 0 {
		adv := ls["server.advance"]
		L["server.advance_ms"] = median(adv.dur) / 1e6
		L["server.advance_max_ms"] = quantile(adv.dur, 1) / 1e6
		L["core.advance_ms"] = durMedian(ls, "core.advance", time.Millisecond)
		L["core.patches"] = float64(ts.patches)
		L["core.evictions"] = float64(ts.evicted)
		L["lodes.generate_delta_ms"] = durMedian(ls, "lodes.generate_delta", time.Millisecond)
		L["lodes.apply_delta_ms"] = durMedian(ls, "lodes.apply_delta", time.Millisecond)
		L["table.merge_index_ms"] = durMedian(ls, "table.merge_index", time.Millisecond)
		L["table.patch_frame_ms"] = durMedian(ls, "table.patch_frame", time.Millisecond)
		L["table.new_view_ms"] = durMedian(ls, "table.new_view", time.Millisecond)
		L["table.apply_frame_us"] = durMedian(ls, "table.apply_frame", time.Microsecond)
	}
	L["trace.recorder_overhead_pct"] = overhead

	// Reconciliation: the median of the handle time the replays leave
	// unaccounted, plus the median self time of every replayed layer,
	// against the median handle time. The replays run after the handler
	// on mirrored state, and the replayed wal.append is a bare Store.Append
	// without the journal's periodic state digest, so the line measures
	// how well the replays stand in for the handler's layers; it is not a
	// sum of self times within one interval.
	sum := median(handle.less) + median(truths)
	parts := fmt.Sprintf("handle less replays %.1f + core.truth %.1f", median(handle.less)/1e3, median(truths)/1e3)
	for _, n := range []string{"core.release", "mech.noise", "privacy.spend", "wal.append"} {
		sum += median(ls[n].self)
		parts += fmt.Sprintf(" + %s %.1f", n, median(ls[n].self)/1e3)
	}
	errPct := 100 * math.Abs(sum-median(handle.dur)) / median(handle.dur)
	L["trace.reconcile_error_pct"] = errPct
	o.note("reconcile: %s = %.1f us vs server.handle p50 %.1f us (%.1f%% apart; within 10%%: %v)",
		parts, sum/1e3, median(handle.dur)/1e3, errPct, errPct <= 10)
	o.note("net.residual_us = client p50 %.1f us - server.handle p50 %.1f us (loopback, queueing, client)",
		1000*o.e2e["latency_p50_ms"], median(handle.dur)/1e3)
	o.note("recorder overhead: %.2f%% of in-process handle time (%d requests, alternating)", overhead, len(calib))
	o.note("replay WAL: %d appends, %d fsyncs, %d bytes; server log %d bytes", appends, syncs, walBytes, serverLog)
	return finishTrace(e, o, rec, ls)
}

// logBytes is the size of the live WAL log files under a state directory.
func logBytes(dir string) (int64, error) {
	logs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return 0, err
	}
	var n int64
	for _, l := range logs {
		fi, err := os.Stat(l)
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}
