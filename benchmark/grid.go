package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/lodes"
	"repro/internal/mech"
)

// runGrid is the paper's evaluation in process: Figures 1–5 and Finding 6
// at the paper's 20 trials per point on default-scale data. The operation
// is one grid pass; each pass gets a freshly set-up harness.
func runGrid(e *env) (*outcome, error) {
	o := newOutcome()
	var setups, passes, cpus, peaks []float64
	var first []byte
	var heapWarm, heapChain float64
	for rep := 0; rep < e.prof.gridReps || !e.prof.enoughSetups(setups); rep++ {
		t0 := time.Now()
		h, err := gridHarness(e, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep >= e.prof.gridReps {
			continue // an extra set-up sample only
		}
		heapWarm = heapInuseMiB()
		// Start each pass from a collected heap with the high-water mark
		// reset, so its peak is its own, not garbage left by the last one.
		runtime.GC()
		debug.FreeOSMemory()
		if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
			return nil, err
		}
		c0, t1 := selfCPU(), time.Now()
		csv, err := gridPass(h, nil)
		o.count(err == nil)
		if err != nil {
			return nil, err
		}
		passes = append(passes, ms(time.Since(t1)))
		cpus = append(cpus, ms(selfCPU()-c0))
		rss, err := peakRSSMiB(os.Getpid())
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, rss)
		heapChain = heapInuseMiB()
		if rep == 0 {
			first = csv
		} else {
			o.gate(bytes.Equal(csv, first), "grid pass %d: figure CSVs differ from pass 0", rep)
		}
	}
	o.e2e["setup_s"] = median(setups)
	o.e2e["latency_p50_ms"] = median(passes)
	// Too few passes for a percentile; the tail is the slowest pass.
	o.e2e["latency_tail_ms"] = quantile(passes, 1)
	o.e2e["cpu_ms_per_op"] = median(cpus)
	o.e2e["peak_rss_mib"] = median(peaks)
	o.note("%s", setupNote(setups))
	o.note("%d grid passes at %d trials: wall %s ms, CPU %s ms, peak RSS %s MiB; %d CSV bytes per pass",
		len(passes), e.prof.trials, fmtList(passes, "%.0f"), fmtList(cpus, "%.0f"), fmtList(peaks, "%.1f"), len(first))
	if !e.trace {
		return o, nil
	}
	o.layer["mem.heap_inuse_mib_warm"] = heapWarm
	o.layer["mem.heap_inuse_mib_chain"] = heapChain
	return o, traceGrid(e, o)
}

// gridHarness generates the dataset (seed 1) and sets up the harness,
// with its trial noise seeded by the run seed, and prefetches every
// workload marginal. rec, when non-nil, times the steps.
func gridHarness(e *env, rec *recorder) (*eval.Harness, error) {
	g0 := rec.now()
	data, err := lodes.Generate(e.prof.gridData, dist.NewStreamFromSeed(1))
	if err != nil {
		return nil, err
	}
	rec.add("lodes.generate", -1, 0, g0, rec.now(), data.NumJobs())
	h, err := eval.NewHarness(data, dist.NewStreamFromSeed(e.seed), e.prof.trials)
	if err != nil {
		return nil, err
	}
	p0 := rec.now()
	err = h.PrefetchWorkloads()
	rec.add("core.prefetch", -1, 0, p0, rec.now(), 0)
	return h, err
}

// gridPass runs Figures 1–5 and Finding 6 and returns their CSVs, one
// after another; rec, when non-nil, times each.
func gridPass(h *eval.Harness, rec *recorder) ([]byte, error) {
	var buf bytes.Buffer
	figure := func(f func() (*eval.FigureResult, error)) func() error {
		return func() error {
			res, err := f()
			if err != nil {
				return err
			}
			return res.WriteCSV(&buf)
		}
	}
	steps := []struct {
		name string
		run  func() error
	}{
		{"eval.figure1", figure(h.Figure1)},
		{"eval.figure2", figure(h.Figure2)},
		{"eval.figure3", figure(h.Figure3)},
		{"eval.figure4", figure(h.Figure4)},
		{"eval.figure5", figure(h.Figure5)},
		{"eval.finding6", func() error {
			pts, err := h.Finding6()
			if err != nil {
				return err
			}
			return eval.WriteTruncatedCSV(&buf, pts)
		}},
	}
	for _, s := range steps {
		t0 := rec.now()
		if err := s.run(); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		rec.add(s.name, -1, 0, t0, rec.now(), 0)
	}
	return buf.Bytes(), nil
}

// traceGrid is the grid's traced pass: one timed set-up and grid pass,
// then replays of the noise kernel on the Workload 1 marginal and of the
// node-DP truncation at every θ of the paper's grid.
func traceGrid(e *env, o *outcome) error {
	rec := newRecorder()
	h, err := gridHarness(e, rec)
	if err != nil {
		return err
	}
	if _, err := gridPass(h, rec); err != nil {
		return err
	}
	m, err := h.Marginal(eval.Workload1Attrs())
	if err != nil {
		return err
	}
	cells := core.CellInputs(m)
	mk, err := mech.NewSmoothGamma(releaseAlpha, 1)
	if err != nil {
		return err
	}
	noise := dist.NewStreamFromSeed(e.seed).Split("noise-replay")
	for i := 0; i < 20; i++ {
		t0 := rec.now()
		if _, err := mech.ReleaseCells(mk, cells, noise.SplitIndex("trial", i)); err != nil {
			return err
		}
		rec.add("mech.noise", -1, int64(i), t0, rec.now(), len(cells))
	}
	for _, theta := range eval.PaperThetaGrid() {
		for i := 0; i < 3; i++ {
			t0 := rec.now()
			if _, err := bipartite.Truncate(h.Data.WorkerFull, theta); err != nil {
				return err
			}
			rec.add(fmt.Sprintf("bipartite.truncate_t%d", theta), -1, int64(i), t0, rec.now(), 0)
		}
	}

	ls := rec.layers()
	L := o.layer
	L["lodes.generate_ms"] = durMedian(ls, "lodes.generate", time.Millisecond)
	L["core.prefetch_ms"] = durMedian(ls, "core.prefetch", time.Millisecond)
	for _, n := range []string{"figure1", "figure2", "figure3", "figure4", "figure5", "finding6"} {
		L["eval."+n+"_s"] = durMedian(ls, "eval."+n, time.Second)
	}
	for _, theta := range eval.PaperThetaGrid() {
		L[fmt.Sprintf("bipartite.truncate_ms_t%d", theta)] = durMedian(ls, fmt.Sprintf("bipartite.truncate_t%d", theta), time.Millisecond)
	}
	L["mech.noise_us"] = durMedian(ls, "mech.noise", time.Microsecond)
	L["mech.noise_ns_per_cell"] = median(ls["mech.noise"].perUnit)
	for _, cs := range h.Publisher().CacheStatsByEpoch() {
		L["stats.cache_hits"] += float64(cs.Hits)
		L["stats.cache_misses"] += float64(cs.Misses)
		L["stats.cache_patches"] += float64(cs.Patches)
		L["stats.cache_evictions"] += float64(cs.Evictions)
	}
	return finishTrace(e, o, rec, ls)
}

// heapInuseMiB is this process's Go heap in use.
func heapInuseMiB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}
