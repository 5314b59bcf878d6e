// Command benchmark is the end-to-end benchmark of the ER-EE release
// service and of the paper's evaluation grid. It boots ereeserve-equivalent
// server children and drives them with an open-loop load, runs the
// Figure 1–5 + Finding 6 grid in process, and times crash recovery, checking
// every output for correctness. With -trace 1 it also runs a separate
// in-process pass that replays each request through the inner layers'
// public functions and reports per-layer self times.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
//	(cd benchmark && go run . -seed 1)   # every workload in turn
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; see README.md for the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"repro/internal/lodes"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == childArg {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are reported by every workload with -trace 0, measured with
// tracing off. What "operation" and "system under test" mean per workload
// is in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mib", "MiB"},
}

// perLayer are reported by every workload with -trace 1; a layer the
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"net.residual_us", "us"},
	{"net.client_p99_ms", "ms"},
	{"server.handle_us_p50", "us"},
	{"server.handle_us_p99", "us"},
	{"server.handle_less_replays_us", "us"},
	{"server.advance_ms", "ms"},
	{"server.advance_max_ms", "ms"},
	{"server.open_ms", "ms"},
	{"core.release_us", "us"},
	{"core.truth_hit_us", "us"},
	{"core.truth_miss_canonical_us", "us"},
	{"core.truth_miss_alias_us", "us"},
	{"core.truth_hit_ratio", "ratio"},
	{"core.advance_ms", "ms"},
	{"core.patches", "count"},
	{"core.evictions", "count"},
	{"core.prefetch_ms", "ms"},
	{"table.scan_us", "us"},
	{"table.merge_index_ms", "ms"},
	{"table.patch_frame_ms", "ms"},
	{"table.apply_frame_us", "us"},
	{"table.new_view_ms", "ms"},
	{"lodes.generate_ms", "ms"},
	{"lodes.generate_delta_ms", "ms"},
	{"lodes.apply_delta_ms", "ms"},
	{"lodes.replay_quarter_ms", "ms"},
	{"mech.noise_us", "us"},
	{"mech.noise_ns_per_cell", "ns"},
	{"privacy.spend_us", "us"},
	{"wal.append_us_p50", "us"},
	{"wal.append_us_p99", "us"},
	{"wal.appends_per_sync", "ratio"},
	{"wal.bytes_per_release", "bytes"},
	{"wal.recover_ms", "ms"},
	{"wal.records_replayed", "count"},
	{"eval.figure1_s", "s"},
	{"eval.figure2_s", "s"},
	{"eval.figure3_s", "s"},
	{"eval.figure4_s", "s"},
	{"eval.figure5_s", "s"},
	{"eval.finding6_s", "s"},
	{"bipartite.truncate_ms_t2", "ms"},
	{"bipartite.truncate_ms_t20", "ms"},
	{"bipartite.truncate_ms_t50", "ms"},
	{"bipartite.truncate_ms_t100", "ms"},
	{"bipartite.truncate_ms_t200", "ms"},
	{"bipartite.truncate_ms_t500", "ms"},
	{"mem.heap_inuse_mib_warm", "MiB"},
	{"mem.heap_inuse_mib_chain", "MiB"},
	{"gen.late_p99_ms", "ms"},
	{"gen.cpu_us_per_req", "us"},
	{"stats.cache_hits", "count"},
	{"stats.cache_misses", "count"},
	{"stats.cache_patches", "count"},
	{"stats.cache_evictions", "count"},
	{"trace.recorder_overhead_pct", "%"},
	{"trace.reconcile_error_pct", "%"},
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(*env) (*outcome, error)
}

var workloads = []workload{
	{"serve-hot", runServeHot},
	{"advance-wide", runAdvanceWide},
	{"grid", runGrid},
	{"recover", runRecover},
}

// profile sizes a run. The full profile is the recorded benchmark; the
// smoke test shrinks every knob so the suite runs in seconds.
type profile struct {
	seconds   float64 // measured seconds per workload
	wideScale string  // data scale of advance-wide and recover
	gridData  lodes.Config
	rounds    int // serve-hot rounds, each seconds/rounds long
	quarters  int // calibrated quarters absorbed by advance-wide and recover
	trials    int // grid trials per point
	gridReps  int // grid passes per run
	setups    int // least set-ups per run, for setup_s (see enoughSetups)
	preroll   int // untimed requests before a serving workload's rounds
	fill      int // recover: spend records written before the kill
	restarts  int // recover: timed restarts per run
	replays   int // answered requests the replay gate re-sends
}

func fullProfile(seconds int) profile {
	return profile{
		seconds:   float64(seconds),
		wideScale: "default",
		gridData:  lodes.DefaultConfig(),
		rounds:    3,
		quarters:  8,
		trials:    20,
		gridReps:  max(2, seconds/10),
		setups:    7,
		preroll:   4096, // the server's default replay-dedup window
		fill:      4096,
		restarts:  max(5, 2*seconds),
		replays:   100,
	}
}

// enoughSetups reports whether a workload may stop setting up: after at
// least p.setups set-ups that together took a tenth of the measured time,
// so the median of a set-up that takes milliseconds rests on many samples.
func (p profile) enoughSetups(samples []float64) bool {
	var total float64
	for _, s := range samples {
		total += s
	}
	return len(samples) >= p.setups && total >= p.seconds/10
}

// env is one invocation's fixed settings.
type env struct {
	seed     int64
	prof     profile
	senders  int    // load connections and sender goroutines
	rundir   string // private scratch directory, removed at exit
	trace    bool
	traceOut string // spans JSON path of the traced pass
}

// outcome is what one workload run measured.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	problems  []string // failed correctness gates
	notes     []string // human-readable detail printed before the result
}

func newOutcome() *outcome {
	return &outcome{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

// gate records one correctness check; a failure counts as a failed
// operation and makes the run incorrect.
func (o *outcome) gate(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// count records one operation sent to the system under test.
func (o *outcome) count(ok bool) {
	o.attempted++
	if !ok {
		o.failed++
	}
}

// batch records n operations of which failed failed.
func (o *outcome) batch(n, failed int) {
	o.attempted += n
	o.failed += failed
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the last line of standard output carries.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: serve-hot, advance-wide, grid or recover (empty runs all)")
	seed := fs.Int64("seed", 1, "seed of the request plans and delta chains; the dataset seed stays 1")
	seconds := fs.Int("seconds", 20, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1 adds the traced in-process pass, writes its spans under <workdir>/trace and reports the per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "scratch directory for server state and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *seed < 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive, -trace 0 or 1, -seed non-negative")
		return 2
	}
	return run(fullProfile(*seconds), *name, *seed, *trace == 1, *workdir, stdout)
}

// run runs the named workload, or every workload for an empty name, at
// the given profile, printing each one's report and result line.
func run(prof profile, name string, seed int64, trace bool, workdir string, stdout io.Writer) int {
	selected := workloads
	if name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
			return 2
		}
	}

	rundir, err := filepath.Abs(filepath.Join(workdir, fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(rundir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(rundir)
	defer stopAllChildren()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sig)
		close(sig) // ends the watcher below
	}()
	go func() {
		if _, ok := <-sig; ok {
			stopAllChildren()
			os.RemoveAll(rundir)
			os.Exit(1)
		}
	}()

	code := 0
	for _, w := range selected {
		e := &env{
			seed:    seed,
			prof:    prof,
			senders: runtime.NumCPU(),
			rundir:  filepath.Join(rundir, w.name),
			trace:   trace,
		}
		if e.trace {
			e.traceOut = filepath.Join(workdir, "trace", fmt.Sprintf("%s-seed%d.json", w.name, seed))
		}
		fmt.Fprintf(stdout, "== %s (seed %d, %g s measured, %d senders, %d CPUs, %s, %s)\n",
			w.name, seed, prof.seconds, e.senders, runtime.NumCPU(), cpuModel(), runtime.Version())
		o, err := w.run(e)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		res := report(stdout, o, e.trace)
		if !res.Correct {
			code = 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}

// report prints the outcome's notes and metric table and assembles the
// result line: every end-to-end metric, or with trace every per-layer one.
func report(w io.Writer, o *outcome, trace bool) result {
	for _, n := range o.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	res := result{
		Correct:   o.failed == 0 && len(o.problems) == 0,
		Attempted: max(o.attempted, 1),
		Failed:    o.failed,
		Metrics:   make(map[string]value),
	}
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", d.name, o.e2e[d.name], d.unit)
	}
	defs, vals := endToEnd, o.e2e
	if trace {
		defs, vals = perLayer, o.layer
		for _, d := range defs {
			fmt.Fprintf(w, "  %-30s %14.4f %s\n", d.name, vals[d.name], d.unit)
		}
	}
	for _, d := range defs {
		res.Metrics[d.name] = value{Value: vals[d.name], Unit: d.unit}
	}
	fmt.Fprintf(w, "  %-30s %14.6f (%d failed of %d attempted)\n", "error_frac",
		float64(o.failed)/float64(res.Attempted), o.failed, res.Attempted)
	sort.Strings(o.problems)
	for _, p := range o.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	return res
}

// cpuModel names the host CPU for the run header.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
