// Command benchgate compares `go test -bench` output against the
// committed reference numbers in one or more BENCH JSON files and fails
// when a gated benchmark regresses beyond the tolerance factor.
//
// Usage:
//
//	go test -run '^$' -bench 'MarginalComputeUnpacked$|ReleaseCellsSequential$' . > bench.txt
//	go run ./scripts/benchgate -baseline BENCH_scan_kernel.json,BENCH_release_path.json -output bench.txt
//
//	go test -run '^$' -bench 'MarginalComputeUnpacked$' -cpu 1,2,4,8 . > sweep.txt
//	go run ./scripts/benchgate -emit-multicore BENCH_multicore.json -output sweep.txt
//
// Each baseline file's "gate" object maps benchmark names to reference
// ns/op, compared regardless of the run's GOMAXPROCS (shared-runner
// gates tolerate core-count drift; the 1.5× default factor absorbs it).
// A "gate_by_cpu" object maps GOMAXPROCS values to per-benchmark
// references and is compared exactly per core count: a measured sample
// of a gate_by_cpu benchmark at a core count with no recorded column
// fails loudly — the fix is to re-record the sweep on the gating host
// (scripts/bench.sh -multicore), never to compare across core counts
// silently. -baseline takes a comma-separated list and the gates are
// merged (a benchmark gated in two files must satisfy the stricter
// reference).
//
// -emit-multicore switches the command from gating to recording: it
// parses a -cpu sweep's output and writes the multi-core scaling record
// (sweep ns/op per core count, speedup curves vs the 1-core column, a
// gate_by_cpu section for future runs, and an environment block stating
// the recording host's core count — scaling curves are only meaningful
// relative to it).
//
// The gate is deliberately tolerant (default 1.5×): shared CI runners
// are noisy, and the point is to catch order-of-magnitude regressions
// (a reintroduced per-cell allocation, a lost fast path), not
// single-digit drift. CI skips the gate when the commit message
// contains [skip-bench-gate].
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

type baseline struct {
	Gate      map[string]float64            `json:"gate"`
	GateByCPU map[string]map[string]float64 `json:"gate_by_cpu"`
}

// benchKey identifies one benchmark sample: the name with the
// GOMAXPROCS suffix split off (testing appends "-N" when N != 1, so a
// bare name means a 1-proc run).
type benchKey struct {
	name string
	cpu  int
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_scan_kernel.json", "comma-separated BENCH JSON files, each with a gate and/or gate_by_cpu section")
	outputPath := flag.String("output", "-", "go test -bench output to check ('-' for stdin)")
	factor := flag.Float64("factor", 1.5, "maximum allowed ns/op ratio vs the reference")
	emitMulticore := flag.String("emit-multicore", "", "write a multi-core scaling record (BENCH_multicore.json) from a -cpu sweep's output instead of gating")
	flag.Parse()

	var in io.Reader = os.Stdin
	if *outputPath != "-" {
		f, err := os.Open(*outputPath)
		if err != nil {
			fatal("open bench output: %v", err)
		}
		defer f.Close()
		in = f
	}
	measured, err := parseBenchOutput(in)
	if err != nil {
		fatal("parse bench output: %v", err)
	}

	if *emitMulticore != "" {
		if err := writeMulticore(*emitMulticore, measured); err != nil {
			fatal("emit multicore record: %v", err)
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", *emitMulticore, len(benchNames(measured)))
		return
	}

	gate := make(map[string]float64)
	gateByCPU := make(map[string]map[string]float64)
	for _, path := range strings.Split(*baselinePath, ",") {
		raw, err := os.ReadFile(path)
		if err != nil {
			fatal("read baseline: %v", err)
		}
		var b baseline
		if err := json.Unmarshal(raw, &b); err != nil {
			fatal("parse %s: %v", path, err)
		}
		if len(b.Gate) == 0 && len(b.GateByCPU) == 0 {
			fatal("%s has no gate or gate_by_cpu section", path)
		}
		for name, ref := range b.Gate {
			if prev, ok := gate[name]; !ok || ref < prev {
				gate[name] = ref
			}
		}
		for cpu, gates := range b.GateByCPU {
			if _, err := strconv.Atoi(cpu); err != nil {
				fatal("%s: gate_by_cpu key %q is not a core count", path, cpu)
			}
			merged := gateByCPU[cpu]
			if merged == nil {
				merged = make(map[string]float64)
				gateByCPU[cpu] = merged
			}
			for name, ref := range gates {
				if prev, ok := merged[name]; !ok || ref < prev {
					merged[name] = ref
				}
			}
		}
	}

	failed := false
	check := func(name string, got, ref float64, label string) {
		ratio := got / ref
		status := "ok"
		if ratio > *factor {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%-4s %s%s: %.0f ns/op vs reference %.0f (%.2fx, limit %.2fx)\n",
			status, name, label, got, ref, ratio, *factor)
	}

	// Core-count-agnostic gates: the fastest sample of the name at any
	// GOMAXPROCS must satisfy the reference (pre-existing behavior).
	for _, name := range sortedKeys(gate) {
		got, ok := fastestAnyCPU(measured, name)
		if !ok {
			fmt.Printf("FAIL %s: not found in bench output (benchmark rotted or filter too narrow)\n", name)
			failed = true
			continue
		}
		check(name, got, gate[name], "")
	}

	// Per-core-count gates: every measured sample of a gated name must
	// have a reference column for its exact GOMAXPROCS.
	gatedNames := make(map[string]bool)
	for _, gates := range gateByCPU {
		for name := range gates {
			gatedNames[name] = true
		}
	}
	for _, name := range sortedKeys(gatedNames) {
		found := false
		for key, got := range measured {
			if key.name != name {
				continue
			}
			found = true
			refs, ok := gateByCPU[strconv.Itoa(key.cpu)]
			ref, okName := refs[name]
			if !ok || !okName {
				fmt.Printf("FAIL %s-%d: no baseline recorded for GOMAXPROCS=%d — re-record the sweep on the gating host (scripts/bench.sh -multicore), do not compare across core counts\n",
					name, key.cpu, key.cpu)
				failed = true
				continue
			}
			check(name, got, ref, fmt.Sprintf("-%d", key.cpu))
		}
		if !found {
			fmt.Printf("FAIL %s: not found in bench output (benchmark rotted or filter too narrow)\n", name)
			failed = true
		}
	}

	if failed {
		fmt.Println("benchmark gate failed; if the regression is intended, rerun scripts/bench.sh,")
		fmt.Println("update the gate numbers, or tag the commit message with [skip-bench-gate]")
		os.Exit(1)
	}
}

// parseBenchOutput extracts ns/op per (benchmark, GOMAXPROCS) from
// testing's output (lines like "BenchmarkFoo-4   123   4567 ns/op ...").
// The -N suffix is the run's GOMAXPROCS; its absence means 1. Multiple
// samples of one key (-count > 1) keep the fastest, which is the
// noise-robust choice for a regression gate.
func parseBenchOutput(r io.Reader) (map[benchKey]float64, error) {
	out := make(map[benchKey]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		var nsOp float64
		found := false
		for i := 2; i < len(fields); i++ {
			if fields[i] == "ns/op" {
				v, err := strconv.ParseFloat(fields[i-1], 64)
				if err != nil {
					return nil, fmt.Errorf("bad ns/op in %q: %v", sc.Text(), err)
				}
				nsOp, found = v, true
				break
			}
		}
		if !found {
			continue
		}
		key := benchKey{name: fields[0], cpu: 1}
		if i := strings.LastIndex(key.name, "-"); i > 0 {
			if n, err := strconv.Atoi(key.name[i+1:]); err == nil && n > 0 {
				key.name, key.cpu = key.name[:i], n
			}
		}
		if prev, ok := out[key]; !ok || nsOp < prev {
			out[key] = nsOp
		}
	}
	return out, sc.Err()
}

// writeMulticore renders a -cpu sweep into the committed scaling
// record: ns/op per core count, speedups vs the 1-proc column, a
// gate_by_cpu section, and the recording host's environment.
func writeMulticore(path string, measured map[benchKey]float64) error {
	names := benchNames(measured)
	if len(names) == 0 {
		return fmt.Errorf("no benchmark samples in output")
	}

	sweep := make(map[string]map[string]float64)
	speedup := make(map[string]map[string]float64)
	gateByCPU := make(map[string]map[string]float64)
	for key, ns := range measured {
		cpu := strconv.Itoa(key.cpu)
		if sweep[key.name] == nil {
			sweep[key.name] = make(map[string]float64)
		}
		sweep[key.name][cpu] = ns
		if gateByCPU[cpu] == nil {
			gateByCPU[cpu] = make(map[string]float64)
		}
		gateByCPU[cpu][key.name] = ns
	}
	for name, byCPU := range sweep {
		base, ok := byCPU["1"]
		if !ok {
			continue
		}
		speedup[name] = make(map[string]float64)
		for cpu, ns := range byCPU {
			speedup[name][cpu] = round2(base / ns)
		}
	}

	record := struct {
		Description string                        `json:"description"`
		Environment map[string]any                `json:"environment"`
		SweepNsOp   map[string]map[string]float64 `json:"sweep_ns_op"`
		SpeedupVs1  map[string]map[string]float64 `json:"speedup_vs_1cpu"`
		GateByCPU   map[string]map[string]float64 `json:"gate_by_cpu"`
	}{
		Description: "Multi-core scaling record: ns/op per GOMAXPROCS for the sharded scan and parallel release paths, recorded from one -cpu sweep (scripts/bench.sh -multicore owns the canonical flags; this file is written by scripts/benchgate -emit-multicore, never by hand). gate_by_cpu is what scripts/benchgate compares per-core-count runs against — a run at a core count with no recorded column fails the gate with instructions to re-record, so numbers are never compared across core counts.",
		Environment: map[string]any{
			"goos":    runtime.GOOS,
			"goarch":  runtime.GOARCH,
			"go":      runtime.Version(),
			"num_cpu": runtime.NumCPU(),
			"cpu":     cpuModel(),
			"host_caveat": fmt.Sprintf(
				"recorded on a host with NumCPU=%d: sweep columns at -cpu above that measure goroutine oversubscription of the same cores, not parallel scaling, and every per-cpu number is only comparable on a host with the same core count and cpu model",
				runtime.NumCPU()),
		},
		SweepNsOp:  sweep,
		SpeedupVs1: speedup,
		GateByCPU:  gateByCPU,
	}
	raw, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func benchNames(measured map[benchKey]float64) []string {
	set := make(map[string]bool)
	for key := range measured {
		set[key.name] = true
	}
	return sortedKeys(set)
}

func fastestAnyCPU(measured map[benchKey]float64, name string) (float64, bool) {
	best, found := 0.0, false
	for key, ns := range measured {
		if key.name == name && (!found || ns < best) {
			best, found = ns, true
		}
	}
	return best, found
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func round2(x float64) float64 { return float64(int(x*100+0.5)) / 100 }

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}
