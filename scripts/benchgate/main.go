// Command benchgate checks `go test -bench -benchmem` output against the
// gate section of BENCH.json and fails when a gated benchmark regresses.
//
// Usage, from the repository root:
//
//	go test -run '^$' -bench '<gated names>' -benchtime 1s -count 3 -cpu 2 -benchmem . ./cmd/ereeserve/server/ > bench.txt
//	go run ./scripts/benchgate -output bench.txt
//
// The gate checks only what the host cannot move:
//
//   - allocs/op. Every sample of a gated benchmark must stay within
//     allocSlack of its recorded count. Allocation counts depend on the
//     code and on GOMAXPROCS, not on the machine's speed, so the gate is
//     pinned to one GOMAXPROCS (the gate's "gomaxprocs", passed to go
//     test as -cpu) and a sample at any other value fails.
//   - time as a ratio of two benchmarks run by the same test binary, a
//     fast path over its counterfactual or calibrator. The fastest
//     sample of each side is used, and the ratio must not exceed its
//     recorded bound. A faster or slower host moves both sides.
//
// BENCH.json's trajectory section is measurement history; this command
// never reads it. CI skips the gate when the commit message (or pull
// request title) contains [skip-bench-gate].
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// recordPath is the repository's benchmark record, relative to the
// repository root.
const recordPath = "BENCH.json"

// gate is BENCH.json's gate section.
type gate struct {
	GOMAXPROCS  int            `json:"gomaxprocs"`
	AllocsPerOp map[string]int `json:"allocs_per_op"`
	TimeRatios  []timeRatio    `json:"time_ratios"`
}

// timeRatio bounds ns/op of Bench over ns/op of Over.
type timeRatio struct {
	Bench string  `json:"bench"`
	Over  string  `json:"over"`
	Max   float64 `json:"max"`
}

// benchKey identifies one benchmark's samples: the name with the
// GOMAXPROCS suffix split off (testing appends "-N" when N != 1, so a
// bare name means a 1-proc run).
type benchKey struct {
	name string
	cpu  int
}

// sample summarizes one key's lines: the fastest ns/op and the largest
// allocs/op (-1 when no line reported allocs, i.e. no -benchmem).
type sample struct {
	nsOp   float64
	allocs int
}

func main() {
	outputPath := flag.String("output", "-", "go test -bench -benchmem output to check ('-' for stdin)")
	flag.Parse()

	raw, err := os.ReadFile(recordPath)
	if err != nil {
		fatal("read record: %v", err)
	}
	var rec struct {
		Gate gate `json:"gate"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		fatal("parse %s: %v", recordPath, err)
	}
	if rec.Gate.GOMAXPROCS < 1 || len(rec.Gate.AllocsPerOp) == 0 {
		fatal("%s: gate section needs gomaxprocs and allocs_per_op", recordPath)
	}

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

	lines, ok := rec.Gate.check(measured)
	for _, l := range lines {
		fmt.Println(l)
	}
	if !ok {
		fmt.Println("benchmark gate failed; if the change is intended, update the gate in BENCH.json")
		fmt.Println("(and say why in CHANGES.md), or tag the commit message with [skip-bench-gate]")
		os.Exit(1)
	}
}

// allocSlack is how far allocs/op may exceed its record: 0.1%, rounded
// up, so a zero-allocation benchmark must stay at zero. One allocation
// per cell of a 2400-cell release is far outside it.
//
// Only BenchmarkAdvanceIncremental needs the slack: its scans check
// their scratch out of the index's sync.Pool and fan out on one
// goroutine per shard, and both move its count from run to run. Each
// GC empties the pool, so the scratch it held is allocated again
// (about 30 allocs/op: 80,947-80,951 at -cpu 2, 80,915-80,919 with
// GOGC=off). Without GC two per-P effects remain: a scratch put back
// into one P's private slot, which other Ps never steal from, misses a
// Get on the other P (8.2 or 8.4 misses/op where a mutex-guarded free
// list reads 8.0 every run), and a shard goroutine's descriptor goes
// back to the free list of the P it exited on, so a spawn on the other
// P may allocate a new one. With both a free list and inline shards
// the count read 80,886 in five runs of six and 80,887 in one.
func allocSlack(ref int) int { return int(math.Ceil(float64(ref) / 1000)) }

// check runs every check of the gate against the measured samples and
// returns one report line per check; ok is false when any failed.
func (g gate) check(measured map[benchKey]sample) (lines []string, ok bool) {
	ok = true
	report := func(pass bool, format string, args ...any) {
		status := "ok  "
		if !pass {
			status, ok = "FAIL", false
		}
		lines = append(lines, status+" "+fmt.Sprintf(format, args...))
	}
	// pinned returns the name's sample at the gate's GOMAXPROCS, or
	// reports why there is none.
	pinned := func(name string) (sample, bool) {
		if s, found := measured[benchKey{name, g.GOMAXPROCS}]; found {
			return s, true
		}
		var others []string
		for key := range measured {
			if key.name == name {
				others = append(others, strconv.Itoa(key.cpu))
			}
		}
		if len(others) > 0 {
			sort.Strings(others)
			report(false, "%s: ran at GOMAXPROCS %s, the gate is pinned at %d (go test -cpu %d)",
				name, strings.Join(others, ","), g.GOMAXPROCS, g.GOMAXPROCS)
		} else {
			report(false, "%s: not found in bench output (benchmark rotted or filter too narrow)", name)
		}
		return sample{}, false
	}

	for _, name := range sortedKeys(g.AllocsPerOp) {
		s, found := pinned(name)
		if !found {
			continue
		}
		ref := g.AllocsPerOp[name]
		if s.allocs < 0 {
			report(false, "%s: no allocs/op in bench output (run go test with -benchmem)", name)
			continue
		}
		report(s.allocs <= ref+allocSlack(ref), "%s: %d allocs/op vs record %d (slack %d)",
			name, s.allocs, ref, allocSlack(ref))
	}
	for _, r := range g.TimeRatios {
		fast, okFast := pinned(r.Bench)
		slow, okSlow := pinned(r.Over)
		if !okFast || !okSlow {
			continue
		}
		ratio := fast.nsOp / slow.nsOp
		report(ratio <= r.Max, "%s / %s: %.0f / %.0f ns/op = %.3f (limit %.3g)",
			r.Bench, r.Over, fast.nsOp, slow.nsOp, ratio, r.Max)
	}
	return lines, ok
}

// parseBenchOutput extracts ns/op and allocs/op per (benchmark,
// GOMAXPROCS) from testing's output (lines like "BenchmarkFoo-4  123
// 4567 ns/op  160 B/op  11 allocs/op"). The -N suffix is the run's
// GOMAXPROCS; its absence means 1. Multiple samples of one key (-count
// > 1) keep the fastest ns/op, the noise-robust choice for a ratio, and
// the largest allocs/op, the strict choice for a count.
func parseBenchOutput(r io.Reader) (map[benchKey]sample, error) {
	out := make(map[benchKey]sample)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		cur := sample{nsOp: -1, allocs: -1}
		for i := 2; i < len(fields); i++ {
			switch fields[i] {
			case "ns/op":
				v, err := strconv.ParseFloat(fields[i-1], 64)
				if err != nil {
					return nil, fmt.Errorf("bad ns/op in %q: %v", sc.Text(), err)
				}
				cur.nsOp = v
			case "allocs/op":
				v, err := strconv.Atoi(fields[i-1])
				if err != nil {
					return nil, fmt.Errorf("bad allocs/op in %q: %v", sc.Text(), err)
				}
				cur.allocs = v
			}
		}
		if cur.nsOp < 0 {
			continue
		}
		key := benchKey{name: fields[0], cpu: 1}
		if i := strings.LastIndex(key.name, "-"); i > 0 {
			if n, err := strconv.Atoi(key.name[i+1:]); err == nil && n > 0 {
				key.name, key.cpu = key.name[:i], n
			}
		}
		if prev, found := out[key]; found {
			cur.nsOp = min(cur.nsOp, prev.nsOp)
			cur.allocs = max(cur.allocs, prev.allocs)
		}
		out[key] = cur
	}
	return out, sc.Err()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}
