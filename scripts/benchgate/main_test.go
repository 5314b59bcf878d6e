package main

import (
	"strings"
	"testing"
)

const sweepOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Example CPU @ 2.10GHz
BenchmarkMarginalCompute    	   10000	    100000 ns/op	     160 B/op	      11 allocs/op
BenchmarkMarginalCompute-2  	   20000	     60000 ns/op
BenchmarkMarginalCompute-4  	   30000	     40000 ns/op
BenchmarkMarginalCompute-4  	   30000	     42000 ns/op
BenchmarkReleaseBatch-2     	     500	   1200000 ns/op
PASS
`

func TestParseBenchOutputSplitsCPUSuffix(t *testing.T) {
	measured, err := parseBenchOutput(strings.NewReader(sweepOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[benchKey]float64{
		{"BenchmarkMarginalCompute", 1}: 100000,
		{"BenchmarkMarginalCompute", 2}: 60000,
		{"BenchmarkMarginalCompute", 4}: 40000, // fastest of the two -4 samples
		{"BenchmarkReleaseBatch", 2}:    1200000,
	}
	if len(measured) != len(want) {
		t.Fatalf("parsed %d samples, want %d: %v", len(measured), len(want), measured)
	}
	for key, ns := range want {
		if measured[key].nsOp != ns {
			t.Errorf("%s-%d = %v, want %v", key.name, key.cpu, measured[key].nsOp, ns)
		}
	}
}

func TestParseBenchOutputAllocs(t *testing.T) {
	for _, tc := range []struct {
		name, out  string
		key        benchKey
		nsOp       float64
		wantAllocs int
	}{
		{
			name:       "one line with a -N suffix",
			out:        "BenchmarkReleaseBatch-2   \t    3220\t    442316 ns/op\t  123328 B/op\t     140 allocs/op\n",
			key:        benchKey{"BenchmarkReleaseBatch", 2},
			nsOp:       442316,
			wantAllocs: 140,
		},
		{
			name: "largest count of several samples",
			out: "BenchmarkAdvanceIncremental-2 7 147994892 ns/op 125330900 B/op 80946 allocs/op\n" +
				"BenchmarkAdvanceIncremental-2 7 149803314 ns/op 125330747 B/op 80947 allocs/op\n" +
				"BenchmarkAdvanceIncremental-2 7 160237030 ns/op 125330916 B/op 80945 allocs/op\n",
			key:        benchKey{"BenchmarkAdvanceIncremental", 2},
			nsOp:       147994892,
			wantAllocs: 80947,
		},
		{
			name:       "no -benchmem",
			out:        "BenchmarkGenCauchySample-2 10554434 105.2 ns/op\n",
			key:        benchKey{"BenchmarkGenCauchySample", 2},
			nsOp:       105.2,
			wantAllocs: -1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			measured, err := parseBenchOutput(strings.NewReader(tc.out))
			if err != nil {
				t.Fatal(err)
			}
			got, found := measured[tc.key]
			if !found || len(measured) != 1 {
				t.Fatalf("parsed %v, want one sample under %v", measured, tc.key)
			}
			if got.nsOp != tc.nsOp || got.allocs != tc.wantAllocs {
				t.Fatalf("got %+v, want ns/op %v allocs/op %d", got, tc.nsOp, tc.wantAllocs)
			}
		})
	}
}

func TestAllocSlack(t *testing.T) {
	for ref, want := range map[int]int{0: 0, 17: 1, 1000: 1, 1001: 2, 2403: 3, 80945: 81} {
		if got := allocSlack(ref); got != want {
			t.Errorf("allocSlack(%d) = %d, want %d", ref, got, want)
		}
	}
}

func TestGateCheck(t *testing.T) {
	g := gate{
		GOMAXPROCS:  2,
		AllocsPerOp: map[string]int{"BenchmarkFast": 17, "BenchmarkSampler": 0},
		TimeRatios:  []timeRatio{{Bench: "BenchmarkFast", Over: "BenchmarkSlow", Max: 0.12}},
	}
	const passing = "BenchmarkFast-2 9441 132305 ns/op 39799 B/op 17 allocs/op\n" +
		"BenchmarkFast-2 7724 140763 ns/op 39834 B/op 17 allocs/op\n" +
		"BenchmarkSlow-2 585 1794428 ns/op 475888 B/op 38 allocs/op\n" +
		"BenchmarkSampler-2 13908814 99.91 ns/op 0 B/op 0 allocs/op\n"
	for _, tc := range []struct {
		name, out string
		wantOK    bool
		wantLine  string // a line of the report that must appear
	}{
		{
			name:     "unchanged code",
			out:      passing,
			wantOK:   true,
			wantLine: "ok   BenchmarkFast / BenchmarkSlow: 132305 / 1794428 ns/op = 0.074 (limit 0.12)",
		},
		{
			name:     "allocs within slack",
			out:      strings.Replace(passing, "17 allocs/op", "18 allocs/op", 1),
			wantOK:   true,
			wantLine: "ok   BenchmarkFast: 18 allocs/op vs record 17 (slack 1)",
		},
		{
			name:     "allocs over slack",
			out:      strings.Replace(passing, "17 allocs/op", "2417 allocs/op", 1),
			wantOK:   false,
			wantLine: "FAIL BenchmarkFast: 2417 allocs/op vs record 17 (slack 1)",
		},
		{
			name:     "a zero-allocation benchmark allocates",
			out:      strings.Replace(passing, "0 B/op 0 allocs/op", "8 B/op 1 allocs/op", 1),
			wantOK:   false,
			wantLine: "FAIL BenchmarkSampler: 1 allocs/op vs record 0 (slack 0)",
		},
		{
			name:     "ratio over its bound",
			out:      strings.ReplaceAll(passing, "1794428 ns/op", "794428 ns/op"),
			wantOK:   false,
			wantLine: "FAIL BenchmarkFast / BenchmarkSlow: 132305 / 794428 ns/op = 0.167 (limit 0.12)",
		},
		{
			name:     "gated benchmark missing",
			out:      strings.Split(passing, "BenchmarkSampler")[0],
			wantOK:   false,
			wantLine: "FAIL BenchmarkSampler: not found in bench output (benchmark rotted or filter too narrow)",
		},
		{
			name:     "run at another GOMAXPROCS",
			out:      strings.ReplaceAll(passing, "-2 ", "-4 "),
			wantOK:   false,
			wantLine: "FAIL BenchmarkFast: ran at GOMAXPROCS 4, the gate is pinned at 2 (go test -cpu 2)",
		},
		{
			name:     "run at GOMAXPROCS 1, which has no suffix",
			out:      strings.ReplaceAll(passing, "-2 ", " "),
			wantOK:   false,
			wantLine: "FAIL BenchmarkSampler: ran at GOMAXPROCS 1, the gate is pinned at 2 (go test -cpu 2)",
		},
		{
			name:     "no -benchmem",
			out:      strings.ReplaceAll(strings.ReplaceAll(passing, " 17 allocs/op", ""), " 0 allocs/op", ""),
			wantOK:   false,
			wantLine: "FAIL BenchmarkFast: no allocs/op in bench output (run go test with -benchmem)",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			measured, err := parseBenchOutput(strings.NewReader(tc.out))
			if err != nil {
				t.Fatal(err)
			}
			lines, ok := g.check(measured)
			report := strings.Join(lines, "\n")
			if ok != tc.wantOK {
				t.Errorf("ok = %v, want %v:\n%s", ok, tc.wantOK, report)
			}
			if !strings.Contains(report+"\n", tc.wantLine+"\n") {
				t.Errorf("report lacks %q:\n%s", tc.wantLine, report)
			}
		})
	}
}
