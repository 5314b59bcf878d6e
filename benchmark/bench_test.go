package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/lodes"
)

// TestMain lets the test binary serve as the server child the workloads
// exec, exactly as the benchmark binary does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == childArg {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// smokeProfile shrinks every knob of the full profile: test data, 1 s
// rounds, 2 quarters, 1 trial.
func smokeProfile() profile {
	return profile{
		seconds:   1,
		wideScale: "test",
		gridData:  lodes.TestConfig(),
		rounds:    1,
		quarters:  2,
		trials:    1,
		gridReps:  2,
		setups:    2,
		preroll:   64,
		fill:      128,
		restarts:  2,
		replays:   20,
	}
}

// TestSmoke runs every workload at smoke scale, untraced and traced, and
// checks the result line: correct, and carrying every metric the mode
// promises with its unit.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				var out bytes.Buffer
				code := run(smokeProfile(), w.name, 3, trace == "1", t.TempDir(), &out)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("exit %d, last line not a result: %v\n%s", code, err, out.String())
				}
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, correct %v, %d of %d failed\n%s", code, res.Correct, res.Failed, res.Attempted, out.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.name]
					switch {
					case !ok || v.Unit != d.unit:
						t.Errorf("metric %s: %+v, want unit %s", d.name, v, d.unit)
					case trace == "0" && v.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, v.Value)
					}
				}
			})
		}
	}
}

func TestSpellings(t *testing.T) {
	all := spellings(lodes.NewSchema(4))
	seen := make(map[string]bool)
	for _, s := range all {
		seen[strings.Join(s, ",")] = true
	}
	if len(all) != 400 || len(seen) != 400 {
		t.Fatalf("%d spellings, %d distinct; want 400", len(all), len(seen))
	}
}

// TestCheckRelease feeds the response checker a well-formed body and
// bodies that are wrong in each way it must catch.
func TestCheckRelease(t *testing.T) {
	schema := lodes.NewSchema(4)
	r, err := newRequest(schema, 7, []string{lodes.AttrSex, lodes.AttrIndustry})
	if err != nil {
		t.Fatal(err)
	}
	if r.cells != 40 || r.loss.Eps != 1 {
		t.Fatalf("request expects %d cells at ε %g, want 40 at 1 (weak ER-EE, d = 2)", r.cells, r.loss.Eps)
	}
	counts := strings.TrimSuffix(strings.Repeat("1.5,", 40), ",")
	body := func(seq, cells, eps string) []byte {
		return []byte(`{"epoch":2,"seq":` + seq + `,"attrs":["sex","industry"],"mechanism":"` + releaseMechName +
			`","loss":{"definition":"weak-er-ee","alpha":0.1,"eps":` + eps + `,"delta":0},"cells":` + cells +
			`,"counts":[` + counts + "]}\n")
	}
	if epoch, eps, err := checkRelease(r, body("7", "40", "1")); err != nil || epoch != 2 || eps != 1 {
		t.Fatalf("good body: epoch %d, eps %g, %v", epoch, eps, err)
	}
	for name, b := range map[string][]byte{
		"seq":       body("8", "40", "1"),
		"cells":     body("7", "41", "1"),
		"charge":    body("7", "40", "0.5"),
		"truncated": body("7", "40", "1")[:100],
	} {
		if _, _, err := checkRelease(r, b); err == nil {
			t.Errorf("%s: wrong body accepted", name)
		}
	}
}
